#include "storage/io.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace opmr {

namespace {
[[noreturn]] void ThrowErrno(const std::string& what,
                             const std::filesystem::path& path) {
  throw std::runtime_error(what + " " + path.string() + ": " +
                           std::strerror(errno));
}

std::atomic<IoFaultHook*> g_io_fault_hook{nullptr};
}  // namespace

void SetIoFaultHook(IoFaultHook* hook) {
  g_io_fault_hook.store(hook, std::memory_order_release);
}

IoFaultHook* GetIoFaultHook() noexcept {
  return g_io_fault_hook.load(std::memory_order_acquire);
}

SequentialWriter::SequentialWriter(const std::filesystem::path& path,
                                   IoChannel channel, std::size_t buffer_bytes)
    : path_(path),
      channel_(channel),
      buffer_(std::make_unique_for_overwrite<char[]>(buffer_bytes)),
      buffer_cap_(buffer_bytes) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) ThrowErrno("SequentialWriter: cannot open", path);
}

SequentialWriter::SequentialWriter(SequentialWriter&& other) noexcept
    : path_(std::move(other.path_)),
      channel_(other.channel_),
      file_(other.file_),
      buffer_(std::move(other.buffer_)),
      buffer_cap_(other.buffer_cap_),
      buffered_(other.buffered_),
      bytes_written_(other.bytes_written_) {
  other.file_ = nullptr;
  other.buffered_ = 0;
}

SequentialWriter::~SequentialWriter() {
  try {
    Close();
  } catch (...) {
    // Destructor must not throw; the file is left partially written, which
    // is acceptable for spill files cleaned up by FileManager.
  }
}

void SequentialWriter::AppendSlow(Slice a, Slice b, Slice c) {
  const bool coalesced = buffered_ > 0;
  WriteOut(a, b, c);
  bytes_written_ += a.size() + b.size() + c.size();
  if (coalesced && std::fflush(file_) != 0) {
    ThrowErrno("SequentialWriter: fflush", path_);
  }
}

void SequentialWriter::WriteOut(Slice a, Slice b, Slice c) {
  if (file_ == nullptr) throw std::logic_error("write on closed writer");
  const std::size_t n = buffered_ + a.size() + b.size() + c.size();
  if (auto* hook = GetIoFaultHook()) {
    hook->BeforeWrite(path_, bytes_written_ - buffered_, n);
  }
  for (const Slice part : {Slice(buffer_.get(), buffered_), a, b, c}) {
    if (std::fwrite(part.data(), 1, part.size(), file_) != part.size()) {
      ThrowErrno("SequentialWriter: short write", path_);
    }
  }
  buffered_ = 0;
  channel_.Add(static_cast<std::int64_t>(n));
}

void SequentialWriter::Flush(bool sync) {
  if (file_ == nullptr) throw std::logic_error("Flush on closed writer");
  if (buffered_ > 0) WriteOut();
  if (std::fflush(file_) != 0) ThrowErrno("SequentialWriter: fflush", path_);
  if (sync) {
    // fdatasync, the persistence point Hadoop requires of completed maps.
    if (::fdatasync(::fileno(file_)) != 0) {
      ThrowErrno("SequentialWriter: fdatasync", path_);
    }
  }
}

void SequentialWriter::Abandon() noexcept {
  buffered_ = 0;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void SequentialWriter::Close() {
  if (file_ == nullptr) return;
  Flush();
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    ThrowErrno("SequentialWriter: fclose", path_);
  }
  file_ = nullptr;
}

SequentialReader::SequentialReader(const std::filesystem::path& path,
                                   IoChannel channel)
    : path_(path), channel_(channel) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) ThrowErrno("SequentialReader: cannot open", path);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    ThrowErrno("SequentialReader: fstat", path);
  }
  // The file system's block size is what stdio reads per refill; never
  // below one 4 KiB page.
  buffer_cap_ = std::max<std::size_t>(static_cast<std::size_t>(st.st_blksize),
                                      std::size_t{4096});
  buffer_.reset(new char[buffer_cap_]);
  file_size_ = static_cast<std::uint64_t>(st.st_size);
}

SequentialReader::SequentialReader(SequentialReader&& other) noexcept
    : path_(std::move(other.path_)),
      channel_(other.channel_),
      fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      buffer_cap_(other.buffer_cap_),
      pos_(other.pos_),
      end_(other.end_),
      file_pos_(other.file_pos_),
      file_size_(other.file_size_),
      uncharged_(other.uncharged_) {
  other.fd_ = -1;
  other.pos_ = other.end_ = 0;
  other.uncharged_ = 0;
}

SequentialReader::~SequentialReader() {
  Charge(0);
  if (fd_ >= 0) ::close(fd_);
}

void SequentialReader::Charge(std::int64_t ops) {
  if (uncharged_ == 0 && ops == 0) return;
  channel_.Add(static_cast<std::int64_t>(uncharged_), ops);
  uncharged_ = 0;
}

std::size_t SequentialReader::PhysicalRead(char* dst, std::size_t n) {
  if (auto* hook = GetIoFaultHook()) hook->BeforeRead(path_, file_pos_, n);
  ssize_t got = 0;
  do {
    got = ::pread(fd_, dst, n, static_cast<off_t>(file_pos_));
  } while (got < 0 && errno == EINTR);
  if (got < 0) ThrowErrno("SequentialReader: read", path_);
  file_pos_ += static_cast<std::uint64_t>(got);
  return static_cast<std::size_t>(got);
}

bool SequentialReader::ReadSlow(char* dst, std::size_t n) {
  std::size_t done = 0;
  for (;;) {
    const std::size_t take = std::min(n - done, end_ - pos_);
    if (take > 0) std::memcpy(dst + done, buffer_.get() + pos_, take);
    pos_ += take;
    done += take;
    uncharged_ += take;
    if (done == n) return true;
    std::size_t got = 0;
    if (n - done >= buffer_cap_) {
      // At least a buffer's worth still wanted: read it straight into dst.
      got = PhysicalRead(dst + done, n - done);
      done += got;
      uncharged_ += got;
    } else {
      got = PhysicalRead(buffer_.get(), buffer_cap_);
      pos_ = 0;
      end_ = got;
    }
    Charge(1);
    if (got == 0) {
      if (done == 0) return false;
      throw std::runtime_error("SequentialReader: truncated read from " +
                               path_.string());
    }
  }
}

void SequentialReader::Seek(std::uint64_t offset) {
  Charge(0);
  pos_ = 0;
  end_ = 0;
  file_pos_ = offset;
}

std::uint64_t SequentialReader::FileSize() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) ThrowErrno("SequentialReader: fstat", path_);
  file_size_ = static_cast<std::uint64_t>(st.st_size);
  return file_size_;
}

}  // namespace opmr
