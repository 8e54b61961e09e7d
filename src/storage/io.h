// Buffered, instrumented sequential file I/O.
//
// Every byte the engine moves to or from disk flows through these two
// classes, which charge the owning IoChannel — that is how the repository
// reproduces Table I's intermediate-data rows and Fig. 2(d)'s bytes-read
// curve without scraping iostat.
#pragma once

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "common/slice.h"
#include "storage/io_stats.h"

namespace opmr {

// Chaos-plane seam: a process-global hook consulted before every physical
// write and read that flows through SequentialWriter/SequentialReader.  The
// fault-injection subsystem (src/fault) installs an implementation for the
// duration of a chaos run; production runs pay one atomic load per
// physical I/O operation (a buffer refill or flush, not a record).  A hook
// may throw to simulate a device error — the failure then surfaces exactly
// where a real EIO would.
class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;

  // `offset` is the byte offset of the operation within the file; `bytes`
  // the size of this physical op (for a read, the size requested).
  virtual void BeforeWrite(const std::filesystem::path& path,
                           std::uint64_t offset, std::size_t bytes) = 0;
  virtual void BeforeRead(const std::filesystem::path& path,
                          std::uint64_t offset, std::size_t bytes) = 0;
};

// Installs (or, with nullptr, removes) the global hook.  The caller keeps
// ownership and must uninstall before destroying the hook.
void SetIoFaultHook(IoFaultHook* hook);
[[nodiscard]] IoFaultHook* GetIoFaultHook() noexcept;

// Buffers appends up to `buffer_bytes` per physical write; an append at
// least that large that finds the buffer empty is written straight through
// (so a buffer_bytes of 0 writes every append unbuffered).  An append that
// fits the buffer is a memcpy inline in the caller.
class SequentialWriter {
 public:
  SequentialWriter(const std::filesystem::path& path, IoChannel channel,
                   std::size_t buffer_bytes = 1 << 16);
  ~SequentialWriter();

  SequentialWriter(const SequentialWriter&) = delete;
  SequentialWriter& operator=(const SequentialWriter&) = delete;
  SequentialWriter(SequentialWriter&& other) noexcept;
  SequentialWriter& operator=(SequentialWriter&&) = delete;

  // Appends a, b and c back to back as one append: a frame header and the
  // key and value it describes cost one buffer check, not three.
  void Append(Slice a, Slice b = {}, Slice c = {}) {
    const std::size_t n = a.size() + b.size() + c.size();
    if (n >= buffer_cap_ - buffered_) {
      AppendSlow(a, b, c);
      return;
    }
    char* dst = buffer_.get() + buffered_;
    std::memcpy(dst, a.data(), a.size());
    std::memcpy(dst + a.size(), b.data(), b.size());
    std::memcpy(dst + a.size() + b.size(), c.data(), c.size());
    buffered_ += n;
    bytes_written_ += n;
  }
  void AppendU32(std::uint32_t v) {
    char bytes[sizeof(v)];
    EncodeU32(bytes, v);
    Append(Slice(bytes, sizeof(bytes)));
  }
  void AppendU64(std::uint64_t v) {
    char bytes[sizeof(v)];
    EncodeU64(bytes, v);
    Append(Slice(bytes, sizeof(bytes)));
  }
  // Appends one run frame: [u32 key size][u32 value size][key][value].
  void AppendFrame(Slice key, Slice value) {
    char header[8];
    EncodeU32(header, static_cast<std::uint32_t>(key.size()));
    EncodeU32(header + 4, static_cast<std::uint32_t>(value.size()));
    Append(Slice(header, sizeof(header)), key, value);
  }

  // Flushes buffered bytes to the OS.  The Hadoop baseline calls this with
  // `sync=true` after a map task's output (the paper's "synchronous I/O ...
  // required for fault tolerance"); the hash runtimes use plain flushes.
  void Flush(bool sync = false);

  // Flushes and closes; further writes are invalid.  Idempotent.
  void Close();

  // Discards buffered bytes and closes without flushing.  For abandoning a
  // failed attempt's output: the partial file is dead weight for FileManager
  // cleanup, and writing the remaining buffer would re-enter the I/O fault
  // hook for an attempt that has already failed.
  void Abandon() noexcept;

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  // An append that does not fit the buffer: written straight through when
  // the buffer is empty, else written out together with the buffered bytes
  // and flushed.
  void AppendSlow(Slice a, Slice b, Slice c);
  // One physical write at the file's end: the buffered bytes, then a, b, c.
  void WriteOut(Slice a = {}, Slice b = {}, Slice c = {});

  std::filesystem::path path_;
  IoChannel channel_;
  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> buffer_;
  std::size_t buffer_cap_;
  std::size_t buffered_ = 0;  // bytes in buffer_
  std::uint64_t bytes_written_ = 0;
};

// Reads a file through its own buffer of the file system's block size, so a
// record is a memcpy out of memory.  The IoChannel is charged the bytes
// actually consumed (read-ahead past a Restrict()ed segment never counts)
// and one op per physical read; the charge is flushed on each refill, on
// Seek and on destruction.
class SequentialReader {
 public:
  SequentialReader(const std::filesystem::path& path, IoChannel channel);
  ~SequentialReader();

  SequentialReader(const SequentialReader&) = delete;
  SequentialReader& operator=(const SequentialReader&) = delete;
  SequentialReader(SequentialReader&& other) noexcept;
  SequentialReader& operator=(SequentialReader&&) = delete;

  // Reads exactly n bytes into dst; returns false on clean EOF at a record
  // boundary (0 bytes read), throws on short read mid-record.
  bool ReadExact(char* dst, std::size_t n) {
    if (n > end_ - pos_) return ReadSlow(dst, n);
    std::memcpy(dst, buffer_.get() + pos_, n);
    pos_ += n;
    uncharged_ += n;
    return true;
  }

  bool ReadU32(std::uint32_t* v) {
    char buf[sizeof(std::uint32_t)];
    if (!ReadExact(buf, sizeof(buf))) return false;
    *v = DecodeU32(buf);
    return true;
  }
  bool ReadU64(std::uint64_t* v) {
    char buf[sizeof(std::uint64_t)];
    if (!ReadExact(buf, sizeof(buf))) return false;
    *v = DecodeU64(buf);
    return true;
  }

  // Positions the reader at `offset` from the file start.
  void Seek(std::uint64_t offset);

  // True when at least n bytes lie between the read position and the end
  // of the file, so record readers can reject a corrupt length before
  // allocating for it.  The cached size can only be stale low (files are
  // append-only), so a miss re-stats before saying no.
  [[nodiscard]] bool HasBytes(std::uint64_t n) {
    const std::uint64_t want = file_pos_ - (end_ - pos_) + n;
    return want <= file_size_ || want <= FileSize();
  }

  [[nodiscard]] std::uint64_t FileSize();

 private:
  // ReadExact past the buffered bytes: refills, or reads large requests
  // straight into dst.
  bool ReadSlow(char* dst, std::size_t n);
  // One physical read of up to n bytes at file_pos_ into dst; returns the
  // bytes read (0 at EOF).
  std::size_t PhysicalRead(char* dst, std::size_t n);
  // Charges consumed-but-uncharged bytes plus `ops` physical reads.
  void Charge(std::int64_t ops);

  std::filesystem::path path_;
  IoChannel channel_;
  int fd_ = -1;
  std::unique_ptr<char[]> buffer_;
  std::size_t buffer_cap_ = 0;
  std::size_t pos_ = 0;        // next unconsumed byte in buffer_
  std::size_t end_ = 0;        // valid bytes in buffer_
  std::uint64_t file_pos_ = 0;   // file offset of the next physical read
  std::uint64_t file_size_ = 0;  // as of open or the last FileSize()
  std::uint64_t uncharged_ = 0;  // consumed bytes not yet charged
};

}  // namespace opmr
