#include "replica/changelog.h"

#include <stdexcept>

#include "common/bytes.h"
#include "common/crc32.h"

namespace opmr::replica {

namespace {

constexpr std::size_t kEntryHeaderBytes = 4 + 1 + 8 + 4 + 4;

}  // namespace

// The payload layout of each record type (timestamps as IEEE-754 bits).
// Namespace-scope so the codec's argument-dependent lookup finds it.
static void Fields(Like<LogRecord> auto& r, auto& io) {
  switch (r.type) {
    case LogRecordType::kRegister:
      return io(r.worker, r.endpoint, r.role, r.now_s);
    case LogRecordType::kHeartbeat:
      return io(r.worker, r.generation, r.now_s);
    case LogRecordType::kExpire:
      return io(r.now_s, r.lease_s);
    case LogRecordType::kLost:
      return io(r.worker);
  }
  throw DecodeError("changelog: unknown record type " +
                    std::to_string(static_cast<int>(r.type)));
}

const char* LogRecordTypeName(LogRecordType type) noexcept {
  switch (type) {
    case LogRecordType::kRegister: return "register";
    case LogRecordType::kHeartbeat: return "heartbeat";
    case LogRecordType::kExpire: return "expire";
    case LogRecordType::kLost: return "lost";
  }
  return "unknown";
}

std::string LogRecord::EncodePayload() const { return EncodeFields(*this); }

LogRecord LogRecord::DecodePayload(LogRecordType type,
                                   const std::string& body) {
  LogRecord rec;
  rec.type = type;
  DecodeFields(body, rec, LogRecordTypeName(type));
  return rec;
}

Changelog::Changelog(const std::filesystem::path& dir,
                     std::uint32_t replica_id) {
  std::filesystem::create_directories(dir);
  path_ = dir / ("replica_" + std::to_string(replica_id) + ".oplog");
  // a+b: create if missing, never truncate what a previous run left.
  file_ = std::fopen(path_.c_str(), "a+b");
  if (file_ == nullptr) {
    throw std::runtime_error("changelog: cannot open " + path_.string());
  }
  // A pure scan pass establishes last_index_ and trims any torn tail;
  // recovery proper re-Replays with the caller's apply function.
  Replay([](std::uint64_t, const LogRecord&) {});
}

Changelog::~Changelog() {
  if (file_ != nullptr) std::fclose(file_);
}

void Changelog::Append(std::uint64_t index, const LogRecord& record) {
  const std::string payload = record.EncodePayload();
  std::string entry;
  entry.reserve(kEntryHeaderBytes + payload.size());
  AppendU32(entry, kLogMagic);
  entry.push_back(static_cast<char>(record.type));
  AppendU64(entry, index);
  AppendU32(entry, static_cast<std::uint32_t>(payload.size()));
  // CRC over type + index + payload: everything after the magic except the
  // length and the checksum itself, mirroring the frame layer.
  std::uint32_t crc = Crc32Update(kCrc32Init, entry.data() + 4, 9);
  crc = Crc32Final(Crc32Update(crc, payload.data(), payload.size()));
  AppendU32(entry, crc);
  entry.append(payload);
  if (::fseeko(file_, 0, SEEK_END) != 0 ||
      std::fwrite(entry.data(), 1, entry.size(), file_) != entry.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("changelog: append failed on " + path_.string());
  }
  last_index_ = index;
}

std::size_t Changelog::Replay(
    const std::function<void(std::uint64_t, const LogRecord&)>& fn) {
  if (::fseeko(file_, 0, SEEK_END) != 0) {
    throw std::runtime_error("changelog: seek failed on " + path_.string());
  }
  const auto file_size = static_cast<std::uint64_t>(::ftello(file_));
  std::string bytes(file_size, '\0');
  if (::fseeko(file_, 0, SEEK_SET) != 0 ||
      std::fread(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    throw std::runtime_error("changelog: read failed on " + path_.string());
  }

  std::size_t visited = 0;
  std::size_t clean = 0;  // byte offset past the last valid entry
  std::size_t pos = 0;
  last_index_ = 0;
  while (bytes.size() - pos >= kEntryHeaderBytes) {
    const char* base = bytes.data() + pos;
    if (DecodeU32(base) != kLogMagic) break;
    const auto type = static_cast<std::uint8_t>(base[4]);
    const std::uint64_t index = DecodeU64(base + 5);
    const std::uint32_t payload_len = DecodeU32(base + 13);
    const std::uint32_t stored_crc = DecodeU32(base + 17);
    if (bytes.size() - pos - kEntryHeaderBytes < payload_len) break;
    std::uint32_t crc = Crc32Update(kCrc32Init, base + 4, 9);
    crc = Crc32Final(Crc32Update(crc, base + kEntryHeaderBytes, payload_len));
    if (crc != stored_crc) break;
    LogRecord rec;
    try {
      rec = LogRecord::DecodePayload(
          static_cast<LogRecordType>(type),
          std::string(base + kEntryHeaderBytes, payload_len));
    } catch (const std::runtime_error&) {
      break;  // CRC collision or unknown type: treat as torn tail
    }
    pos += kEntryHeaderBytes + payload_len;
    clean = pos;
    last_index_ = index;
    ++visited;
    fn(index, rec);
  }

  if (clean < bytes.size()) {
    // Torn tail from a crash mid-append: truncate back to the clean prefix
    // so the next Append never interleaves with garbage.
    std::fclose(file_);
    file_ = nullptr;
    std::filesystem::resize_file(path_, clean);
    file_ = std::fopen(path_.c_str(), "a+b");
    if (file_ == nullptr) {
      throw std::runtime_error("changelog: reopen failed on " +
                               path_.string());
    }
  }
  return visited;
}

void Changelog::Reset() {
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");  // truncate
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = std::fopen(path_.c_str(), "a+b");
  }
  if (file_ == nullptr) {
    throw std::runtime_error("changelog: reset failed on " + path_.string());
  }
}

}  // namespace opmr::replica
