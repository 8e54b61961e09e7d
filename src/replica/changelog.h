// Changelog: the replicated coordinator's durable mutation log.
//
// Every WorkerRegistry mutation the leader performs is first serialized as
// one typed LogRecord and appended here, then applied to the in-memory
// registry, then streamed to the standbys as a kLogAppend frame.  Replaying
// the same record sequence into a fresh WorkerRegistry reproduces the
// leader's state byte-for-byte — the registry is caller-clocked (every
// mutation carries its timestamp inside the record), so replay is a pure
// function of the log.
//
// On-disk entry layout (little-endian), one entry per record:
//
//   [u32 magic 'OPLG'] [u8 type] [u64 index] [u32 payload_len]
//   [u32 crc] [payload]
//
// `crc` is CRC-32 over type, index, and the payload.  A torn or corrupt
// tail entry (crash mid-append) fails the magic/CRC check and replay stops
// there, truncating the file back to the last clean entry — the same
// "valid prefix wins" contract the checkpoint plane uses.
//
// The log is rotated, not compacted: after a registry snapshot covering
// applied index W is committed (checkpoint-plane image, watermark == W)
// the file is reset and subsequent entries carry indices > W.  Recovery
// loads the newest snapshot and replays only entries with index > W.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

namespace opmr::replica {

inline constexpr std::uint32_t kLogMagic = 0x474C504Fu;  // "OPLG"

enum class LogRecordType : std::uint8_t {
  kRegister = 1,   // worker (re)joined: endpoint, role, timestamp
  kHeartbeat = 2,  // lease renewal: generation, timestamp
  kExpire = 3,     // failure-detector sweep: timestamp, lease duration
  kLost = 4,       // suspect -> lost transition (observability marker)
};

[[nodiscard]] const char* LogRecordTypeName(LogRecordType type) noexcept;

// One registry mutation.  Field use per type:
//   kRegister:  worker, endpoint, role, now_s
//   kHeartbeat: worker, generation, now_s
//   kExpire:    now_s, lease_s
//   kLost:      worker
// Timestamps travel as the double's IEEE-754 bit pattern so a replayed
// mutation sees the EXACT value the leader clocked, not a re-rounded one.
struct LogRecord {
  LogRecordType type = LogRecordType::kRegister;
  std::string worker;
  std::string endpoint;
  std::uint8_t role = 0;  // net::WireRole as a raw byte
  std::uint64_t generation = 0;
  double now_s = 0.0;
  double lease_s = 0.0;

  // Payload codec (the bytes carried in kLogAppend frames and on disk).
  [[nodiscard]] std::string EncodePayload() const;
  // Throws DecodeError (a std::runtime_error) on truncated / trailing /
  // unknown-type bytes.
  static LogRecord DecodePayload(LogRecordType type, const std::string& body);
};

class Changelog {
 public:
  // Opens (creating if missing) `<dir>/replica_<id>.oplog`, scans the
  // existing entries to find the last clean index, and truncates any torn
  // tail.  Throws std::runtime_error on I/O failure.
  Changelog(const std::filesystem::path& dir, std::uint32_t replica_id);
  ~Changelog();

  Changelog(const Changelog&) = delete;
  Changelog& operator=(const Changelog&) = delete;

  // Appends `record` at `index` (must be last_index() + 1 after a Reset-
  // aware recovery; the caller owns index assignment).  Flushes to the OS
  // but does not fsync — durability comes from the replica set, not the
  // disk; the log exists so a restarting replica catches up locally.
  void Append(std::uint64_t index, const LogRecord& record);

  // Replays every clean entry in file order.  Stops at (and truncates) the
  // first torn or corrupt entry.  Returns the number of entries visited.
  std::size_t Replay(
      const std::function<void(std::uint64_t, const LogRecord&)>& fn);

  // Truncates the log to empty — called right after a snapshot commit
  // (rotation) or a snapshot install (the local suffix is obsolete).
  void Reset();

  [[nodiscard]] std::uint64_t last_index() const noexcept {
    return last_index_;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
  std::FILE* file_ = nullptr;
  std::uint64_t last_index_ = 0;  // highest clean index seen/appended
};

}  // namespace opmr::replica
