// CheckpointManager: durable snapshots of a reduce worker's incremental
// state (per-key aggregator states + Space-Saving sketch) plus a manifest of
// input watermarks, written in the byte-slice run idiom through the
// instrumented storage writers.
//
// Commit protocol: serialize → (optional) OZ-compress → CRC-32C → write to a
// `.tmp` sibling → fsync → rename into place.  A crash mid-write leaves at
// worst a dangling tmp file; a torn or bit-flipped image fails CRC on load
// and the manager falls back to the next-oldest retained checkpoint.
//
// File layout (little-endian):
//   [8]  magic "OPMRCKP1"
//   [u32] format version (2)
//   [u8]  flags (bit 0: payload is OZ-compressed)
//   [u64] checkpoint sequence number
//   [u32] CRC-32C of the payload bytes as stored
//   [u64] payload byte count
//   payload (after decompression):
//     [u64] watermark (consumed shuffle ordinal / ingest record seq)
//     [u32] n_feeds     ([u32 feed_id][u64 records])*
//     [u32] n_spills    ([u32 path_len][path][u64 committed_bytes])*
//     [u32] n_sketch    ([u32 key_len][key][u64 count][u64 error])*
//     [u64] sketch stream length
//     [u64] n_entries   ([u32 key_len][u32 state_len][u8 early][key][state])*
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/options.h"
#include "metrics/counters.h"

namespace opmr {

// Filename prefix ("<sanitized job>_w") shared by every worker's images of
// one job; SweepFinishedJobs matches on it to garbage-collect a shared dir.
[[nodiscard]] std::string CheckpointJobPrefix(const std::string& job);

// Serve-plane snapshot images are checkpoints of the pseudo-job
// "<job>.serve" ('.' survives filename sanitization but never appears in a
// worker role suffix, so the namespaces cannot collide).  SweepFinishedJobs
// covers both, so job-completion GC also reclaims published snapshots.
inline constexpr const char* kServeJobSuffix = ".serve";

// Checkpoint counters: images written and restored, stale files swept after
// a job completes, and microseconds spent restoring.
inline constexpr const char* kCheckpointsWritten = "checkpoint.written";
inline constexpr const char* kCheckpointsLoaded = "checkpoint.loaded";
inline constexpr const char* kCheckpointsSwept = "checkpoint.swept";
inline constexpr const char* kCheckpointRecoverUs = "checkpoint.recover_us";

// One checkpoint's logical content, independent of on-disk framing.  The
// owner (batch reducer / streaming worker) fills it before Write and applies
// it after LoadLatest.
struct CheckpointImage {
  std::uint64_t seq = 0;        // assigned by Write / recovered by Load
  std::uint64_t watermark = 0;  // input covered: all ordinals/seqs <= this

  // Records consumed per feed (map task id / ingest queue id).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> feeds;

  // Spill/cold run files that existed at checkpoint time and the byte count
  // committed to each; recovery truncates grown files back to the committed
  // length (appends after the checkpoint belong to the failed epoch).
  struct SpillFile {
    std::string path;
    std::uint64_t committed_bytes = 0;
  };
  std::vector<SpillFile> spill_files;

  // Space-Saving summary (hot-key modes; empty otherwise).
  struct SketchEntry {
    std::string key;
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  std::vector<SketchEntry> sketch;
  std::uint64_t sketch_stream_length = 0;

  // The state table.
  struct TableEntry {
    std::string key;
    std::string state;
    bool early_emitted = false;
  };
  std::vector<TableEntry> entries;
};

// The on-disk payload codec, exported for the serve plane: a publisher
// serializes one image for the wire exactly as CheckpointManager lays it
// out inside a file, and a replica parses the fetched bytes back.  Both
// are deterministic, so identical images yield identical byte strings.
[[nodiscard]] std::string SerializeCheckpointImage(const CheckpointImage& image);
// Throws DecodeError (a std::runtime_error) on truncated or trailing bytes
// and on a count the payload cannot hold, before reserving anything.
[[nodiscard]] CheckpointImage ParseCheckpointImage(const std::string& body);

class CheckpointManager {
 public:
  // Files are named `<job>_w<worker>_<seq>.ckpt` under `dir` (created if
  // missing); `job` is sanitized for the filesystem.
  CheckpointManager(std::filesystem::path dir, const std::string& job,
                    int worker, CheckpointOptions options,
                    MetricRegistry* metrics);

  // Deletes every checkpoint (and tmp) file of this job/worker — called on
  // a fresh attempt 1 so stale images from a previous run are never loaded.
  void Reset();

  // Trigger accounting: the owner reports consumed input; Due() answers
  // whether any configured interval has been crossed since the last Write.
  void OnProgress(std::uint64_t records, std::uint64_t bytes);
  [[nodiscard]] bool Due() const;

  // Serializes and atomically commits `image` (seq is assigned), prunes
  // checkpoints beyond the retention window, and resets the trigger
  // accounting.  Returns bytes written.  Throws on I/O failure — callers
  // treat that as an attempt failure; the previous checkpoint still stands.
  std::uint64_t Write(CheckpointImage* image);

  // Loads the newest retained checkpoint that passes CRC + framing
  // validation, skipping (and counting) corrupt ones.  nullopt when none.
  std::optional<CheckpointImage> LoadLatest();

  // Watermark of the OLDEST checkpoint still on disk — the safe shuffle
  // acknowledgement point (any retained checkpoint can still be restored).
  // nullopt when no checkpoint has been written by this manager yet.
  [[nodiscard]] std::optional<std::uint64_t> OldestRetainedWatermark() const;

  [[nodiscard]] const CheckpointOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return written_;
  }

  // Platform-level GC for a shared checkpoint directory: removes every
  // image (and dangling tmp) of `finished_job`, across all of its workers,
  // without touching other jobs' files.  Called by the executor when a job
  // completes so a long-lived --checkpoint-dir does not accumulate images
  // from finished jobs.  Returns the number of files removed; a missing
  // directory is not an error (returns 0).
  static int SweepFinishedJobs(const std::filesystem::path& dir,
                               const std::string& finished_job);

 private:
  [[nodiscard]] std::filesystem::path PathFor(std::uint64_t seq) const;
  // Existing committed checkpoints of this job/worker, sorted by seq.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::filesystem::path>>
  ListOnDisk() const;

  std::filesystem::path dir_;
  std::string prefix_;  // "<sanitized job>_w<worker>_"
  CheckpointOptions options_;
  MetricRegistry* metrics_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t written_ = 0;
  // Watermarks of the retained checkpoints, oldest first (parallel to the
  // on-disk retention window).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> retained_;  // (seq, wm)

  // Trigger accounting since the last Write.
  std::uint64_t records_since_ = 0;
  std::uint64_t bytes_since_ = 0;
  double last_write_seconds_ = 0.0;  // monotonic clock snapshot
};

}  // namespace opmr
