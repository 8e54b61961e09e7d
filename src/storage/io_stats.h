// Per-device byte accounting.
//
// The paper distinguishes traffic classes on each node's disk: HDFS input
// reads, map-output writes, reduce-spill writes, and multi-pass-merge
// reads/writes (Table I's "Map output data" / "Reduce spill data" rows and
// the Fig. 2(d) bytes-read trace).  Every instrumented reader/writer charges
// a named device channel in a shared registry so benches can report exactly
// those rows.
#pragma once

#include <string>

#include "metrics/counters.h"

namespace opmr {

// Well-known device channel names used across the engine.
namespace device {
inline constexpr const char* kDfsRead = "dfs.bytes_read";
inline constexpr const char* kDfsWrite = "dfs.bytes_written";
inline constexpr const char* kMapOutputWrite = "map_output.bytes_written";
inline constexpr const char* kShuffleRead = "shuffle.bytes_read";
inline constexpr const char* kSpillWrite = "reduce_spill.bytes_written";
inline constexpr const char* kSpillRead = "reduce_spill.bytes_read";
// Shuffle pipelining statistics (push mode).
inline constexpr const char* kPushedChunks = "shuffle.pushed_chunks";
inline constexpr const char* kDivertedChunks = "shuffle.diverted_chunks";
// Wall nanoseconds map tasks spend persisting their output (microbench M2).
inline constexpr const char* kMapOutputWriteNanos = "map_output.write_nanos";
// Checkpoint subsystem traffic (reduce-state snapshots + recovery reads).
inline constexpr const char* kCheckpointWrite = "checkpoint.bytes_written";
inline constexpr const char* kCheckpointRead = "checkpoint.bytes_read";
// Pushed chunks spilled to disk while awaiting checkpoint acknowledgement.
inline constexpr const char* kRetainWrite = "shuffle_retain.bytes_written";
// Inline segment payloads (SegmentData frames) landed by the remote shuffle
// server into its local spill files (tcp transport, no shared filesystem).
inline constexpr const char* kNetSegmentWrite = "net_segment.bytes_written";
}  // namespace device

// Handle pair for one I/O channel: resolves counters once, then hot paths
// only touch atomics.
class IoChannel {
 public:
  IoChannel() = default;
  IoChannel(MetricRegistry* registry, const std::string& bytes_counter)
      : bytes_(registry != nullptr ? registry->Get(bytes_counter) : nullptr),
        ops_(registry != nullptr ? registry->Get(bytes_counter + ".ops")
                                 : nullptr) {}

  void Add(std::int64_t bytes, std::int64_t ops = 1) noexcept {
    if (bytes_ != nullptr) {
      bytes_->Add(bytes);
      ops_->Add(ops);
    }
  }

 private:
  Counter* bytes_ = nullptr;
  Counter* ops_ = nullptr;
};

}  // namespace opmr
