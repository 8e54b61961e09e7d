// One map task: reads one DFS block, applies the map function, and routes
// output through the configured map-side technique:
//
//   * kSortMerge — buffer + block-level sort on (partition, key), optional
//     combine over sorted groups, spill when the buffer fills (Hadoop).
//   * kHash + combine — a KeyTable folding values into states; flushes
//     the table when it exceeds the buffer (the in-memory degenerate case
//     of map-side Hybrid Hash, §V map technique 2).
//   * kHash, no combine — partition-only scan: records stream straight to
//     the sink, no grouping work at all (§V map technique 1).
#pragma once

#include "common/hash.h"
#include "dfs/dfs.h"
#include "engine/job.h"
#include "engine/map_sinks.h"
#include "engine/reduce_common.h"

namespace opmr {

// Hadoop's default HashPartitioner equivalent; reducers are chosen by a
// seeded byte hash of the key.
inline constexpr std::uint64_t kPartitionSeed = 0x9d5fULL;

// The partition of a key whose partition hash is `hash`: hash mod R, taken
// with a mask when R is a power of two (the same value, no division).
inline std::uint32_t PartitionOfHash(std::uint64_t hash, int num_reducers) {
  const auto r = static_cast<std::uint64_t>(num_reducers);
  return static_cast<std::uint32_t>((r & (r - 1)) == 0 ? hash & (r - 1)
                                                       : hash % r);
}

inline std::uint32_t PartitionOf(Slice key, int num_reducers) {
  return PartitionOfHash(BytesHash(key, kPartitionSeed), num_reducers);
}

class MapTask {
 public:
  struct Stats {
    std::uint64_t input_records = 0;
    std::uint64_t output_records = 0;
    std::uint64_t output_bytes = 0;
  };

  MapTask(int task_id, const JobSpec& spec, const JobOptions& options,
          const RuntimeEnv& env, const BlockInfo& block, MapOutputSink* sink);

  // Processes the whole block; Close()s the sink but does NOT report
  // MapTaskDone (the executor does, after recording the timeline entry).
  Stats Run();

 private:
  void RunSortPath(DfsBlockReader& reader);
  void RunHashCombinePath(DfsBlockReader& reader);
  void RunPartitionOnlyPath(DfsBlockReader& reader);

  // Sorts the buffer, applies the derived combiner when configured, and
  // writes one partition-grouped batch to the sink.
  void FlushSortedBuffer(class MapOutputBuffer& buffer);

  int task_id_;
  const JobSpec& spec_;
  const JobOptions& options_;
  RuntimeEnv env_;
  const BlockInfo& block_;
  MapOutputSink* sink_;
  Stats stats_;
};

}  // namespace opmr
