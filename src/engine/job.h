// Job model: the MapReduce programming interface plus the knobs that select
// between the three runtimes the paper studies —
//
//   * Hadoop baseline      : sort-merge group-by, pull shuffle
//   * MapReduce Online/HOP : sort-merge group-by, push (pipelined) shuffle,
//                            periodic snapshots
//   * One-pass hash runtime: hash group-by (hybrid / incremental / hot-key),
//                            push or pull shuffle, fully incremental output
//
// User code supplies a map function and either a holistic reduce function
// (sessionization, inverted index) or an Aggregator (counting, sums, top-k
// per key), the algebraic form that enables combiners and incremental
// processing (paper §IV requirement 3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>
#include <string>

#include "checkpoint/options.h"
#include "common/slice.h"

namespace opmr {

// Receives key/value pairs from a map function (and from combiners).
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;
  virtual void Emit(Slice key, Slice value) = 0;
};

// Streaming view of the values that share one key inside reduce.
class ValueIterator {
 public:
  virtual ~ValueIterator() = default;
  // False when the key's value list is exhausted.  The slice stays valid
  // until the next call.
  virtual bool Next(Slice* value) = 0;
};

// The map function: transforms one input record into zero or more key/value
// pairs (paper §II).
using MapFn = std::function<void(Slice record, OutputCollector& out)>;

// The holistic reduce function: applied to each key's value list.
using ReduceFn =
    std::function<void(Slice key, ValueIterator& values, OutputCollector& out)>;

// Algebraic aggregation: lift a value into a state, fold further values in,
// merge partial states (what a combiner ships), and lower the final state to
// an output value.  Every incremental technique in §V needs this shape; the
// classic combine function is derived from it.
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // state := lift(value)
  virtual void Init(Slice value, std::string* state) const = 0;
  // state := fold(state, value)
  virtual void Update(std::string* state, Slice value) const = 0;
  // state := merge(state, other_state)   (other_state came from a combiner)
  virtual void Merge(std::string* state, Slice other_state) const = 0;
  // output value := lower(state)
  virtual void Finalize(Slice state, std::string* output_value) const = 0;

  // Anything but kNone (the default) promises that states and values are
  // one u64 (EncodeU64) folded by ApplyU64Fold, that Merge is Update and
  // that Finalize copies: a KeyTable then keeps the state inline and folds
  // it with no virtual call.  Wrapping aggregators keep kNone.
  enum class U64Fold { kNone, kSum, kMin, kMax };
  [[nodiscard]] virtual U64Fold u64_fold() const { return U64Fold::kNone; }
};

// One sum, min or max step (`fold` is not kNone).
inline std::uint64_t ApplyU64Fold(Aggregator::U64Fold fold, std::uint64_t state,
                                  std::uint64_t value) noexcept {
  return fold == Aggregator::U64Fold::kSum   ? state + value
         : fold == Aggregator::U64Fold::kMin ? std::min(state, value)
                                             : std::max(state, value);
}

// --- Runtime selection -----------------------------------------------------

enum class GroupBy {
  kSortMerge,  // Hadoop / MapReduce Online (paper Table III row 1, cols 1-2)
  kHash,       // the proposed one-pass runtime (col 3)
};

enum class Shuffle {
  kPull,  // Hadoop: reducers poll for completed map output
  kPush,  // HOP / one-pass: mappers push chunks eagerly, with back-pressure
};

enum class HashReduce {
  kHybridHash,         // blocking hash grouping (§V reduce technique 1)
  kIncremental,        // per-key state updated on arrival (technique 2)
  kHotKeyIncremental,  // + frequent-algorithm hot keys in memory (technique 3)
};

struct JobOptions {
  GroupBy group_by = GroupBy::kSortMerge;
  Shuffle shuffle = Shuffle::kPull;
  HashReduce hash_reduce = HashReduce::kIncremental;

  // Apply the derived combine function in map tasks when an Aggregator is
  // present (paper Fig. 1 "combine()" box).
  bool map_side_combine = true;

  // Map output buffer ("io.sort.mb"); exceeding it spills to disk.
  std::size_t map_buffer_bytes = 32ull << 20;

  // Reducer memory budget for shuffle segments / hash tables.
  std::size_t reduce_buffer_bytes = 32ull << 20;

  // Hadoop's merge factor F: an on-disk merge is triggered whenever the
  // number of on-disk runs reaches F (paper §II-A "multi-pass merge").
  int merge_factor = 10;

  // Compress reduce-side spill runs with the OZ block codec
  // (mapred.compress.map.output's reduce-side analogue): trades CPU for
  // the multi-pass-merge I/O volume the paper identifies as the
  // bottleneck.  Quantified by bench/ablation_compression.
  bool compress_spills = false;

  // Space-Saving capacity for the hot-key reducer: the number of keys whose
  // state is pinned in memory.
  std::size_t hot_key_capacity = 1u << 12;

  // HOP: produce a snapshot every `snapshot_interval` fraction of expected
  // input (0 disables).  E.g. 0.25 gives snapshots at 25/50/75 %.
  double snapshot_interval = 0.0;

  // HOP pipelining granularity: bytes pushed per chunk per partition.
  std::size_t push_chunk_bytes = 256u << 10;

  // HOP back-pressure: per-reducer bound on queued in-flight chunks; when
  // the queue is full the mapper diverts the chunk to local disk instead
  // (the paper's "mappers will write the output to local disks and wait").
  std::size_t push_queue_chunks = 64;

  // Optional early-emit policy for the incremental reducers: invoked after
  // every state update; returning true emits the key's current (finalized)
  // state immediately — the paper's "output a group as soon as the count of
  // its items has reached the threshold" example.
  std::function<bool(Slice key, Slice state)> early_emit;

  // Reduce-state checkpointing (incremental hash runtime only): periodic
  // snapshots of each reducer's state table let a failed reduce attempt
  // resume from the last checkpoint and replay only the shuffle suffix —
  // including under push shuffle, where the shuffle retains pushed chunks
  // until a checkpoint covers them.  See src/checkpoint.
  CheckpointOptions checkpoint;
};

struct JobSpec {
  std::string name;
  std::string input_file;   // DFS path of the (primary) input
  // Additional DFS inputs, processed exactly like the primary one: their
  // blocks join the same scheduling pool.  This is how chained pipelines
  // feed a job from all reducer parts of a previous job, and how
  // repartition joins read two datasets side by side.
  std::vector<std::string> extra_inputs;
  std::string output_file;  // DFS path prefix for reducer outputs
  MapFn map;
  ReduceFn reduce;                        // holistic tasks
  std::shared_ptr<Aggregator> aggregator; // algebraic tasks (enables combine)
  int num_reducers = 4;

  // Custom partitioner (Hadoop's Partitioner interface).  When unset, the
  // default hash partitioner assigns reducers; a range partitioner here
  // plus the sort-merge runtime yields globally sorted output (TeraSort).
  std::function<std::uint32_t(Slice key, int num_reducers)> partitioner;

  // Secondary sort (Hadoop's grouping-comparator idiom): when > 0, only the
  // first `grouping_prefix` bytes of the key choose the partition and the
  // reduce group, while the sort-merge machinery orders records by the FULL
  // key — so a map key of <group><order-suffix> delivers each group's
  // values to reduce already ordered by the suffix.  Sort-merge runtime
  // only (hash grouping has no order to exploit); incompatible with
  // aggregators (folding is per full key, grouping per prefix).
  std::size_t grouping_prefix = 0;

  [[nodiscard]] bool has_aggregator() const noexcept {
    return aggregator != nullptr;
  }
};

}  // namespace opmr
