// Hybrid-hash grouping reducer (§V reduce technique 1) and the shared
// external-aggregation routine the incremental reducers use to resolve
// spilled data.
//
// Hybrid hash (Shapiro 1986, as cited by the paper) splits the key space
// into sub-buckets with a fresh hash-family member per recursion level;
// buckets stay memory-resident until the budget is exceeded, at which point
// the largest resident bucket is demoted to disk and its future arrivals
// are appended straight to its file.  After input ends, resident buckets
// are reduced in memory and spilled buckets are processed recursively.
//
// This grouping works with or without a combine function, but remains a
// blocking operation with I/O comparable to sort-merge — exactly the
// trade-off the paper states; the incremental paths exist to beat it.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "engine/job.h"
#include "engine/reduce_common.h"

namespace opmr {

// Hash table grouping full value lists per key (the no-aggregator mode of
// hybrid hash: sessionization and inverted index have no combine function).
class HashValueTable {
 public:
  HashValueTable() = default;

  void Add(Slice key, Slice value) {
    auto it = map_.find(key.view());
    if (it == map_.end()) {
      it = map_.emplace(std::string(key.view()), std::vector<Slice>{}).first;
      bytes_ += key.size() + kEntryOverhead;
    }
    it->second.push_back(arena_.Copy(value));
    bytes_ += value.size() + sizeof(Slice);
  }

  [[nodiscard]] std::size_t MemoryBytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

  // Applies `fn(key, values)` to every group.
  void ForEach(const std::function<void(Slice, const std::vector<Slice>&)>& fn)
      const {
    for (const auto& [key, values] : map_) fn(key, values);
  }

  void Clear() {
    map_.clear();
    arena_.Reset();
    bytes_ = 0;
  }

 private:
  static constexpr std::size_t kEntryOverhead = 96;

  Arena arena_;
  std::unordered_map<std::string, std::vector<Slice>, TransparentStringHash,
                     std::equal_to<>>
      map_;
  std::size_t bytes_ = 0;
};

// Recursively groups-and-reduces the records of `runs` (on-disk files of
// framed (key, value-or-state) records) within `memory_budget`, calling
// `emit_group(key, values)` once per key with all its values.  Used by
// HybridHashReducer for demoted buckets and by the incremental reducers to
// resolve their spill files.  `level` selects the hash-family member.
void ExternalHashAggregate(
    const std::vector<std::filesystem::path>& runs, int level,
    std::size_t memory_budget, const RuntimeEnv& env,
    const std::function<void(Slice key, const std::vector<Slice>& values)>&
        emit_group,
    bool compress = false);

class HybridHashReducer {
 public:
  HybridHashReducer(int reducer_id, const JobSpec& spec,
                    const JobOptions& options, const RuntimeEnv& env);

  std::uint64_t Run();

 private:
  static constexpr int kNumBuckets = 32;

  struct Bucket {
    // Exactly one representation is active.
    std::unique_ptr<HashValueTable> values;   // no aggregator
    std::unique_ptr<class StateTable> states; // aggregator
    std::unique_ptr<RecordSink> spill;        // demoted to disk
    std::filesystem::path spill_path;
    std::uint64_t spill_records = 0;
  };

  void FoldRecord(Slice key, Slice value);
  void DemoteLargestBucket();
  [[nodiscard]] std::size_t ResidentBytes() const;
  void EmitResidentBucket(Bucket& bucket, OutputCollector& out);
  void EmitSpilledBucket(Bucket& bucket, OutputCollector& out);

  int reducer_id_;
  const JobSpec& spec_;
  const JobOptions& options_;
  RuntimeEnv env_;
  bool values_are_states_;
  HashFamily family_{0x5eedf00dULL};
  std::vector<Bucket> buckets_;
  int spilled_count_ = 0;
};

}  // namespace opmr
