// Hybrid-hash grouping (§V reduce technique 1) for the hybrid-hash reducer
// and for the incremental reducers' spill files.
//
// Hybrid hash (Shapiro 1986, as cited by the paper) splits the key space
// into buckets with a fresh hash-family member per recursion level;
// buckets stay memory-resident until the budget is exceeded, at which point
// the largest resident bucket is demoted to disk and its future arrivals
// are appended straight to its file.  After input ends, resident buckets
// are reduced in memory and spilled buckets are processed recursively.
// It remains a blocking operation with I/O comparable to sort-merge —
// exactly the trade-off the paper states; the incremental paths beat it.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "engine/job.h"
#include "engine/key_table.h"
#include "engine/reduce_common.h"

namespace opmr {

// One level of hybrid-hash grouping.  Each bucket is a KeyTable: with an
// aggregator it folds states (and a demoted bucket's file holds states),
// without one it keeps every value.  A one-key bucket is never demoted:
// rehashing cannot split it, so it is handled in memory.
class HashGrouping {
 public:
  // `values_are_states`: added values are states (Merge), not raw values
  // (Init/Update); ignored without an aggregator.  `level` selects the
  // hash-family member; past kMaxLevel the constructor throws.
  HashGrouping(const Aggregator* aggregator, bool values_are_states,
               int level, std::size_t budget, const RuntimeEnv& env,
               bool compress);

  void Add(Slice key, Slice value);
  // Adds every record of a spill run.
  void AddRun(const std::filesystem::path& run);

  // Calls `emit(table, i)` once per key, with the key's state or value
  // list at entry i of `table`; spilled buckets are grouped again one
  // level down, and their files removed.
  void Finish(
      const std::function<void(const KeyTable& table, std::size_t i)>& emit);

 private:
  static constexpr int kBuckets = 32;
  static constexpr int kMaxLevel = 8;

  struct Bucket {
    KeyTable table;
    std::unique_ptr<RecordSink> spill;  // set once demoted
    std::filesystem::path spill_path;
  };

  // Demotes the largest resident bucket holding more than one key; false
  // if there is none.
  bool DemoteLargest();

  const HashFamily family_{0x5eedf00dULL};
  const Aggregator* aggregator_;
  bool values_are_states_;
  int level_;
  std::size_t budget_;
  RuntimeEnv env_;
  bool compress_;
  std::vector<Bucket> buckets_;
  std::uint64_t since_check_ = 0;
};

// The hybrid-hash reducer: groups reducer `reducer_id`'s whole shuffle feed,
// then reduces each group.  Returns the output record count.
std::uint64_t RunHybridHashReducer(int reducer_id, const JobSpec& spec,
                                   const JobOptions& options,
                                   const RuntimeEnv& env);

}  // namespace opmr
