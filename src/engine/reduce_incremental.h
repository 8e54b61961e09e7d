// Incremental hash reduction (§V reduce techniques 2 and 3) — the paper's
// primary contribution.
//
// IncrementalStateStore keeps one aggregator state per key and folds each
// arriving value in immediately; answers can be produced the moment the
// data needed for them has been seen (the early_emit policy), and final
// answers require only a finalize scan — no blocking merge.  When memory is
// short, the whole table is flushed to a run and the runs are re-aggregated
// at the end (states are mergeable by construction).
//
// With a hot-key capacity the store adds the frequent-items optimization: a
// Space-Saving sketch identifies hot keys online, exactly those keys keep
// their states pinned in memory, and evicted (cold) states are appended to
// a cold run.  Because state size is sublinear in the number of values
// aggregated, pinning hot keys instead of random keys minimizes spilled
// bytes (§V: "maintaining hot keys instead of random keys in memory results
// in less I/Os"), and hot keys' (approximate) answers are available as soon
// as all input has arrived — before any cold-file pass.
//
// The store is the one implementation of that state logic: the batch
// IncrementalHashReducer (both HashReduce::kIncremental and
// kHotKeyIncremental) and the streaming workers (src/stream) drive it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "engine/job.h"
#include "engine/reduce_common.h"
#include "engine/key_table.h"
#include "frequent/space_saving.h"

namespace opmr {

class IncrementalStateStore {
 public:
  struct Options {
    // Byte budget for resident states; exceeding it spills the table
    // (plain mode) or demotes the coldest keys (hot-key mode).
    std::size_t budget_bytes = 32ull << 20;
    // Space-Saving capacity; 0 = plain incremental states.
    std::size_t hot_key_capacity = 0;
    // Folded values are combiner states (Merge) rather than raw values.
    bool values_are_states = false;
    bool compress_spills = false;
    // Early answers: `on_early_answer(key, finalized)` fires once per key,
    // the first time `early_emit` approves its state.
    std::function<bool(Slice key, Slice state)> early_emit;
    std::function<void(Slice key, Slice value)> on_early_answer;
    // Counts demoted keys (optional).
    Counter* demotions = nullptr;
  };

  // Uses env.files and env.metrics; env.timeline (optional) gets a kMerge
  // interval per table spill.
  IncrementalStateStore(const Aggregator* aggregator, Options options,
                        const RuntimeEnv& env);

  // Folds one value into `key`'s state, fires its early answer if due, and
  // enforces the budget.  Checking after every fold makes the spill and
  // demotion sequence a deterministic function of fold order.
  void Fold(Slice key, Slice value) {
    if (sketch_ != nullptr) OfferToSketch(key);
    const std::size_t i = table_.Fold(key, value, options_.values_are_states);
    if (options_.early_emit && !table_.marked(i)) MaybeEmitEarly(i);
    if (table_.MemoryBytes() > options_.budget_bytes) EnforceBudget();
  }

  // The resident states; an entry's mark is its early answer.
  [[nodiscard]] const KeyTable& table() const noexcept { return table_; }
  // True once any state went to disk (a table spill or a demotion).
  [[nodiscard]] bool spilled() const noexcept { return !runs_.empty(); }

  // Appends the resident entries and the sketch summary to `image`; with
  // `with_manifest`, also every run and its committed byte count (the open
  // cold run is flushed first).
  void AppendImage(CheckpointImage* image, bool with_manifest);

  // Replaces all state with a checkpoint image's, truncating each run the
  // manifest names to its committed bytes (later appends belong to the
  // failed epoch).
  void Restore(const CheckpointImage& image);

  // Drops the resident state, the sketch and the run manifest, as a crash
  // would; the run files stay on disk.
  void Clear();

  // Emits the exact final (key, finalized) answers: a finalize scan when
  // nothing spilled, otherwise the table joins the runs and they are
  // re-aggregated through a HashGrouping.  Removes the runs.
  void Finish(const std::function<void(Slice key, Slice value)>& emit);

 private:
  void OfferToSketch(Slice key);
  void MaybeEmitEarly(std::size_t i);
  void EnforceBudget();
  void SpillTable();
  void Demote(Slice key);
  std::unique_ptr<RecordSink> NewRun(const char* tag);

  const Aggregator* aggregator_;
  Options options_;
  RuntimeEnv env_;
  std::size_t demote_above_;  // sketch evictions demote beyond ¾ budget

  KeyTable table_;
  std::unique_ptr<SpaceSaving> sketch_;
  std::vector<std::filesystem::path> runs_;
  std::unique_ptr<RecordSink> cold_;  // open cold run (hot-key mode)
  std::filesystem::path cold_path_;
  // Keys whose early answer fired and whose state has since left the table;
  // consulted only when a policy is set.
  std::unordered_set<std::string, TransparentStringHash, std::equal_to<>>
      answered_;
  std::string early_value_;
};

class IncrementalHashReducer {
 public:
  IncrementalHashReducer(int reducer_id, const JobSpec& spec,
                         const JobOptions& options, const RuntimeEnv& env);

  std::uint64_t Run();

 private:
  // Checkpoint plumbing (ckpt_ is null when checkpointing is off).
  // Prepare() resets stale images on a first attempt, or restores the
  // latest checkpoint and rewinds the shuffle feed on a retry; returns the
  // restored watermark (0 = start from scratch).
  std::uint64_t PrepareCheckpoint();
  void WriteCheckpoint(std::uint64_t watermark);

  int reducer_id_;
  const JobSpec& spec_;
  const JobOptions& options_;
  RuntimeEnv env_;
  std::optional<ReducerOutput> out_;  // opened by Run()
  IncrementalStateStore store_;
  std::uint64_t folded_ = 0;  // fold ordinal for the OnReduceFold fault site

  std::unique_ptr<CheckpointManager> ckpt_;
  std::map<std::uint32_t, std::uint64_t> feed_records_;  // map task -> records
};

}  // namespace opmr
