// Shared reduce-side plumbing: the runtime environment handed to every
// reducer implementation, the emission log that timestamps incremental
// answers (time-to-first-output is the paper's incremental-processing
// metric, Table III), grouped application of reduce functions over sorted
// streams, and adapters from shuffle items to record streams.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dfs/dfs.h"
#include "engine/job.h"
#include "engine/shuffle.h"
#include "fault/fault.h"
#include "metrics/phase_profiler.h"
#include "metrics/timeline.h"
#include "metrics/timeseries.h"
#include "storage/file_manager.h"
#include "storage/compressed_run.h"
#include "storage/merger.h"

namespace opmr {

// Timestamps every emitted answer relative to job start; the cumulative
// emission curve distinguishes batch output ("everything at the end") from
// pipelined output, and is what the Table III bench prints.
//
// Every reducer shares one log, so each calls Record() once per batch of
// rows (ReducerOutput::kLogBatch), not per row: the common path is one
// relaxed add on a cache line the reducers would otherwise pass back and
// forth.  The lock and the clock are taken only for the first emission and
// when the total crosses a multiple of kStride, which keeps the curve one
// point per stride and stamps trickling early answers on time.
class EmissionLog {
 public:
  static constexpr std::uint64_t kStride = 1024;

  explicit EmissionLog(const WallTimer* job_start)
      : job_start_(job_start), series_("emitted_records") {}

  void Record(std::uint64_t count = 1) {
    const std::uint64_t before =
        total_.fetch_add(count, std::memory_order_relaxed);
    if (before != 0 && before / kStride == (before + count) / kStride) return;
    // The clock is read under mu_, so points are non-decreasing in time; the
    // total only grows, so each locked load is at least the previous one.
    std::scoped_lock lock(mu_);
    const double now = job_start_->Seconds();
    if (first_emit_s_ < 0) first_emit_s_ = now;
    series_.Append(now, static_cast<double>(total()));
  }

  void Finish() {
    std::scoped_lock lock(mu_);
    series_.Append(job_start_->Seconds(), static_cast<double>(total()));
  }

  [[nodiscard]] double first_emit_seconds() const {
    std::scoped_lock lock(mu_);
    return first_emit_s_;
  }
  [[nodiscard]] std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const TimeSeries& series() const { return series_; }

 private:
  const WallTimer* job_start_;
  std::atomic<std::uint64_t> total_{0};
  mutable std::mutex mu_;
  double first_emit_s_ = -1.0;  // guarded by mu_
  TimeSeries series_;
};

// Everything a task needs from the runtime; plain non-owning pointers, all
// services outlive the tasks (owned by ClusterExecutor::Run's scope).
struct RuntimeEnv {
  Dfs* dfs = nullptr;
  FileManager* files = nullptr;
  MetricRegistry* metrics = nullptr;
  PhaseProfiler* profiler = nullptr;
  ShuffleService* shuffle = nullptr;
  TimelineRecorder* timeline = nullptr;
  EmissionLog* emissions = nullptr;
  const WallTimer* job_start = nullptr;
  FaultInjector* fault = nullptr;  // chaos plane; nullptr in clean runs
  // Resolved checkpoint directory (empty when checkpointing is off).
  std::filesystem::path checkpoint_dir;
};

// Writes one reducer's output into the DFS and logs emission times.  The
// first row is logged at once, so time-to-first-output keeps its meaning;
// later rows are logged in batches of kLogBatch, and Close() logs the rest.
class ReducerOutput final : public OutputCollector {
 public:
  // Well under EmissionLog::kStride, so the curve still gets its points.
  static constexpr std::uint64_t kLogBatch = 64;
  static_assert(kLogBatch * 8 <= EmissionLog::kStride);

  ReducerOutput(const RuntimeEnv& env, const std::string& dfs_file)
      : env_(env), writer_(env.dfs->Create(dfs_file)) {}

  void Emit(Slice key, Slice value) override {
    if (env_.fault != nullptr) env_.fault->OnReduceRecord(records_ + 1);
    writer_->AppendFrame(key, value);
    ++records_;
    if (++unlogged_ == kLogBatch || records_ == 1) LogEmissions();
  }

  void Close() {
    if (writer_ != nullptr) {
      writer_->Close();
      writer_.reset();
    }
    if (unlogged_ > 0) LogEmissions();
  }

  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  void LogEmissions() {
    env_.emissions->Record(unlogged_);
    unlogged_ = 0;
  }

  RuntimeEnv env_;
  std::unique_ptr<DfsFileWriter> writer_;
  std::uint64_t records_ = 0;
  std::uint64_t unlogged_ = 0;  // rows emitted but not yet logged
};

// Applies `fn(key, values)` to each group of consecutive equal keys in a
// sorted stream.  `fn` need not drain the iterator; remaining values of the
// group are skipped.  With `group_prefix` > 0, keys sharing their first
// `group_prefix` bytes form one group (secondary sort): `fn` receives the
// group's first full key and the values in full-key order.
void GroupedApply(RecordStream& stream,
                  const std::function<void(Slice, ValueIterator&)>& fn,
                  std::size_t group_prefix = 0);

// Builds the effective reduce function: the user's holistic reduce, or the
// aggregator fold (Init/Update over raw values, or assign/Merge over
// combined states) followed by Finalize.
std::function<void(Slice, ValueIterator&, OutputCollector&)> MakeReduceFn(
    const JobSpec& spec, bool values_are_states);

// Opens a ShuffleItem as a RecordStream: pushed chunks stream from memory,
// file segments stream from disk through `channel`.  The returned stream
// borrows `item` (for memory items), which must outlive it.
std::unique_ptr<RecordStream> OpenShuffleItem(const ShuffleItem& item,
                                              IoChannel channel);

// Spill-run factories: plain or OZ-compressed runs behind one interface,
// selected by JobOptions::compress_spills.
std::unique_ptr<RecordSink> NewSpillSink(bool compress,
                                         const std::filesystem::path& path,
                                         IoChannel channel);
std::unique_ptr<RecordStream> OpenSpillRun(bool compress,
                                           const std::filesystem::path& path,
                                           IoChannel channel);

}  // namespace opmr
