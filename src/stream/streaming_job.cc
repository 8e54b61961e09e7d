#include "stream/streaming_job.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "checkpoint/checkpoint.h"
#include "engine/map_task.h"  // PartitionOf
#include "engine/reduce_incremental.h"

namespace opmr {

// --- Worker --------------------------------------------------------------------

// Queue hand-off tuning.  A producer wakes the worker only when the queue
// turns non-empty or reaches kWakeBatch pairs; once awake, the worker lets
// the batch fill for at most kFillWait before it swaps the queue out.  So a
// queued pair is folded within about kFillWait of its arrival, or sooner:
// a full batch, Stop() and WaitIdle() (every snapshot and Recover()) cut
// the wait short.
constexpr std::size_t kWakeBatch = 256;
constexpr std::chrono::microseconds kFillWait{200};

// One reducer worker: a bounded byte queue of framed pairs
// ([u64 ingest_seq][u32 klen][u32 vlen][key][value]) feeding an incremental
// state table on a dedicated thread.  Producers append frames under the
// queue lock; the worker swaps the whole buffer out and parses it in place,
// handing back its emptied previous buffer, so the steady state allocates
// nothing.  The ingest sequence carried by every frame is the recovery
// watermark: checkpoints land on sequence boundaries, and after a restore
// any frame at or below the watermark is skipped.
class StreamingJob::Worker {
 public:
  Worker(const StreamingQuery* query, const StreamingOptions* options,
         FileManager* files, MetricRegistry* metrics, int id,
         const std::filesystem::path& ckpt_dir)
      : query_(query),
        options_(options),
        id_(id),
        store_(query->aggregator.get(), StoreOptions(metrics),
               StoreEnv(files, metrics)),
        thread_([this](std::stop_token st) { Run(st); }) {
    if (options_->checkpoint.enabled) {
      ckpt_ = std::make_unique<CheckpointManager>(ckpt_dir, query_->name, id_,
                                                  options_->checkpoint,
                                                  metrics);
      ckpt_->Reset();  // a new stream never restores a previous job's images
    }
  }

  ~Worker() { Stop(); }

  // Appends one framed pair; blocks while the queue holds queue_capacity
  // pairs.
  void Enqueue(std::uint64_t seq, Slice key, Slice value) {
    std::unique_lock lock(queue_mu_);
    space_cv_.wait(lock, [&] {
      return queued_pairs_ < options_->queue_capacity || closing_;
    });
    if (closing_) {
      throw std::logic_error("StreamingJob: ingest after Finish()");
    }
    char header[16];
    EncodeU64(header, seq);
    EncodeU32(header + 8, static_cast<std::uint32_t>(key.size()));
    EncodeU32(header + 12, static_cast<std::uint32_t>(value.size()));
    queue_.append(header, sizeof(header));
    queue_.append(key.data(), key.size());
    queue_.append(value.data(), value.size());
    const std::size_t queued = ++queued_pairs_;
    lock.unlock();
    if (queued == 1 || queued == wake_batch_) data_cv_.notify_one();
  }

  std::optional<std::string> Query(Slice key) const {
    std::scoped_lock lock(state_mu_);
    const KeyTable& table = store_.table();
    const std::size_t i = table.Find(key);
    if (i == KeyTable::npos) return std::nullopt;
    std::string finalized;
    query_->aggregator->Finalize(table.state(i), &finalized);
    return finalized;
  }

  void CollectTop(std::vector<std::pair<std::string, std::string>>* out) const {
    std::scoped_lock lock(state_mu_);
    std::string finalized;
    const KeyTable& table = store_.table();
    for (std::size_t i = 0; i < table.size(); ++i) {
      query_->aggregator->Finalize(table.state(i), &finalized);
      out->emplace_back(table.key(i).ToString(), finalized);
    }
  }

  [[nodiscard]] std::uint64_t pairs() const {
    return pairs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t early_answers() const {
    return early_.load(std::memory_order_relaxed);
  }

  // Blocks until the queue is drained and the worker thread is idle, so
  // cur_seq_ and the state table are final for the records ingested so far.
  // A waiter cuts the worker's batch-fill wait short.
  void WaitIdle() {
    std::unique_lock lock(queue_mu_);
    ++idle_waiters_;
    if (queued_pairs_ > 0) data_cv_.notify_one();
    idle_cv_.wait(lock, [&] { return queued_pairs_ == 0 && !busy_; });
    --idle_waiters_;
  }

  // Appends this worker's resident states and sketch summary to a job-wide
  // snapshot image.  Call after WaitIdle() for a consistent view.
  void AppendImage(CheckpointImage* image) {
    std::scoped_lock lock(state_mu_);
    store_.AppendImage(image, /*with_manifest=*/false);
  }

  // Simulates losing this worker's process: in-flight queue, resident
  // state, sketch and spill manifest are discarded.  On-disk checkpoints
  // and spill files survive (they are the recovery source).
  void Crash() {
    std::scoped_lock lock(queue_mu_, state_mu_);
    queue_.clear();
    queued_pairs_ = 0;
    store_.Clear();
    pairs_.store(0, std::memory_order_relaxed);
    cur_seq_ = 0;
    crashed_ = true;
    space_cv_.notify_all();
  }

  // Restores a crashed worker from its latest valid checkpoint, returning
  // the restored watermark (0 = no checkpoint, refold everything).  For a
  // healthy worker, arms replay deduplication (frames at or below the
  // current sequence are skipped) and returns nullopt.
  std::optional<std::uint64_t> RestoreIfCrashed() {
    std::scoped_lock lock(queue_mu_, state_mu_);
    if (!crashed_) {
      restore_watermark_ = cur_seq_;
      return std::nullopt;
    }
    std::uint64_t watermark = 0;
    if (auto image = ckpt_->LoadLatest(); image.has_value()) {
      store_.Restore(*image);
      if (!image->feeds.empty()) {
        pairs_.store(image->feeds.front().second, std::memory_order_relaxed);
      }
      watermark = image->watermark;
    }
    restore_watermark_ = watermark;
    cur_seq_ = watermark;
    crashed_ = false;
    return watermark;
  }

  // Drains the queue, stops the thread, resolves spills, and appends the
  // exact final answers.
  void Finish(std::vector<std::pair<std::string, std::string>>* out) {
    Stop();

    std::scoped_lock lock(state_mu_);
    store_.Finish([&](Slice key, Slice value) {
      out->emplace_back(key.ToString(), value.ToString());
    });
  }

 private:
  // The store's services: spill files and I/O counters (no timeline).
  static RuntimeEnv StoreEnv(FileManager* files, MetricRegistry* metrics) {
    RuntimeEnv env;
    env.files = files;
    env.metrics = metrics;
    return env;
  }

  IncrementalStateStore::Options StoreOptions(MetricRegistry* metrics) {
    IncrementalStateStore::Options store;
    store.budget_bytes = options_->worker_budget_bytes;
    store.hot_key_capacity = options_->hot_key_capacity;
    store.compress_spills = options_->compress_spills;
    store.early_emit = options_->early_emit;
    store.on_early_answer = [this](Slice key, Slice value) {
      early_.fetch_add(1, std::memory_order_relaxed);
      if (options_->on_early_answer) options_->on_early_answer(key, value);
    };
    store.demotions = metrics->Get("stream.demotions");
    return store;
  }

  void Stop() {
    {
      std::scoped_lock lock(queue_mu_);
      closing_ = true;
    }
    data_cv_.notify_one();
    space_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void Run(const std::stop_token& /*st*/) {
    std::string batch;
    while (true) {
      batch.clear();  // keeps its capacity for the next swap
      {
        std::unique_lock lock(queue_mu_);
        busy_ = false;
        if (idle_waiters_ > 0) idle_cv_.notify_all();
        data_cv_.wait(lock, [&] { return queued_pairs_ > 0 || closing_; });
        if (queued_pairs_ == 0) return;  // closing with nothing left
        data_cv_.wait_for(lock, kFillWait, [&] {
          return queued_pairs_ >= wake_batch_ || closing_ ||
                 idle_waiters_ > 0;
        });
        batch.swap(queue_);
        queued_pairs_ = 0;
        busy_ = true;
      }
      space_cv_.notify_all();  // ingest may proceed

      std::scoped_lock lock(state_mu_);
      for (std::size_t at = 0; at < batch.size();) {
        const char* frame = batch.data() + at;
        const std::uint32_t klen = DecodeU32(frame + 8);
        const std::uint32_t vlen = DecodeU32(frame + 12);
        const std::size_t framed_bytes = 16 + std::size_t{klen} + vlen;
        FoldFramed(DecodeU64(frame), Slice(frame + 16, klen),
                   Slice(frame + 16 + klen, vlen), framed_bytes);
        at += framed_bytes;
      }
    }
  }

  void FoldFramed(std::uint64_t seq, Slice key, Slice value,
                  std::size_t framed_bytes) {
    // Frames racing a crash die with the worker; frames at or below the
    // restore watermark were already folded before it.
    if (crashed_ || seq <= restore_watermark_) return;
    if (seq > cur_seq_) {
      // The previous sequence is complete (single-threaded ordered ingest:
      // all of its pairs precede this frame in the queue) — a consistent
      // point to checkpoint.
      if (ckpt_ != nullptr && cur_seq_ > 0) {
        ckpt_->OnProgress(1, 0);
        if (ckpt_->Due()) WriteCheckpointLocked(cur_seq_);
      }
      cur_seq_ = seq;
    }
    store_.Fold(key, value);
    pairs_.fetch_add(1, std::memory_order_relaxed);
    if (ckpt_ != nullptr) ckpt_->OnProgress(0, framed_bytes);
  }

  void WriteCheckpointLocked(std::uint64_t watermark) {
    CheckpointImage image;
    image.watermark = watermark;
    image.feeds.emplace_back(static_cast<std::uint32_t>(id_),
                             pairs_.load(std::memory_order_relaxed));
    store_.AppendImage(&image, /*with_manifest=*/true);
    ckpt_->Write(&image);
  }

  const StreamingQuery* query_;
  const StreamingOptions* options_;
  int id_;

  // Queue state (queue_mu_).  data_cv_ wakes the worker, space_cv_ the
  // producers blocked on a full queue, idle_cv_ the WaitIdle() callers.
  std::mutex queue_mu_;
  std::condition_variable data_cv_;
  std::condition_variable space_cv_;
  std::condition_variable idle_cv_;
  std::string queue_;  // framed pairs, in arrival order
  std::size_t queued_pairs_ = 0;
  const std::size_t wake_batch_ =
      std::min(kWakeBatch, options_->queue_capacity);
  std::size_t idle_waiters_ = 0;
  bool closing_ = false;
  bool busy_ = false;  // worker thread is folding a swapped-out batch

  mutable std::mutex state_mu_;
  IncrementalStateStore store_;
  std::unique_ptr<CheckpointManager> ckpt_;

  // Recovery state (state_mu_): last sequence this worker has seen, the
  // watermark below which replayed frames are skipped, and the crash flag.
  std::uint64_t cur_seq_ = 0;
  std::uint64_t restore_watermark_ = 0;
  bool crashed_ = false;

  std::atomic<std::uint64_t> pairs_{0};
  std::atomic<std::uint64_t> early_{0};

  std::jthread thread_;  // last member: joins before the rest destructs
};

// --- StreamingJob ----------------------------------------------------------------

StreamingJob::StreamingJob(StreamingQuery query, StreamingOptions options,
                           int num_workers)
    : query_(std::move(query)),
      options_(std::move(options)),
      files_(FileManager::CreateTemp("opmr-stream")) {
  if (!query_.map) {
    throw std::invalid_argument("StreamingQuery: map function required");
  }
  if (query_.aggregator == nullptr) {
    throw std::invalid_argument(
        "StreamingQuery: streaming requires an Aggregator (holistic reduce "
        "functions cannot answer before end-of-stream)");
  }
  if (num_workers <= 0) {
    throw std::invalid_argument("StreamingJob: need at least one worker");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument(
        "StreamingJob: queue_capacity must be at least one pair");
  }
  std::filesystem::path ckpt_dir;
  if (options_.checkpoint.enabled) {
    if (options_.early_emit) {
      throw std::invalid_argument(
          "StreamingJob: checkpointing is incompatible with early_emit "
          "(replayed records would duplicate early answers)");
    }
    if (options_.checkpoint.interval_records == 0 &&
        options_.checkpoint.interval_bytes == 0 &&
        options_.checkpoint.interval_seconds <= 0.0) {
      throw std::invalid_argument(
          "StreamingJob: checkpointing enabled without an interval");
    }
    ckpt_dir = options_.checkpoint.dir.empty()
                   ? files_.NewDir("checkpoints")
                   : std::filesystem::path(options_.checkpoint.dir);
  }
  if ((options_.snapshot_interval_records > 0) !=
      static_cast<bool>(options_.publish_snapshot)) {
    throw std::invalid_argument(
        "StreamingJob: snapshot publication requires both "
        "snapshot_interval_records and publish_snapshot");
  }
  workers_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(&query_, &options_, &files_,
                                                &metrics_, w, ckpt_dir));
  }
}

StreamingJob::~StreamingJob() {
  try {
    if (!finished_.load()) Finish();
  } catch (...) {
    // Destructor must not throw; spills are cleaned by FileManager anyway.
  }
}

void StreamingJob::Ingest(Slice record) {
  if (finished_.load(std::memory_order_relaxed)) {
    throw std::logic_error("StreamingJob: ingest after Finish()");
  }
  // The record's sequence number travels with every routed pair; it is the
  // watermark currency of checkpoints and replay deduplication.
  const std::uint64_t seq = records_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (seq <= replay_until_.load(std::memory_order_relaxed)) {
    metrics_.Get(kReplayRecords)->Increment();
  }
  // Local class: routes map output to the owning worker as framed pairs
  // (local classes of member functions share the class's access rights).
  class RoutingCollector final : public OutputCollector {
   public:
    RoutingCollector(StreamingJob* job, std::uint64_t seq)
        : job_(job), seq_(seq) {}
    void Emit(Slice key, Slice value) override {
      const auto w =
          PartitionOf(key, static_cast<int>(job_->workers_.size()));
      job_->workers_[w]->Enqueue(seq_, key, value);
    }

   private:
    StreamingJob* job_;
    std::uint64_t seq_;
  } collector(this, seq);
  query_.map(record, collector);
  if (options_.snapshot_interval_records > 0 &&
      seq % options_.snapshot_interval_records == 0) {
    // The publish runs on the ingesting thread: the stream stalls for the
    // settle + serialize, which is exactly the perturbation the serving
    // ablation measures.
    options_.publish_snapshot(CollectSnapshot());
  }
}

CheckpointImage StreamingJob::CollectSnapshot() {
  if (finished_.load(std::memory_order_relaxed)) {
    throw std::logic_error("StreamingJob: snapshot after Finish()");
  }
  for (auto& worker : workers_) worker->WaitIdle();
  CheckpointImage image;
  image.watermark = records_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) worker->AppendImage(&image);
  return image;
}

std::optional<std::string> StreamingJob::Query(Slice key) const {
  if (finished_.load(std::memory_order_acquire)) {
    // Serve from the exact, key-sorted final results.
    const auto it = std::lower_bound(
        final_results_.begin(), final_results_.end(), key.view(),
        [](const auto& row, std::string_view want) { return row.first < want; });
    if (it != final_results_.end() && it->first == key.view()) {
      return it->second;
    }
    return std::nullopt;
  }
  const auto w = PartitionOf(key, static_cast<int>(workers_.size()));
  return workers_[w]->Query(key);
}

std::vector<std::pair<std::string, std::string>> StreamingJob::TopAnswers(
    std::size_t n) const {
  std::vector<std::pair<std::string, std::string>> all;
  for (const auto& worker : workers_) worker->CollectTop(&all);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    const std::uint64_t av =
        a.second.size() == 8 ? DecodeU64(a.second.data()) : 0;
    const std::uint64_t bv =
        b.second.size() == 8 ? DecodeU64(b.second.data()) : 0;
    if (av != bv) return av > bv;
    return a.first < b.first;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

std::uint64_t StreamingJob::records_ingested() const {
  return records_.load(std::memory_order_relaxed);
}

std::uint64_t StreamingJob::pairs_routed() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->pairs();
  return total;
}

std::uint64_t StreamingJob::early_answers() const {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) total += worker->early_answers();
  return total;
}

std::vector<std::pair<std::string, std::string>> StreamingJob::Finish() {
  if (finished_.exchange(true)) return final_results_;
  for (auto& worker : workers_) worker->Finish(&final_results_);
  std::sort(final_results_.begin(), final_results_.end());
  return final_results_;
}

void StreamingJob::CrashWorker(int worker) {
  if (!options_.checkpoint.enabled) {
    throw std::logic_error(
        "StreamingJob::CrashWorker: checkpointing is not enabled, the crash "
        "would be unrecoverable");
  }
  if (worker < 0 || worker >= static_cast<int>(workers_.size())) {
    throw std::out_of_range("StreamingJob::CrashWorker: no such worker");
  }
  workers_[static_cast<std::size_t>(worker)]->Crash();
}

std::uint64_t StreamingJob::Recover() {
  if (!options_.checkpoint.enabled) {
    throw std::logic_error(
        "StreamingJob::Recover: checkpointing is not enabled");
  }
  if (finished_.load(std::memory_order_relaxed)) {
    throw std::logic_error("StreamingJob::Recover: stream already finished");
  }
  // Settle every worker first: a healthy worker's current sequence becomes
  // its replay-dedup watermark, so it must be final before we read it.
  for (auto& worker : workers_) worker->WaitIdle();
  const std::uint64_t ingested = records_.load(std::memory_order_relaxed);
  std::uint64_t resume = ingested;
  bool any_crashed = false;
  for (auto& worker : workers_) {
    if (auto watermark = worker->RestoreIfCrashed(); watermark.has_value()) {
      any_crashed = true;
      resume = std::min(resume, *watermark);
    }
  }
  if (!any_crashed) return ingested;
  // Roll the ingest sequence back: the caller re-Ingest()s its source from
  // `resume` on, and sequences up to `ingested` count as replay.
  replay_until_.store(ingested, std::memory_order_relaxed);
  records_.store(resume, std::memory_order_relaxed);
  return resume;
}

std::int64_t StreamingJob::CounterValue(const std::string& name) const {
  return metrics_.Value(name);
}

}  // namespace opmr
