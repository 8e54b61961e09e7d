// Streaming execution — the platform the paper's conclusion promises:
// "near real-time stream processing that obviates the need for data
// loading and returns pipelined answers as data arrives".
//
// A StreamingJob is a long-lived MapReduce query with no pre-loaded input:
// records are Ingest()ed as they arrive, the map function runs inline on
// the ingesting thread, and the emitted pairs are routed to R parallel
// reducer workers.  Each worker owns a queue, a thread and the batch
// runtime's IncrementalStateStore (engine/reduce_incremental.h): the same
// plain or hot-key §V states, spills, checkpoint images and exact finish
// as a batch incremental reducer.
//
// A worker's queue is one byte buffer of framed pairs, appended under the
// worker's lock: routing a pair allocates nothing.  Producers wake the
// worker once per batch (when the queue turns non-empty or reaches a
// batch of pairs), and the worker folds whole swapped-out buffers.  A
// routed pair reaches the live state within about 200 µs, or sooner;
// CollectSnapshot() and Recover() settle the workers without that wait.
// At any moment the live states can be queried:
//
//   StreamingJob job(query, options, /*reducers=*/4);
//   job.Ingest(record);               // any thread, any time
//   auto count = job.Query("u00042"); // live answer, current as of now
//   auto top = job.TopAnswers(10);    // live top-k by aggregate
//   auto all = job.Finish();          // drain, resolve spills, exact result
//
// Early emission works as in batch: an early_emit policy fires answers into
// the emission callback the moment their condition is met.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/options.h"
#include "engine/aggregators.h"
#include "engine/job.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"

namespace opmr {

struct StreamingOptions {
  // Per-worker byte budget for resident states; exceeding it spills
  // (plain mode) or demotes cold keys (hot-key mode).
  std::size_t worker_budget_bytes = 16u << 20;

  // Enable the Space-Saving hot-key optimization with this capacity per
  // worker (0 = plain incremental states).
  std::size_t hot_key_capacity = 0;

  // Bounded ingest queue per worker, in routed key/value pairs (at least
  // 1); Ingest blocks when the owning worker's queue is full — the
  // streaming analogue of HOP's back-pressure.
  std::size_t queue_capacity = 8192;

  // Fired from worker threads the moment `early_emit` approves a key.
  std::function<bool(Slice key, Slice state)> early_emit;
  std::function<void(Slice key, Slice value)> on_early_answer;

  bool compress_spills = false;

  // Periodic per-worker checkpoints of (state table, sketch, spill
  // manifest, ingest watermark); see CrashWorker()/Recover().  Intervals
  // count the records a worker has fully folded.  Incompatible with
  // early_emit (replayed records would duplicate early answers).
  CheckpointOptions checkpoint;

  // Serve-plane publication: every `snapshot_interval_records` ingested
  // records, the ingesting thread settles the workers and hands a
  // consistent job-wide CheckpointImage (watermark = records ingested) to
  // `publish_snapshot`.  Both must be set together.  Like recovery, this
  // assumes the single-ingest-thread contract — the settle happens on the
  // one thread that could otherwise be enqueueing.
  std::uint64_t snapshot_interval_records = 0;
  std::function<void(CheckpointImage)> publish_snapshot;
};

// A streaming query: map + aggregator (streaming needs the algebraic form;
// holistic reduces cannot produce answers before end-of-stream).
struct StreamingQuery {
  std::string name;
  MapFn map;
  std::shared_ptr<Aggregator> aggregator;
};

class StreamingJob {
 public:
  StreamingJob(StreamingQuery query, StreamingOptions options,
               int num_workers);
  ~StreamingJob();

  StreamingJob(const StreamingJob&) = delete;
  StreamingJob& operator=(const StreamingJob&) = delete;

  // Applies the map function to one arriving record and routes its output.
  // Blocks under back-pressure.  Throws after Finish().  The recovery
  // contract requires a single ingesting thread feeding records in a
  // deterministic, replayable order (a source offset — the Kafka model):
  // each record gets the next sequence number, and Recover() names the
  // sequence to re-ingest from.
  void Ingest(Slice record);

  // Live point lookup: the key's current aggregate, if its state is
  // resident right now (approximate in hot-key mode if parts were demoted).
  // After Finish(), answers come from the exact final results instead.
  [[nodiscard]] std::optional<std::string> Query(Slice key) const;

  // Live top-n answers by aggregate value (u64-decoded), largest first.
  // A snapshot of the resident states — the "pipelined answers" surface.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> TopAnswers(
      std::size_t n) const;

  // Total records ingested and key/value pairs routed so far.
  [[nodiscard]] std::uint64_t records_ingested() const;
  [[nodiscard]] std::uint64_t pairs_routed() const;
  [[nodiscard]] std::uint64_t early_answers() const;

  // Ends the stream: drains queues, resolves spilled partial states and
  // returns the exact final (key, value) results, sorted by key.
  // Idempotent — repeated calls return the same results.
  std::vector<std::pair<std::string, std::string>> Finish();

  // Settles every worker, then collects the resident states (plus sketch
  // summaries) of all workers into one image whose watermark is the ingest
  // sequence covered.  The serve plane's snapshot source; also usable
  // directly for a one-off consistent view.  Throws after Finish().
  [[nodiscard]] CheckpointImage CollectSnapshot();

  // --- fault injection & recovery (requires checkpoint.enabled) -------------

  // Simulates the loss of one worker: its queue, state table, sketch and
  // spill manifest are discarded, as a process crash would.  Checkpoints
  // and spill files on disk survive.
  void CrashWorker(int worker);

  // Restores every crashed worker from its latest valid checkpoint and
  // returns the ingest sequence to resume from: the caller re-Ingest()s its
  // source records AFTER that sequence (records_ingested() is rolled back
  // to it).  Healthy workers deduplicate the replay — a record they already
  // folded is skipped — so the final results match a crash-free run
  // exactly.
  std::uint64_t Recover();

  // Job-scoped counter value ("checkpoint.written", "stream.demotions",
  // "recovery.replay_records", ...); 0 for unknown names.
  [[nodiscard]] std::int64_t CounterValue(const std::string& name) const;

 private:
  class Worker;

  StreamingQuery query_;
  StreamingOptions options_;
  FileManager files_;
  MetricRegistry metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> records_{0};
  // After Recover(): sequences at or below this are replays of already-
  // ingested source records (counted into "recovery.replay_records").
  std::atomic<std::uint64_t> replay_until_{0};
  std::atomic<bool> finished_{false};
  std::vector<std::pair<std::string, std::string>> final_results_;
};

}  // namespace opmr
