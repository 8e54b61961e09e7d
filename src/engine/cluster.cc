#include "engine/cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "checkpoint/checkpoint.h"
#include "common/rng.h"
#include "coord/member.h"
#include "engine/map_task.h"
#include "engine/reduce_hash.h"
#include "engine/reduce_incremental.h"
#include "engine/reduce_sortmerge.h"
#include "engine/shuffle_remote.h"
#include "fault/fault.h"
#include "net/transport.h"

namespace opmr {

namespace {

// Installs the chaos injector as the process-global I/O hook for the
// duration of one Run(); clean runs install nothing and pay nothing.
class IoFaultHookGuard {
 public:
  explicit IoFaultHookGuard(IoFaultHook* hook) : installed_(hook != nullptr) {
    if (installed_) SetIoFaultHook(hook);
  }
  ~IoFaultHookGuard() {
    if (installed_) SetIoFaultHook(nullptr);
  }
  IoFaultHookGuard(const IoFaultHookGuard&) = delete;
  IoFaultHookGuard& operator=(const IoFaultHookGuard&) = delete;

 private:
  bool installed_;
};

// Same pattern for the wire's fault seam (conn_drop / net_stall points).
class NetFaultHookGuard {
 public:
  explicit NetFaultHookGuard(net::NetFaultHook* hook)
      : installed_(hook != nullptr) {
    if (installed_) net::SetNetFaultHook(hook);
  }
  ~NetFaultHookGuard() {
    if (installed_) net::SetNetFaultHook(nullptr);
  }
  NetFaultHookGuard(const NetFaultHookGuard&) = delete;
  NetFaultHookGuard& operator=(const NetFaultHookGuard&) = delete;

 private:
  bool installed_;
};

// Shuts a per-run transport down at scope exit — joining its I/O threads
// before the ShuffleServer / ShuffleService they call into are destroyed.
class TransportShutdownGuard {
 public:
  ~TransportShutdownGuard() {
    if (transport != nullptr) transport->Shutdown();
  }
  net::Transport* transport = nullptr;
};

// Clears the per-run eviction callback at scope exit, before the
// ShuffleClient it captures is destroyed.
class CoordRunGuard {
 public:
  ~CoordRunGuard() {
    if (client != nullptr) client->SetOnEvicted({});
  }
  coord::CoordClient* client = nullptr;
};

// RAII slot leases against the (optional) multi-job scheduler hooks; with
// no hooks installed both are free no-ops.  Acquire may block until the
// shared pool grants a slot.
class MapSlotLease {
 public:
  explicit MapSlotLease(const SchedHooks* hooks) : hooks_(hooks) {
    if (hooks_ != nullptr && hooks_->acquire_map_slot) {
      hooks_->acquire_map_slot();
    }
  }
  ~MapSlotLease() {
    if (hooks_ != nullptr && hooks_->release_map_slot) {
      hooks_->release_map_slot();
    }
  }
  MapSlotLease(const MapSlotLease&) = delete;
  MapSlotLease& operator=(const MapSlotLease&) = delete;

 private:
  const SchedHooks* hooks_;
};

class ReduceSlotLease {
 public:
  explicit ReduceSlotLease(const SchedHooks* hooks) : hooks_(hooks) {
    if (hooks_ != nullptr && hooks_->acquire_reduce_slot) {
      hooks_->acquire_reduce_slot();
    }
  }
  ~ReduceSlotLease() {
    if (hooks_ != nullptr && hooks_->release_reduce_slot) {
      hooks_->release_reduce_slot();
    }
  }
  ReduceSlotLease(const ReduceSlotLease&) = delete;
  ReduceSlotLease& operator=(const ReduceSlotLease&) = delete;

 private:
  const SchedHooks* hooks_;
};

}  // namespace

// --- BlockScheduler ----------------------------------------------------------

BlockScheduler::BlockScheduler(std::vector<BlockInfo> blocks, int num_nodes)
    : blocks_(std::move(blocks)),
      taken_(blocks_.size(), false),
      by_node_(num_nodes) {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    for (int n : blocks_[i].replica_nodes) {
      if (n >= 0 && n < num_nodes) by_node_[n].push_back(i);
    }
  }
}

std::optional<BlockInfo> BlockScheduler::Next(int node, bool* was_local) {
  std::scoped_lock lock(mu_);
  if (node >= 0 && node < static_cast<int>(by_node_.size())) {
    for (std::size_t idx : by_node_[node]) {
      if (!taken_[idx]) {
        taken_[idx] = true;
        ++local_count_;
        *was_local = true;
        return blocks_[idx];
      }
    }
  }
  while (next_any_ < blocks_.size() && taken_[next_any_]) ++next_any_;
  if (next_any_ >= blocks_.size()) return std::nullopt;
  taken_[next_any_] = true;
  *was_local = false;
  return blocks_[next_any_];
}

int BlockScheduler::local_count() const {
  std::scoped_lock lock(mu_);
  return local_count_;
}

// --- ClusterExecutor ---------------------------------------------------------

ClusterExecutor::ClusterExecutor(Dfs* dfs, FileManager* files,
                                 MetricRegistry* metrics,
                                 ClusterOptions options)
    : dfs_(dfs), files_(files), metrics_(metrics), cluster_(options) {}

void ClusterExecutor::Validate(const JobSpec& spec,
                               const JobOptions& options) const {
  if (!spec.map) throw std::invalid_argument("JobSpec: map function required");
  if (!spec.reduce && !spec.has_aggregator()) {
    throw std::invalid_argument(
        "JobSpec: a reduce function or an aggregator is required");
  }
  if (spec.num_reducers <= 0) {
    throw std::invalid_argument("JobSpec: num_reducers must be positive");
  }
  if (options.group_by == GroupBy::kHash &&
      options.hash_reduce != HashReduce::kHybridHash &&
      !spec.has_aggregator()) {
    throw std::invalid_argument(
        "incremental hash reducers require an Aggregator; holistic reduce "
        "functions must use kHybridHash or kSortMerge");
  }
  if (options.group_by == GroupBy::kHash &&
      options.hash_reduce == HashReduce::kHotKeyIncremental &&
      options.hot_key_capacity == 0) {
    throw std::invalid_argument("kHotKeyIncremental needs hot_key_capacity > 0");
  }
  if (options.snapshot_interval > 0.0 &&
      options.group_by != GroupBy::kSortMerge) {
    throw std::invalid_argument(
        "snapshots are a MapReduce Online (sort-merge) mechanism");
  }
  if (options.merge_factor < 2) {
    throw std::invalid_argument("merge_factor must be at least 2");
  }
  if (spec.grouping_prefix > 0 &&
      (options.group_by != GroupBy::kSortMerge || spec.has_aggregator())) {
    throw std::invalid_argument(
        "secondary sort (grouping_prefix) requires the sort-merge runtime "
        "and a holistic reduce function");
  }
  if (cluster_.max_task_attempts < 1) {
    throw std::invalid_argument("max_task_attempts must be at least 1");
  }
  if (options.checkpoint.enabled) {
    if (options.group_by != GroupBy::kHash ||
        options.hash_reduce != HashReduce::kIncremental) {
      throw std::invalid_argument(
          "checkpointing requires the incremental hash runtime (group_by == "
          "kHash, hash_reduce == kIncremental): only per-key aggregator "
          "state can be snapshotted and resumed");
    }
    if (options.early_emit) {
      throw std::invalid_argument(
          "checkpointing is incompatible with early_emit: answers emitted "
          "before a failure cannot be recalled, so a restored attempt would "
          "duplicate them");
    }
    if (options.checkpoint.retain < 1) {
      throw std::invalid_argument("checkpoint.retain must be at least 1");
    }
    if (options.checkpoint.interval_records == 0 &&
        options.checkpoint.interval_bytes == 0 &&
        options.checkpoint.interval_seconds <= 0.0) {
      throw std::invalid_argument(
          "checkpointing enabled without an interval: set interval_records, "
          "interval_bytes, or interval_seconds");
    }
  }
  if (cluster_.max_task_attempts > 1 && options.snapshot_interval > 0.0) {
    throw std::invalid_argument(
        "task retries with snapshots are unsupported: a re-executed reducer "
        "would collide with snapshot files already published by the failed "
        "attempt");
  }
  if (cluster_.role != WorkerRole::kAll &&
      cluster_.shuffle_transport == nullptr) {
    throw std::invalid_argument(
        "a split worker role (kMapOnly / kReduceOnly) requires a "
        "shuffle_transport to reach the other group");
  }
  if (cluster_.map_partition_count < 1 || cluster_.map_partition_index < 0 ||
      cluster_.map_partition_index >= cluster_.map_partition_count) {
    throw std::invalid_argument(
        "map partition must satisfy 0 <= map_partition_index < "
        "map_partition_count");
  }
  if (cluster_.map_partition_count > 1 &&
      cluster_.role != WorkerRole::kMapOnly) {
    throw std::invalid_argument(
        "map_partition_count > 1 splits the map group across processes and "
        "requires role == kMapOnly (the reduce group sees the full task "
        "count via MapDone frames)");
  }
}

void ClusterExecutor::RetryBackoff(int attempt, std::uint64_t salt) const {
  if (cluster_.retry_backoff_base_ms <= 0.0) return;
  double ms = cluster_.retry_backoff_base_ms *
              std::pow(2.0, std::max(0, attempt - 1));
  ms = std::min(ms, cluster_.retry_backoff_max_ms);
  // Deterministic jitter in [0.5, 1): decorrelates retries of tasks that
  // failed together (e.g. a node-wide fault) without sacrificing
  // reproducibility.
  Rng rng(salt * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(attempt));
  ms *= 0.5 + 0.5 * rng.NextDouble();
  metrics_->Get(kRetryBackoffMs)->Add(static_cast<std::int64_t>(ms));
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

JobResult ClusterExecutor::Run(const JobSpec& spec, const JobOptions& options) {
  Validate(spec, options);

  FaultInjector* fault = cluster_.fault_injector;
  IoFaultHookGuard hook_guard(fault);
  NetFaultHookGuard net_hook_guard(fault);

  const WorkerRole role = cluster_.role;
  const bool run_maps = role != WorkerRole::kReduceOnly;
  const bool run_reducers = role != WorkerRole::kMapOnly;
  net::Transport* transport = cluster_.shuffle_transport;

  // Snapshot before replica filtering so faults injected during scheduling
  // setup are part of this job's counter delta.
  const auto counters_before = metrics_->Snapshot();

  auto blocks = dfs_->ListBlocks(spec.input_file);
  for (const auto& extra : spec.extra_inputs) {
    const auto more = dfs_->ListBlocks(extra);
    blocks.insert(blocks.end(), more.begin(), more.end());
  }
  if (fault != nullptr) {
    // Replica loss degrades locality metadata before scheduling; the block
    // data itself survives (the scheduler falls back to remote reads).
    for (auto& block : blocks) {
      fault->FilterReplicas(&block.replica_nodes, block.block_id);
    }
  }
  // A map task's id is its block's index in the full listing, whatever
  // order the slots claim blocks in, so a seeded fault plan keyed by task
  // id hits the same block in every run.  In a multi-worker map group each
  // sibling filters the listing down to its partition but keeps these ids,
  // so they never collide on the shared reduce side.
  const int num_maps = static_cast<int>(blocks.size());
  std::map<std::uint64_t, int> task_id_of_block;
  for (int i = 0; i < num_maps; ++i) {
    task_id_of_block[blocks[i].block_id] = i;
  }
  if (cluster_.map_partition_count > 1) {
    std::vector<BlockInfo> mine;
    for (int i = 0; i < num_maps; ++i) {
      if (i % cluster_.map_partition_count == cluster_.map_partition_index) {
        mine.push_back(std::move(blocks[i]));
      }
    }
    blocks = std::move(mine);
  }
  const int num_reducers = spec.num_reducers;

  WallTimer job_start;
  PhaseProfiler profiler;
  TimelineRecorder timeline;
  EmissionLog emissions(&job_start);
  ShuffleService shuffle(num_maps, num_reducers, metrics_,
                         options.push_queue_chunks);

  const bool checkpoint_enabled = options.checkpoint.enabled;
  const bool reduce_retry_enabled = cluster_.max_task_attempts > 1;
  if (run_reducers) {
    if (checkpoint_enabled) {
      // Retain every consumed shuffle item (spilling past the budget) until
      // the consuming reducer's checkpoints cover it — reduce recovery works
      // even for pipelined (push) feeds.
      shuffle.EnableCheckpointReplay(files_->NewDir("shuffle_retain"),
                                     options.checkpoint.retain_budget_bytes);
    } else if (reduce_retry_enabled) {
      // Classic Hadoop-style replay: file descriptors only.  A push job
      // still runs, but a reduce failure after a pushed chunk was consumed
      // becomes a structured Table III error instead of a recovery.
      shuffle.EnableReplay();
    }
    if (cluster_.shuffle_idle_timeout_s > 0.0) {
      shuffle.SetIdleTimeout(cluster_.shuffle_idle_timeout_s);
    }
  }
  if (fault != nullptr) {
    shuffle.SetFetchProbe([fault](int reducer, int map_task) {
      fault->OnShuffleFetch(reducer, map_task);
    });
  }

  // Shuffle endpoint selection.  Without a transport the map side calls
  // the service directly (the seed's path, zero overhead).  With one, the
  // reduce side serves frames and the map side sends them — over loopback
  // (same process) or sockets (split worker groups).
  ShuffleMapEndpoint* endpoint = &shuffle;
  std::unique_ptr<ShuffleServer> shuffle_server;
  std::unique_ptr<ShuffleClient> shuffle_client;
  TransportShutdownGuard transport_guard;
  if (transport != nullptr) {
    transport_guard.transport = transport;
    if (run_reducers) {
      shuffle_server = std::make_unique<ShuffleServer>(
          transport, &shuffle, files_, metrics_,
          /*merge_client_wire_stats=*/role == WorkerRole::kReduceOnly);
      shuffle_server->SetAuthSecret(cluster_.shuffle_secret);
      shuffle_server->Start();
    }
    if (run_maps) {
      ShuffleClient::Options client_options;
      client_options.job = spec.name;
      client_options.num_map_tasks = num_maps;
      client_options.num_reducers = num_reducers;
      client_options.push_queue_chunks = options.push_queue_chunks;
      client_options.shared_fs = cluster_.shuffle_shared_fs;
      client_options.worker = cluster_.worker_id;
      client_options.auth = cluster_.shuffle_secret;
      shuffle_client = std::make_unique<ShuffleClient>(
          transport, metrics_, std::move(client_options));
      endpoint = shuffle_client.get();
    }
  }

  // Membership wiring, per run: an evicted-and-rejoined map worker replays
  // its delivered-but-unacked shuffle window (the reduce side may have
  // dropped the tail with the flap).
  CoordRunGuard coord_guard;
  if (cluster_.coord_client != nullptr && shuffle_client != nullptr) {
    ShuffleClient* client = shuffle_client.get();
    cluster_.coord_client->SetOnEvicted([client] { client->ReplayUnacked(); });
    coord_guard.client = cluster_.coord_client;
  }

  RuntimeEnv env;
  env.dfs = dfs_;
  env.files = files_;
  env.metrics = metrics_;
  env.profiler = &profiler;
  env.shuffle = &shuffle;
  env.timeline = &timeline;
  env.emissions = &emissions;
  env.job_start = &job_start;
  env.fault = fault;
  if (checkpoint_enabled) {
    env.checkpoint_dir = options.checkpoint.dir.empty()
                             ? files_->NewDir("checkpoints")
                             : std::filesystem::path(options.checkpoint.dir);
  }

  BlockScheduler scheduler(blocks, dfs_->options().num_nodes);

  std::mutex failure_mu;
  std::exception_ptr first_failure;
  auto record_failure = [&](std::exception_ptr e) {
    std::scoped_lock lock(failure_mu);
    if (!first_failure) first_failure = e;
  };

  std::atomic<std::uint64_t> input_records{0};
  std::atomic<std::uint64_t> map_output_records{0};
  std::atomic<std::uint64_t> output_records{0};
  std::vector<std::uint64_t> per_reducer_records(num_reducers, 0);
  std::atomic<bool> maps_failed{false};

  std::atomic<int> reducers_completed{0};

  // --- Reducer threads (start immediately: reducers shuffle while maps run).
  std::vector<std::jthread> reducer_threads;
  reducer_threads.reserve(run_reducers ? num_reducers : 0);
  for (int r = 0; run_reducers && r < num_reducers; ++r) {
    reducer_threads.emplace_back([&, r] {
      // Under a multi-job scheduler the whole reducer lifetime occupies one
      // shared reduce slot (push-mode map output destined here simply
      // queues or diverts to files while the lease waits).
      ReduceSlotLease slot(cluster_.sched_hooks);
      auto run_reducer = [&]() -> std::uint64_t {
        if (options.group_by == GroupBy::kSortMerge) {
          SortMergeReducer reducer(r, spec, options, env);
          return reducer.Run();
        }
        switch (options.hash_reduce) {
          case HashReduce::kHybridHash:
            return RunHybridHashReducer(r, spec, options, env);
          case HashReduce::kIncremental:
          case HashReduce::kHotKeyIncremental: {
            IncrementalHashReducer reducer(r, spec, options, env);
            return reducer.Run();
          }
        }
        return 0;  // unreachable
      };
      // Attempt loop: a failed attempt's partial reducer state (hash
      // tables, spill runs, unpublished output writers) dies with the
      // reducer object; Rewind re-delivers every published map output.
      for (int attempt = 1;; ++attempt) {
        FaultScope scope(FaultScope::Kind::kReduce, r, attempt,
                         r % cluster_.num_nodes);
        try {
          const std::uint64_t records = run_reducer();
          output_records.fetch_add(records, std::memory_order_relaxed);
          per_reducer_records[r] = records;  // one writer per slot
          const int done =
              reducers_completed.fetch_add(1, std::memory_order_relaxed) + 1;
          if (cluster_.sched_hooks != nullptr &&
              cluster_.sched_hooks->on_reduce_progress) {
            cluster_.sched_hooks->on_reduce_progress(done, num_reducers);
          }
          return;
        } catch (const ReplayError&) {
          // The feed is unrecoverable; another attempt would fail the same
          // way (Table III).
          record_failure(std::current_exception());
          shuffle.MarkReducerGone(r);
          return;
        } catch (...) {
          const bool retryable = reduce_retry_enabled &&
                                 attempt < cluster_.max_task_attempts &&
                                 !maps_failed.load(std::memory_order_relaxed);
          if (!retryable) {
            record_failure(std::current_exception());
            // Terminal: push-mode mappers fail fast (kReducerGone) instead
            // of pushing into a queue nobody will drain.
            shuffle.MarkReducerGone(r);
            return;
          }
          if (!checkpoint_enabled) {
            // Full replay from the start.  With checkpointing on, the next
            // attempt restores its own checkpoint and rewinds to that
            // watermark itself.
            std::string why;
            if (!shuffle.Rewind(r, /*from_ordinal=*/0, &why)) {
              record_failure(std::make_exception_ptr(ReplayError(
                  "reduce task " + std::to_string(r) +
                  " cannot be re-executed: " + why)));
              shuffle.MarkReducerGone(r);
              return;
            }
          }
          metrics_->Get(kRetryReduceTask)->Increment();
          RetryBackoff(attempt, 0x5edce5ull + static_cast<std::uint64_t>(r));
        }
      }
    });
  }

  std::atomic<std::uint64_t> completed_maps{0};

  // Runs one task's attempt loop on `node`: the original attempt, then its
  // retries, one at a time.
  auto run_map_attempts = [&](const BlockInfo& block, int node) {
    const int task_id = task_id_of_block.at(block.block_id);
    const double begin = job_start.Seconds();
    for (int attempt = 1;; ++attempt) {
      FaultScope scope(FaultScope::Kind::kMap, task_id, attempt, node);
      std::unique_ptr<MapOutputSink> sink;
      if (options.shuffle == Shuffle::kPush) {
        sink = std::make_unique<PushSink>(task_id, files_, metrics_, endpoint,
                                          num_reducers,
                                          options.push_chunk_bytes);
      } else {
        sink = std::make_unique<FileSink>(
            task_id, files_, metrics_, endpoint, num_reducers,
            options.map_buffer_bytes);
      }
      MapTask task(task_id, spec, options, env, block, sink.get());
      MapTask::Stats stats;
      try {
        stats = task.Run();
      } catch (const ReducerGoneError&) {
        // Already the Table III diagnosis (a dead reducer consumed pushed
        // output); never retryable and never re-wrapped.
        sink->Abandon();
        throw;
      } catch (...) {
        // Drop the attempt's buffered output first: once the exception is
        // caught, a later sink destructor would no longer be unwinding, and
        // its cleanup flush must not write — or re-fire the fault hook for —
        // bytes of a dead attempt.
        sink->Abandon();
        if (sink->publishes_eagerly()) {
          // The paper's Table III trade-off, demonstrated: this attempt's
          // output already reached reducers, so re-execution would
          // duplicate records.  Fail fast with the diagnosis.
          std::string why = "unknown error";
          try {
            throw;
          } catch (const std::exception& e) {
            why = e.what();
          } catch (...) {
          }
          throw std::runtime_error(
              "map task " + std::to_string(task_id) +
              " failed under push (pipelined) shuffle and cannot be "
              "re-executed: its output was already pipelined to reducers "
              "before completion, so a retry would duplicate records — the "
              "pipelining / fault-tolerance trade-off of paper Table III. "
              "Re-run with pull shuffle and max_task_attempts > 1 to "
              "recover. Original failure: " +
              why);
        }
        if (attempt >= cluster_.max_task_attempts) throw;
        metrics_->Get(kRetryMapTask)->Increment();
        RetryBackoff(attempt, static_cast<std::uint64_t>(task_id));
        continue;
      }
      sink->Publish();
      endpoint->MapTaskDone(task_id, stats.input_records,
                            stats.output_records);
      const double end = job_start.Seconds();
      const std::uint64_t done_now =
          completed_maps.fetch_add(1, std::memory_order_relaxed) + 1;
      if (cluster_.sched_hooks != nullptr &&
          cluster_.sched_hooks->on_map_progress) {
        cluster_.sched_hooks->on_map_progress(static_cast<int>(done_now),
                                              num_maps);
      }
      input_records.fetch_add(stats.input_records, std::memory_order_relaxed);
      map_output_records.fetch_add(stats.output_records,
                                   std::memory_order_relaxed);
      timeline.Record(TaskKind::kMap, begin, end);
      return;
    }
  };

  // --- Map worker threads: num_nodes × map_slots_per_node slots.
  if (run_maps) {
    std::vector<std::jthread> map_workers;
    const int num_workers =
        cluster_.num_nodes * cluster_.map_slots_per_node;
    map_workers.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) {
      const int node = w / cluster_.map_slots_per_node;
      map_workers.emplace_back([&, node] {
        try {
          while (!maps_failed.load(std::memory_order_relaxed)) {
            bool was_local = false;
            auto block = scheduler.Next(node, &was_local);
            if (!block) break;
            // Lease a shared slot per task, after claiming the block: an
            // idle worker never sits on a slot another job could use.
            MapSlotLease lease(cluster_.sched_hooks);
            run_map_attempts(*block, node);
          }
        } catch (...) {
          maps_failed.store(true, std::memory_order_relaxed);
          record_failure(std::current_exception());
          shuffle.Abort("map task failed");
        }
      });
    }
    // jthreads join at scope exit.
  }

  // Map group over a transport: close the connection before joining
  // reducers — Bye on success, Abort so the reduce group unwinds promptly
  // instead of waiting out its idle timeout on failure.
  if (shuffle_client != nullptr) {
    std::string failure_reason;
    {
      std::scoped_lock lock(failure_mu);
      if (first_failure) {
        try {
          std::rethrow_exception(first_failure);
        } catch (const std::exception& e) {
          failure_reason = e.what();
        } catch (...) {
          failure_reason = "unknown error";
        }
      }
    }
    if (failure_reason.empty()) {
      shuffle_client->Finish();
    } else {
      shuffle_client->SendAbort(failure_reason);
    }
  }

  reducer_threads.clear();  // join all reducers

  {
    std::scoped_lock lock(failure_mu);
    if (first_failure) std::rethrow_exception(first_failure);
  }

  // Job done: garbage-collect this job's checkpoint files (ROADMAP's
  // multi-job GC).  A shared checkpoint directory only accretes files from
  // jobs that never completed.
  if (run_reducers && checkpoint_enabled) {
    const int swept =
        CheckpointManager::SweepFinishedJobs(env.checkpoint_dir, spec.name);
    metrics_->Get(kCheckpointsSwept)->Add(swept);
  }

  emissions.Finish();

  // --- Assemble the result ----------------------------------------------------
  JobResult result;
  result.job_name = spec.name;
  result.wall_seconds = job_start.Seconds();
  result.num_map_tasks = num_maps;
  result.num_reduce_tasks = num_reducers;
  result.local_map_tasks = scheduler.local_count();
  result.reducer_output_records = std::move(per_reducer_records);
  result.input_records = input_records.load();
  result.map_output_records = map_output_records.load();
  result.output_records = output_records.load();
  if (role == WorkerRole::kReduceOnly && shuffle_server != nullptr) {
    // Let the clients' Bye frames land before the counter snapshot below:
    // the reduce tail can finish a few milliseconds before a Bye that rode
    // the data-plane flush timer, and the report would miss the client-side
    // wire counters it carries.
    shuffle_server->WaitClientsFinished(/*timeout_s=*/0.25);
    // Map tasks ran in the peer process; their stats arrived as MapDone
    // frames.
    result.input_records = shuffle_server->map_input_records();
    result.map_output_records = shuffle_server->map_output_records();
  }
  result.first_output_seconds = emissions.first_emit_seconds();
  result.emission_curve = emissions.series().Snapshot();
  result.cpu_seconds = profiler.Snapshot();
  result.total_cpu_seconds = profiler.TotalCpuSeconds();
  result.timeline = timeline.Snapshot();

  const auto counters_after = metrics_->Snapshot();
  for (const auto& [name, value] : counters_after) {
    auto it = counters_before.find(name);
    const std::int64_t before = it == counters_before.end() ? 0 : it->second;
    result.counters[name] = value - before;
  }
  // opmrbench is the only reader of these named copies.
  result.net_bytes_sent = result.Bytes(net::kNetBytesSent);
  result.net_frames_sent = result.Bytes(net::kNetFramesSent);
  result.net_frames_received = result.Bytes(net::kNetFramesReceived);
  result.net_retransmits = result.Bytes(net::kNetRetransmits);
  result.shuffle_dup_frames = result.Bytes(kShuffleDupFrames);
  return result;
}

std::future<JobResult> ClusterExecutor::RunAsync(const JobSpec& spec,
                                                 const JobOptions& options) {
  return std::async(std::launch::async,
                    [this, &spec, &options] { return Run(spec, options); });
}

}  // namespace opmr
