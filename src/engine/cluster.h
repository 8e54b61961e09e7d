// ClusterExecutor: runs one MapReduce job on an in-process "cluster" of
// N nodes × S map slots (worker threads) plus R reducer threads, with
// block-level, locality-aware scheduling against the mini-DFS — the same
// execution structure the paper benchmarks on its 10-node cluster.
#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dfs/dfs.h"
#include "engine/job.h"
#include "engine/reduce_common.h"
#include "metrics/counters.h"
#include "metrics/timeline.h"
#include "metrics/timeseries.h"

namespace opmr {

class FaultInjector;

namespace net {
class Transport;
}  // namespace net

namespace coord {
class CoordClient;
}  // namespace coord

// Which half of the job this executor instance runs.  kAll is the seed's
// single-process mode.  kMapOnly / kReduceOnly split the worker groups
// across OS processes: the map group serialises its shuffle traffic onto a
// net::Transport, the reduce group serves it (the CLI's --transport=tcp
// mode; paper Fig. 5's mapper/reducer separation made physical).
enum class WorkerRole {
  kAll,
  kMapOnly,
  kReduceOnly,
};

// Slot-lease hooks a multi-job scheduler (src/sched) installs to meter an
// executor's parallelism out of a shared pool.  Acquire callbacks may block
// until a slot is granted; all callbacks must be thread-safe, and unset
// members are no-ops.  A map slot is leased per map task, across its
// retries (the worker thread holds no slot while idle); a reduce slot is
// held for the whole reducer-thread lifetime.  The progress probes feed
// shortest-remaining-work admission policies.
struct SchedHooks {
  std::function<void()> acquire_map_slot;
  std::function<void()> release_map_slot;
  std::function<void()> acquire_reduce_slot;
  std::function<void()> release_reduce_slot;
  std::function<void(int done, int total)> on_map_progress;
  std::function<void(int done, int total)> on_reduce_progress;
};

struct ClusterOptions {
  int num_nodes = 4;
  int map_slots_per_node = 2;
  // Task re-execution on failure (Hadoop's fault-tolerance model), for both
  // map attempts and reduce attempts.  Only valid with pull shuffle: a
  // failed map attempt's output was never published and a restarted reducer
  // can re-fetch the registered map outputs, so the retry is invisible.
  // Push pipelining exposes output before task completion and therefore
  // cannot retry — the weakness the paper attributes to eager pipelining
  // (Table III).
  int max_task_attempts = 1;

  // Exponential backoff between retry attempts: sleep
  // min(base * 2^(attempt-1), max) * jitter, where jitter in [0.5, 1) is a
  // deterministic function of (task, attempt).  Base <= 0 disables backoff.
  double retry_backoff_base_ms = 5.0;
  double retry_backoff_max_ms = 250.0;

  // Multi-job slot metering (see SchedHooks).  Not owned; must outlive
  // every Run() that observes it.
  const SchedHooks* sched_hooks = nullptr;

  // Chaos plane: when set, the injector is installed as the global I/O
  // fault hook for the duration of Run() and consulted at every engine
  // fault site (see src/fault/fault.h).  Not owned.
  FaultInjector* fault_injector = nullptr;

  // Worker-group split (see WorkerRole).  Roles other than kAll require a
  // shuffle_transport.
  WorkerRole role = WorkerRole::kAll;

  // When set, shuffle traffic is carried over this transport (one
  // ShuffleClient on the map side, one ShuffleServer on the reduce side)
  // instead of direct in-process calls.  Not owned; used for exactly one
  // Run() — the executor shuts it down before returning.  nullptr with
  // role == kAll is the seed's direct path.
  net::Transport* shuffle_transport = nullptr;

  // Both worker groups see the same filesystem, so segments can cross the
  // wire as path descriptors instead of inline bytes.  True for loopback
  // and same-host forked processes; a future remote mode would clear it.
  bool shuffle_shared_fs = true;

  // Reduce-group liveness guard (seconds; 0 disables): abort a reducer
  // blocked in NextItem with no shuffle activity for this long while map
  // tasks are still outstanding — the mapper process likely died without
  // sending Abort.  This is the reduce side's only mapper-death signal,
  // in cluster mode too: the coordinator's lease expiry only updates the
  // membership view.  Every inbound shuffle frame — including replayed
  // duplicates — resets the idle clock, so the watchdog cannot fire
  // while an ack-window replay is in flight.
  double shuffle_idle_timeout_s = 0.0;

  // --- Cluster coordination (src/coord) -------------------------------------
  // Registered worker id this process joined the group as; carried in the
  // shuffle Hello so the reduce side can key its per-sender ack watermark.
  // Empty in the single-process / forked modes.
  std::string worker_id;

  // Shared secret authenticating shuffle Hello and coordinator Register
  // frames.  Empty disables authentication.
  std::string shuffle_secret;

  // Horizontal map partition for multi-worker map groups: this worker
  // runs exactly the input blocks whose global index i satisfies
  // i % map_partition_count == map_partition_index, under globally
  // unique task ids, so sibling map workers cover the input disjointly.
  int map_partition_index = 0;
  int map_partition_count = 1;

  // Membership agent of a map-group worker (not owned).  When set, an
  // eviction/rejoin observed by the heartbeat thread fires
  // ShuffleClient::ReplayUnacked() — the reduce side may have lost this
  // worker's delivered-but-unacked tail with the membership flap.
  coord::CoordClient* coord_client = nullptr;
};

// Recovery counters ClusterExecutor charges (all zero in a clean run).
inline constexpr const char* kRetryMapTask = "retry.map_task";
inline constexpr const char* kRetryReduceTask = "retry.reduce_task";
inline constexpr const char* kRetryBackoffMs = "retry.backoff_ms";

struct JobResult {
  std::string job_name;
  double wall_seconds = 0.0;

  // Job-scoped deltas of the metric registry: data volumes, recovery,
  // checkpoint, fault and wire activity.  Read one through Bytes().
  std::map<std::string, std::int64_t> counters;

  // Per-phase CPU seconds across all task threads (Table II / §V).
  std::map<std::string, double> cpu_seconds;
  double total_cpu_seconds = 0.0;

  std::uint64_t input_records = 0;
  std::uint64_t map_output_records = 0;
  std::uint64_t output_records = 0;

  // Incremental-processing metrics.
  double first_output_seconds = -1.0;  // < 0 means no output
  std::vector<Sample> emission_curve;  // cumulative emitted records vs time

  int num_map_tasks = 0;
  int num_reduce_tasks = 0;
  int local_map_tasks = 0;   // scheduled on a node holding the block

  // Wire totals, copied from `counters` for opmrbench, their only reader;
  // everything else reads counters through Bytes().
  std::int64_t net_bytes_sent = 0;
  std::int64_t net_frames_sent = 0;
  std::int64_t net_frames_received = 0;
  std::int64_t net_retransmits = 0;
  std::int64_t shuffle_dup_frames = 0;

  // Per-reducer output records: the partition-skew signal (related work
  // [19] targets exactly this imbalance).
  std::vector<std::uint64_t> reducer_output_records;

  // max/mean output records across reducers; 1.0 = perfectly balanced.
  [[nodiscard]] double ReducerImbalance() const {
    if (reducer_output_records.empty()) return 1.0;
    std::uint64_t max = 0, sum = 0;
    for (auto v : reducer_output_records) {
      max = std::max(max, v);
      sum += v;
    }
    const double mean =
        static_cast<double>(sum) / reducer_output_records.size();
    return mean == 0 ? 1.0 : max / mean;
  }

  std::vector<TaskInterval> timeline;

  // This job's delta of any counter (bytes or a count); 0 when the counter
  // is absent.
  [[nodiscard]] std::int64_t Bytes(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

// Locality-aware block scheduler: a freed map slot on node n prefers an
// unprocessed block with a replica on n, falling back to any block.
class BlockScheduler {
 public:
  BlockScheduler(std::vector<BlockInfo> blocks, int num_nodes);

  // Returns the next block for `node` (and whether it was node-local), or
  // nullopt when all blocks are taken.
  std::optional<BlockInfo> Next(int node, bool* was_local);

  [[nodiscard]] int local_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<BlockInfo> blocks_;
  std::vector<bool> taken_;
  std::vector<std::vector<std::size_t>> by_node_;
  std::size_t next_any_ = 0;
  int local_count_ = 0;
};

class ClusterExecutor {
 public:
  ClusterExecutor(Dfs* dfs, FileManager* files, MetricRegistry* metrics,
                  ClusterOptions options = {});

  // Runs the job to completion and returns its result.  Throws on invalid
  // configuration or task failure.
  JobResult Run(const JobSpec& spec, const JobOptions& options);

  // Launches Run() on its own thread; the future carries the JobResult or
  // rethrows the failure on get().  The executor, spec, and options must
  // outlive the future's completion — the multi-job scheduler keeps all
  // three in its per-job state.
  std::future<JobResult> RunAsync(const JobSpec& spec,
                                  const JobOptions& options);

  // Installs (or clears) the chaos-plane injector used by subsequent runs.
  void set_fault_injector(FaultInjector* injector) {
    cluster_.fault_injector = injector;
  }

  // Worker-group split for subsequent runs (see ClusterOptions).  The
  // transport, when set, is used for exactly one Run() and shut down by it.
  void set_worker_role(WorkerRole role) { cluster_.role = role; }
  void set_shuffle_transport(net::Transport* transport) {
    cluster_.shuffle_transport = transport;
  }
  void set_shuffle_idle_timeout(double seconds) {
    cluster_.shuffle_idle_timeout_s = seconds;
  }
  void set_shuffle_shared_fs(bool shared) {
    cluster_.shuffle_shared_fs = shared;
  }
  void set_sched_hooks(const SchedHooks* hooks) {
    cluster_.sched_hooks = hooks;
  }

  // Cluster-mode identity and coordination wiring (see ClusterOptions).
  void set_cluster_identity(std::string worker_id, std::string secret) {
    cluster_.worker_id = std::move(worker_id);
    cluster_.shuffle_secret = std::move(secret);
  }
  void set_map_partition(int index, int count) {
    cluster_.map_partition_index = index;
    cluster_.map_partition_count = count;
  }
  void set_coord_client(coord::CoordClient* client) {
    cluster_.coord_client = client;
  }

 private:
  void Validate(const JobSpec& spec, const JobOptions& options) const;

  // Deterministically jittered exponential backoff before retry `attempt`.
  void RetryBackoff(int attempt, std::uint64_t salt) const;

  Dfs* dfs_;
  FileManager* files_;
  MetricRegistry* metrics_;
  ClusterOptions cluster_;
};

}  // namespace opmr
