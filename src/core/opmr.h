// OPMR public API — the one-pass analytics platform facade.
//
// A Platform owns the substrate (workspace, metrics, mini-DFS, executor);
// users load data, build a JobSpec (map + reduce/aggregator), pick a
// runtime preset, and Run.
//
//   opmr::Platform platform({.num_nodes = 4});
//   opmr::GenerateClickStream(platform.dfs(), "clicks", {...});
//   auto spec = opmr::PageFrequencyJob("clicks", "freq", 4);
//   auto result = platform.Run(spec, opmr::HashOnePassOptions());
//
// Presets mirror the paper's three systems (Table III):
//   HadoopOptions()         — sort-merge, pull shuffle, batch output.
//   MapReduceOnlineOptions()— sort-merge, push shuffle, periodic snapshots.
//   HashOnePassOptions()    — hash group-by, push shuffle, incremental.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dfs/dfs.h"
#include "engine/cluster.h"
#include "engine/job.h"
#include "fault/fault.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"

namespace opmr {

struct PlatformOptions {
  int num_nodes = 4;
  int map_slots_per_node = 2;
  std::uint64_t block_bytes = 4ull << 20;  // laptop-scale default block
  int replication = 1;
  // Task re-execution attempts (pull shuffle only; see ClusterOptions).
  int max_task_attempts = 1;
  // Retry pacing (see ClusterOptions).
  double retry_backoff_base_ms = 5.0;
  double retry_backoff_max_ms = 250.0;
  // Chaos plane: FaultPlan spec string or plan-file path (see
  // FaultPlan::Load); empty = no injection.
  std::string fault_plan;
  std::string workspace;  // empty → unique temp directory
};

// --- Runtime presets ---------------------------------------------------------

// Stock Hadoop as benchmarked in §III.
JobOptions HadoopOptions();

// MapReduce Online (HOP): pipelined push shuffle + snapshots every 25 %.
JobOptions MapReduceOnlineOptions();

// The paper's proposed hash-based one-pass runtime (§V): hash group-by,
// push shuffle, incremental per-key states.
JobOptions HashOnePassOptions();

// Hash runtime with the frequent-algorithm hot-key optimization for
// memory-constrained runs (§V reduce technique 3).
JobOptions HotKeyOnePassOptions(std::size_t hot_key_capacity = 1u << 12);

// Hash runtime with periodic reducer checkpoints: keeps the pipelined push
// shuffle AND tolerates reduce failures (the combination Table III says the
// compared systems lack) by restoring reducer state from the latest image
// and replaying only the un-acknowledged shuffle suffix.
JobOptions CheckpointedOnePassOptions(std::uint64_t interval_records = 4096,
                                      int retain = 2);

class Platform {
 public:
  explicit Platform(PlatformOptions options = {});

  [[nodiscard]] Dfs& dfs() noexcept { return *dfs_; }
  [[nodiscard]] MetricRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] FileManager& files() noexcept { return *files_; }

  // Direct executor access for cluster-mode configuration (worker
  // identity, map partition, coordination wiring) that the RunXxx
  // wrappers below do not cover.
  [[nodiscard]] ClusterExecutor& executor() noexcept { return *executor_; }

  // Runs a job under the given runtime options.
  JobResult Run(const JobSpec& spec, const JobOptions& options);

  // --- Split worker groups (src/net) ---------------------------------------
  // Runs both halves in this process but routes the shuffle over
  // `transport` (loopback for parity testing, a self-dialing TCP server
  // transport for socket testing).  The transport serves exactly one run
  // and is shut down before returning.
  // `shared_fs` false makes the map side ship segment bytes inline
  // (SegmentData frames) instead of path descriptors, as a remote-host
  // deployment would.
  JobResult RunWithTransport(const JobSpec& spec, const JobOptions& options,
                             net::Transport* transport, bool shared_fs = true);

  // Runs only the map worker group: map output, instead of reaching local
  // reducers, is pushed/registered across `transport` to a peer process
  // running RunReduceGroup.  The returned result carries map-side stats.
  JobResult RunMapGroup(const JobSpec& spec, const JobOptions& options,
                        net::Transport* transport, bool shared_fs = true);

  // Runs only the reduce worker group, serving shuffle frames from the
  // peer's map group.  `idle_timeout_s` > 0 aborts the job when the wire
  // goes silent with map tasks outstanding (mapper process death).
  JobResult RunReduceGroup(const JobSpec& spec, const JobOptions& options,
                           net::Transport* transport,
                           double idle_timeout_s = 0.0);

  // Installs (replaces) the chaos-plane fault plan for subsequent runs; an
  // empty plan clears injection.  Also reachable declaratively through
  // PlatformOptions::fault_plan.
  void SetFaultPlan(FaultPlan plan);

  // The active injector, or nullptr when no plan is installed.
  [[nodiscard]] FaultInjector* fault_injector() noexcept {
    return injector_.get();
  }

  // Reads a job's output back as (key, value) string pairs, across all
  // reducer parts of `output_prefix` (unordered across parts).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> ReadOutput(
      const std::string& output_prefix, int num_reducers) const;

  // Reads one DFS output file of framed records.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> ReadOutputFile(
      const std::string& name) const;

 private:
  std::unique_ptr<FileManager> files_;
  std::unique_ptr<MetricRegistry> metrics_;
  std::unique_ptr<Dfs> dfs_;
  std::unique_ptr<ClusterExecutor> executor_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace opmr
