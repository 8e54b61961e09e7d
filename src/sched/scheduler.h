// JobScheduler: admits many MapReduce jobs concurrently onto one shared
// slot pool (map slots + reduce slots + a memory budget), leasing slots to
// per-job ClusterExecutors at operation granularity through SchedHooks.
//
// Admission is FIFO and gated twice: a queue cap (Submit past it throws
// AdmissionError) and the memory budget (a job waits in the queue until
// its reducer-memory estimate fits).  Once admitted, a job runs on its own
// thread with its own MetricRegistry — JobResult counters stay per-job
// even with N jobs interleaved — while the configured SchedPolicy decides
// which job's tasks win contended slots.  DFS device counters, by
// contrast, land in the platform registry the Dfs was built with and are
// not attributed per job.
//
// Jobs submitted here never install fault injectors: the chaos plane's
// I/O hook is process-global and concurrent jobs would race on it.
//
// Per-job shuffle transports are built in-process: kLoopback wraps the
// run in a LoopbackTransport, kTcp binds a TcpTransport and self-dials it
// (real localhost sockets, no fork — forking a process with this many
// live threads is not survivable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dfs/dfs.h"
#include "engine/cluster.h"
#include "engine/job.h"
#include "metrics/stopwatch.h"
#include "net/transport.h"
#include "sched/policy.h"
#include "sched/slot_pool.h"
#include "storage/file_manager.h"

namespace opmr::sched {

class AdmissionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SchedulerOptions {
  int map_slots = 8;
  int reduce_slots = 8;
  std::size_t memory_budget_bytes = 256ull << 20;
  SchedPolicy policy = SchedPolicy::kFifo;
  int max_queued = 64;     // Submit past this many waiting jobs is rejected
  int max_concurrent = 4;  // jobs running at once
  // Per-job cluster shape (every executor sees the same node count the
  // shared Dfs was built with).
  int num_nodes = 4;
  int map_slots_per_node = 2;
};

enum class JobTransport {
  kDirect,    // in-process shuffle calls (the seed's zero-overhead path)
  kLoopback,  // framed RPC over the in-process loopback transport
  kTcp,       // framed RPC over real localhost sockets (self-dialed)
};

struct JobRequest {
  std::string id;
  JobSpec spec;
  JobOptions options;
  JobTransport transport = JobTransport::kDirect;
  // Memory-budget admission charge; 0 derives reduce_buffer_bytes x
  // num_reducers from `options`/`spec`.
  std::size_t memory_bytes = 0;
};

struct JobReport {
  int handle = -1;
  std::string id;
  bool failed = false;
  std::string error;
  JobResult result;
  // All on the scheduler clock (seconds since construction).
  double submitted_s = 0.0;
  double started_s = 0.0;
  double finished_s = 0.0;

  [[nodiscard]] double queue_wait_s() const { return started_s - submitted_s; }
};

struct SchedulerStats {
  int submitted = 0;
  int completed = 0;
  int failed = 0;
  int peak_concurrent = 0;
  double makespan_s = 0.0;  // first submission -> last completion
  SlotPool::Stats slots;
};

class JobScheduler {
 public:
  JobScheduler(Dfs* dfs, FileManager* files, SchedulerOptions options = {});
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  // Enqueues a job and returns its handle.  Throws AdmissionError when the
  // queue is full or the job's memory charge exceeds the whole budget.
  int Submit(JobRequest request);

  // Blocks until the job finishes; the report carries the JobResult or the
  // failure.
  JobReport Wait(int handle);

  // Waits for every submitted job; reports in submission order.
  std::vector<JobReport> Drain();

  [[nodiscard]] SchedulerStats stats() const;

  // Cross-job timeline: every finished job's task intervals shifted onto
  // the scheduler clock, so concurrent jobs' map/reduce waves can be
  // plotted against each other.
  [[nodiscard]] std::vector<TaskInterval> Timeline() const;

 private:
  struct Job {
    int handle = -1;
    JobRequest request;
    std::size_t memory_bytes = 0;  // resolved admission charge
    std::int64_t total_ops = 0;    // map tasks + reducers (SRW estimate)
    std::atomic<int> maps_done{0};
    std::atomic<int> reduces_done{0};
    enum class State { kQueued, kRunning, kDone } state = State::kQueued;
    JobReport report;
    SchedHooks hooks;
    std::unique_ptr<MetricRegistry> metrics;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<ClusterExecutor> executor;
    std::jthread runner;
  };

  void DispatchLoop(const std::stop_token& stop);
  void RunJob(Job* job);
  [[nodiscard]] std::int64_t EstimateOps(const JobRequest& request) const;

  Dfs* dfs_;
  FileManager* files_;
  SchedulerOptions options_;
  WallTimer clock_;
  SlotPool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;  // indexed by handle
  std::deque<int> queued_;
  int running_ = 0;
  int peak_concurrent_ = 0;
  double first_submit_s_ = -1.0;
  double last_finish_s_ = 0.0;

  std::jthread dispatcher_;  // last member: stops before jobs_ unwinds
};

}  // namespace opmr::sched
