#include "sched/scheduler.h"

#include <algorithm>
#include <utility>

#include "net/loopback.h"
#include "net/tcp.h"

namespace opmr::sched {

JobScheduler::JobScheduler(Dfs* dfs, FileManager* files,
                           SchedulerOptions options)
    : dfs_(dfs),
      files_(files),
      options_(std::move(options)),
      pool_(options_.map_slots, options_.reduce_slots,
            options_.memory_budget_bytes, options_.policy),
      dispatcher_([this](std::stop_token stop) { DispatchLoop(stop); }) {}

JobScheduler::~JobScheduler() {
  dispatcher_.request_stop();
  cv_.notify_all();
  // dispatcher_ (last member) joins first; jobs_ then unwinds, joining
  // every runner thread — admitted jobs always run to completion.
}

std::int64_t JobScheduler::EstimateOps(const JobRequest& request) const {
  std::int64_t ops = std::max(1, request.spec.num_reducers);
  try {
    ops += static_cast<std::int64_t>(
        dfs_->ListBlocks(request.spec.input_file).size());
    for (const auto& extra : request.spec.extra_inputs) {
      ops += static_cast<std::int64_t>(dfs_->ListBlocks(extra).size());
    }
  } catch (...) {
    // A missing input surfaces as a job failure at run time; the estimate
    // just degrades to the reducer count.
  }
  return ops;
}

int JobScheduler::Submit(JobRequest request) {
  std::size_t memory = request.memory_bytes;
  if (memory == 0) {
    memory = request.options.reduce_buffer_bytes *
             static_cast<std::size_t>(std::max(1, request.spec.num_reducers));
  }
  if (memory > options_.memory_budget_bytes) {
    throw AdmissionError(
        "job '" + request.id + "' charges " + std::to_string(memory) +
        " bytes of reducer memory but the scheduler's whole budget is " +
        std::to_string(options_.memory_budget_bytes) +
        " — it could never be admitted (shrink reduce_buffer_bytes or the "
        "reducer count, or raise the budget)");
  }
  const std::int64_t ops = EstimateOps(request);
  std::unique_lock lock(mu_);
  if (static_cast<int>(queued_.size()) >= options_.max_queued) {
    throw AdmissionError("scheduler queue is full (" +
                         std::to_string(options_.max_queued) +
                         " jobs waiting): job '" + request.id + "' rejected");
  }
  const int handle = static_cast<int>(jobs_.size());
  auto job = std::make_unique<Job>();
  job->handle = handle;
  job->request = std::move(request);
  job->memory_bytes = memory;
  job->total_ops = ops;
  job->report.handle = handle;
  job->report.id = job->request.id;
  job->report.submitted_s = clock_.Seconds();
  if (first_submit_s_ < 0.0) first_submit_s_ = job->report.submitted_s;
  queued_.push_back(handle);
  jobs_.push_back(std::move(job));
  lock.unlock();
  cv_.notify_all();
  return handle;
}

void JobScheduler::DispatchLoop(const std::stop_token& stop) {
  std::stop_callback wake(stop, [this] { cv_.notify_all(); });
  std::unique_lock lock(mu_);
  while (true) {
    bool reserved = false;
    std::size_t reserved_bytes = 0;
    const auto dispatchable = [&] {
      if (stop.stop_requested()) return true;
      if (queued_.empty() || running_ >= options_.max_concurrent) return false;
      // FIFO admission with a memory gate: the head job waits until its
      // charge fits the budget (predictable head-of-line ordering; the
      // slot policy, not admission, decides who wins contended slots).
      reserved_bytes = jobs_[queued_.front()]->memory_bytes;
      reserved = pool_.TryReserveMemory(reserved_bytes);
      return reserved;
    };
    cv_.wait(lock, dispatchable);
    if (stop.stop_requested()) {
      if (reserved) pool_.ReleaseMemory(reserved_bytes);
      return;
    }
    const int handle = queued_.front();
    queued_.pop_front();
    Job* job = jobs_[handle].get();
    job->state = Job::State::kRunning;
    job->report.started_s = clock_.Seconds();
    ++running_;
    peak_concurrent_ = std::max(peak_concurrent_, running_);
    pool_.RegisterJob(handle, job->total_ops);
    job->runner = std::jthread([this, job] { RunJob(job); });
  }
}

void JobScheduler::RunJob(Job* job) {
  const int handle = job->handle;
  // Per-job registry: JobResult counter deltas stay clean however many
  // jobs interleave.  Transports charge their wire metrics here too.
  job->metrics = std::make_unique<MetricRegistry>();

  job->hooks.acquire_map_slot = [this, handle] {
    pool_.Acquire(handle, SlotPool::SlotKind::kMap);
  };
  job->hooks.release_map_slot = [this, handle] {
    pool_.Release(handle, SlotPool::SlotKind::kMap);
  };
  job->hooks.acquire_reduce_slot = [this, handle] {
    pool_.Acquire(handle, SlotPool::SlotKind::kReduce);
  };
  job->hooks.release_reduce_slot = [this, handle] {
    pool_.Release(handle, SlotPool::SlotKind::kReduce);
  };
  const auto report_remaining = [this, job, handle] {
    const std::int64_t remaining =
        job->total_ops - job->maps_done.load(std::memory_order_relaxed) -
        job->reduces_done.load(std::memory_order_relaxed);
    pool_.ReportProgress(handle, std::max<std::int64_t>(remaining, 0));
  };
  job->hooks.on_map_progress = [job, report_remaining](int done, int) {
    job->maps_done.store(done, std::memory_order_relaxed);
    report_remaining();
  };
  job->hooks.on_reduce_progress = [job, report_remaining](int done, int) {
    job->reduces_done.store(done, std::memory_order_relaxed);
    report_remaining();
  };

  bool failed = false;
  std::string error;
  JobResult result;
  try {
    ClusterOptions cluster;
    cluster.num_nodes = options_.num_nodes;
    cluster.map_slots_per_node = options_.map_slots_per_node;
    cluster.sched_hooks = &job->hooks;
    switch (job->request.transport) {
      case JobTransport::kDirect:
        break;
      case JobTransport::kLoopback:
        job->transport =
            std::make_unique<net::LoopbackTransport>(job->metrics.get());
        break;
      case JobTransport::kTcp: {
        // Self-dialing socket mode: bind an ephemeral localhost port and
        // let the map side connect to it from this same process.  No fork
        // — a scheduler process is far too threaded to survive one.
        auto tcp = std::make_unique<net::TcpTransport>(job->metrics.get());
        tcp->Bind();
        job->transport = std::move(tcp);
        break;
      }
    }
    cluster.shuffle_transport = job->transport.get();
    job->executor = std::make_unique<ClusterExecutor>(
        dfs_, files_, job->metrics.get(), cluster);
    result = job->executor->Run(job->request.spec, job->request.options);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  } catch (...) {
    failed = true;
    error = "unknown error";
  }
  // All slot leases were released when Run() unwound its task threads.
  pool_.UnregisterJob(handle);
  pool_.ReleaseMemory(job->memory_bytes);
  {
    std::scoped_lock lock(mu_);
    job->report.result = std::move(result);
    job->report.failed = failed;
    job->report.error = std::move(error);
    job->report.finished_s = clock_.Seconds();
    last_finish_s_ = std::max(last_finish_s_, job->report.finished_s);
    job->state = Job::State::kDone;
    --running_;
  }
  cv_.notify_all();
}

JobReport JobScheduler::Wait(int handle) {
  std::unique_lock lock(mu_);
  if (handle < 0 || handle >= static_cast<int>(jobs_.size())) {
    throw std::invalid_argument("JobScheduler::Wait: unknown job handle " +
                                std::to_string(handle));
  }
  Job* job = jobs_[handle].get();
  cv_.wait(lock, [&] { return job->state == Job::State::kDone; });
  return job->report;
}

std::vector<JobReport> JobScheduler::Drain() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return queued_.empty() && running_ == 0; });
  std::vector<JobReport> reports;
  reports.reserve(jobs_.size());
  for (const auto& job : jobs_) reports.push_back(job->report);
  return reports;
}

SchedulerStats JobScheduler::stats() const {
  std::scoped_lock lock(mu_);
  SchedulerStats s;
  s.submitted = static_cast<int>(jobs_.size());
  for (const auto& job : jobs_) {
    if (job->state != Job::State::kDone) continue;
    if (job->report.failed) {
      ++s.failed;
    } else {
      ++s.completed;
    }
  }
  s.peak_concurrent = peak_concurrent_;
  s.makespan_s =
      first_submit_s_ >= 0.0 ? last_finish_s_ - first_submit_s_ : 0.0;
  s.slots = pool_.stats();
  return s;
}

std::vector<TaskInterval> JobScheduler::Timeline() const {
  std::scoped_lock lock(mu_);
  std::vector<TaskInterval> out;
  for (const auto& job : jobs_) {
    if (job->state != Job::State::kDone || job->report.failed) continue;
    for (TaskInterval iv : job->report.result.timeline) {
      iv.begin_s += job->report.started_s;
      iv.end_s += job->report.started_s;
      out.push_back(iv);
    }
  }
  return out;
}

}  // namespace opmr::sched
