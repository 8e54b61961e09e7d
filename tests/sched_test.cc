// Multi-job scheduler tests: slot-pool policy arbitration, admission
// control, spool parsing, and concurrent-vs-sequential output identity
// across transports.
#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/opmr.h"
#include "sched/slot_pool.h"
#include "sched/spool.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using sched::SchedPolicy;
using sched::SlotPool;

// ---------------------------------------------------------------------------
// SlotPool policy arbitration
// ---------------------------------------------------------------------------

// Blocks two waiter jobs on a fully-held slot, releases it, and returns the
// order the waiters were granted in.  `prepare` runs after registration so
// tests can skew the policy inputs (held slots, remaining ops).
template <typename Prepare>
std::vector<int> GrantOrder(SchedPolicy policy, Prepare prepare) {
  SlotPool pool(1, 1, 1 << 20, policy);
  pool.RegisterJob(0, 100);
  pool.RegisterJob(1, 100);
  pool.RegisterJob(2, 100);
  pool.Acquire(0, SlotPool::SlotKind::kMap);  // the contested slot
  prepare(pool);

  std::mutex mu;
  std::vector<int> order;
  auto waiter = [&](int job) {
    pool.Acquire(job, SlotPool::SlotKind::kMap);
    {
      std::scoped_lock lock(mu);
      order.push_back(job);
    }
    pool.Release(job, SlotPool::SlotKind::kMap);
  };
  std::thread t1(waiter, 1);
  // Job 1 must be blocked before job 2 arrives, so admission order (the
  // FIFO rank and every tie-break) is deterministic.
  while (pool.stats().waits < 1) std::this_thread::yield();
  std::thread t2(waiter, 2);
  while (pool.stats().waits < 2) std::this_thread::yield();

  pool.Release(0, SlotPool::SlotKind::kMap);
  t1.join();
  t2.join();
  return order;
}

TEST(SlotPoolTest, FifoGrantsInAdmissionOrder) {
  const auto order = GrantOrder(SchedPolicy::kFifo, [](SlotPool&) {});
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SlotPoolTest, FairPrefersJobHoldingFewerSlots) {
  // Job 1 already holds a reduce slot; fair hands the contested map slot
  // to job 2 first even though job 1 was admitted earlier.
  const auto order = GrantOrder(SchedPolicy::kFair, [](SlotPool& pool) {
    pool.Acquire(1, SlotPool::SlotKind::kReduce);
  });
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SlotPoolTest, SrwPrefersShortestRemainingWork) {
  const auto order = GrantOrder(SchedPolicy::kSrw, [](SlotPool& pool) {
    pool.ReportProgress(2, 3);  // job 2: almost done; job 1: 100 ops left
  });
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SlotPoolTest, CountsGrantsWaitsAndPeaks) {
  SlotPool pool(2, 1, 1 << 20, SchedPolicy::kFifo);
  pool.Acquire(0, SlotPool::SlotKind::kMap);
  pool.Acquire(0, SlotPool::SlotKind::kMap);
  pool.Acquire(0, SlotPool::SlotKind::kReduce);
  pool.Release(0, SlotPool::SlotKind::kMap);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.map_grants, 2);
  EXPECT_EQ(stats.reduce_grants, 1);
  EXPECT_EQ(stats.waits, 0);
  EXPECT_EQ(stats.peak_map_in_use, 2);
  EXPECT_EQ(stats.peak_reduce_in_use, 1);
}

TEST(SlotPoolTest, MemoryGateIsNonBlocking) {
  SlotPool pool(1, 1, 100, SchedPolicy::kFifo);
  EXPECT_TRUE(pool.TryReserveMemory(60));
  EXPECT_FALSE(pool.TryReserveMemory(60));
  pool.ReleaseMemory(60);
  EXPECT_TRUE(pool.TryReserveMemory(100));
}

TEST(SlotPoolTest, RejectsEmptyPool) {
  EXPECT_THROW(SlotPool(0, 1, 1, SchedPolicy::kFifo), std::invalid_argument);
  EXPECT_THROW(SlotPool(1, 0, 1, SchedPolicy::kFifo), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spool parsing
// ---------------------------------------------------------------------------

TEST(SpoolTest, ParsesFullSpec) {
  std::istringstream in(
      "# a comment\n"
      "workload = word_count\n"
      "runtime=hadoop\n"
      "transport=tcp\n"
      "records=5000\n"
      "reducers=3\n"
      "memory_bytes=1048576\n"
      "checkpoint_interval=512\n"
      "checkpoint_retain=3\n");
  const auto spec = sched::ParseSpoolSpec("j1", in);
  EXPECT_EQ(spec.id, "j1");
  EXPECT_EQ(spec.workload, "word_count");
  EXPECT_EQ(spec.runtime, "hadoop");
  EXPECT_EQ(spec.transport, "tcp");
  EXPECT_EQ(spec.records, 5000u);
  EXPECT_EQ(spec.reducers, 3);
  EXPECT_EQ(spec.memory_bytes, 1048576u);
  EXPECT_EQ(spec.checkpoint_interval, 512u);
  EXPECT_EQ(spec.checkpoint_retain, 3);
}

TEST(SpoolTest, RejectsUnknownKeysAndBadValues) {
  {
    std::istringstream in("workload=x\nspeculte=1\n");  // typo must be loud
    EXPECT_THROW(sched::ParseSpoolSpec("j", in), std::invalid_argument);
  }
  {
    std::istringstream in("records=12abc\n");
    EXPECT_THROW(sched::ParseSpoolSpec("j", in), std::invalid_argument);
  }
  {
    std::istringstream in("transport=smoke_signal\n");
    EXPECT_THROW(sched::ParseSpoolSpec("j", in), std::invalid_argument);
  }
  {
    std::istringstream in("reducers=0\n");
    EXPECT_THROW(sched::ParseSpoolSpec("j", in), std::invalid_argument);
  }
  {
    std::istringstream in("pool=batch\n");  // not a spool key
    EXPECT_THROW(sched::ParseSpoolSpec("j", in), std::invalid_argument);
  }
  {
    std::istringstream in("speculative_reduce=1\n");  // not a spool key
    EXPECT_THROW(sched::ParseSpoolSpec("j", in), std::invalid_argument);
  }
}

TEST(SpoolTest, DrainsDirectoryInNameOrderAndMarksDone) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("opmr-spool-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "b.job") << "records=2\n";
  std::ofstream(dir / "a.job") << "records=1\n";
  std::ofstream(dir / "notes.txt") << "ignored\n";

  const auto specs = sched::DrainSpoolDir(dir);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].id, "a");
  EXPECT_EQ(specs[0].records, 1u);
  EXPECT_EQ(specs[1].id, "b");
  EXPECT_TRUE(std::filesystem::exists(dir / "a.job.done"));
  EXPECT_FALSE(std::filesystem::exists(dir / "a.job"));
  // A second drain must find nothing: jobs are never re-admitted.
  EXPECT_TRUE(sched::DrainSpoolDir(dir).empty());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// JobScheduler
// ---------------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : platform_({.num_nodes = 4, .block_bytes = 256u << 10}) {
    ClickStreamOptions gen;
    gen.num_records = 20'000;
    gen.num_users = 800;
    GenerateClickStream(platform_.dfs(), "clicks", gen);
  }

  std::vector<std::pair<std::string, std::string>> SortedOutput(
      const std::string& name, int reducers) {
    auto rows = platform_.ReadOutput(name, reducers);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Platform platform_;
};

TEST_F(SchedulerTest, RejectsJobLargerThanWholeBudget) {
  sched::SchedulerOptions sopts;
  sopts.memory_budget_bytes = 1 << 20;
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  sched::JobRequest request;
  request.id = "too_big";
  request.spec = PerUserCountJob("clicks", "tb.out", 2);
  request.options = HashOnePassOptions();
  request.memory_bytes = 2 << 20;
  EXPECT_THROW(scheduler.Submit(std::move(request)), sched::AdmissionError);
}

TEST_F(SchedulerTest, MemoryBudgetSerializesOversizedJobs) {
  // Two jobs each charging >half the budget can never overlap, whatever
  // the slot pool would allow.
  sched::SchedulerOptions sopts;
  sopts.memory_budget_bytes = 100;
  sopts.max_concurrent = 4;
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  for (int i = 0; i < 2; ++i) {
    sched::JobRequest request;
    request.id = "mem" + std::to_string(i);
    request.spec =
        PerUserCountJob("clicks", "mem" + std::to_string(i) + ".out", 2);
    request.options = HashOnePassOptions();
    request.memory_bytes = 60;
    scheduler.Submit(std::move(request));
  }
  const auto reports = scheduler.Drain();
  for (const auto& report : reports) {
    EXPECT_FALSE(report.failed) << report.error;
  }
  EXPECT_EQ(scheduler.stats().peak_concurrent, 1);
}

TEST_F(SchedulerTest, FailedJobIsReportedNotFatal) {
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), {});
  sched::JobRequest bad;
  bad.id = "missing_input";
  bad.spec = PerUserCountJob("no_such_file", "x.out", 2);
  bad.options = HashOnePassOptions();
  const int bad_handle = scheduler.Submit(std::move(bad));
  sched::JobRequest good;
  good.id = "fine";
  good.spec = PerUserCountJob("clicks", "fine.out", 2);
  good.options = HashOnePassOptions();
  const int good_handle = scheduler.Submit(std::move(good));

  const auto bad_report = scheduler.Wait(bad_handle);
  EXPECT_TRUE(bad_report.failed);
  EXPECT_FALSE(bad_report.error.empty());
  const auto good_report = scheduler.Wait(good_handle);
  EXPECT_FALSE(good_report.failed) << good_report.error;
  EXPECT_GT(good_report.result.output_records, 0u);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 1);
}

// Acceptance: N concurrent jobs through the scheduler produce outputs
// byte-identical to sequential ClusterExecutor runs, across all three
// transports.  Outputs are compared as sorted row multisets — the hash
// runtimes do not define an output order.
TEST_F(SchedulerTest, ConcurrentJobsMatchSequentialAcrossTransports) {
  struct JobDef {
    const char* id;
    sched::JobTransport transport;
    int reducers;
  };
  const std::vector<JobDef> defs = {
      {"direct", sched::JobTransport::kDirect, 3},
      {"loopback", sched::JobTransport::kLoopback, 2},
      {"tcp", sched::JobTransport::kTcp, 2},
  };

  // Sequential baseline, one plain Run per job.
  for (const auto& def : defs) {
    platform_.Run(
        PerUserCountJob("clicks", std::string(def.id) + ".seq", def.reducers),
        HashOnePassOptions());
  }

  sched::SchedulerOptions sopts;
  sopts.map_slots = 4;
  sopts.reduce_slots = 2;
  sopts.max_concurrent = 3;
  sopts.policy = SchedPolicy::kFair;
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  for (const auto& def : defs) {
    sched::JobRequest request;
    request.id = def.id;
    request.spec = PerUserCountJob(
        "clicks", std::string(def.id) + ".sched", def.reducers);
    request.options = HashOnePassOptions();
    request.transport = def.transport;
    scheduler.Submit(std::move(request));
  }
  const auto reports = scheduler.Drain();
  ASSERT_EQ(reports.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    ASSERT_FALSE(reports[i].failed) << reports[i].id << ": "
                                    << reports[i].error;
    const auto expected =
        SortedOutput(std::string(defs[i].id) + ".seq", defs[i].reducers);
    const auto actual =
        SortedOutput(std::string(defs[i].id) + ".sched", defs[i].reducers);
    EXPECT_EQ(actual, expected) << defs[i].id;
    EXPECT_GT(reports[i].result.output_records, 0u);
  }
  EXPECT_GE(scheduler.stats().peak_concurrent, 2);
}

TEST_F(SchedulerTest, TimelineShiftsJobsOntoSchedulerClock) {
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), {});
  sched::JobRequest request;
  request.id = "tl";
  request.spec = PerUserCountJob("clicks", "tl.out", 2);
  request.options = HashOnePassOptions();
  const int handle = scheduler.Submit(std::move(request));
  const auto report = scheduler.Wait(handle);
  ASSERT_FALSE(report.failed) << report.error;
  const auto timeline = scheduler.Timeline();
  ASSERT_FALSE(timeline.empty());
  for (const auto& iv : timeline) {
    EXPECT_GE(iv.begin_s, report.started_s);
    EXPECT_LE(iv.end_s, report.finished_s + 0.5);
  }
}

TEST_F(SchedulerTest, RunAsyncDeliversResultOnFuture) {
  ClusterExecutor executor(&platform_.dfs(), &platform_.files(),
                           &platform_.metrics(), {.num_nodes = 4});
  const auto spec = PerUserCountJob("clicks", "async.out", 2);
  const auto options = HashOnePassOptions();
  auto future = executor.RunAsync(spec, options);
  const auto result = future.get();
  EXPECT_GT(result.output_records, 0u);

  // Failures surface on get(), not at launch.
  const auto bad = PerUserCountJob("no_such_file", "async2.out", 2);
  auto bad_future = executor.RunAsync(bad, options);
  EXPECT_THROW(bad_future.get(), std::exception);
}

}  // namespace
}  // namespace opmr
