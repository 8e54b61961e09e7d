// Chaos suite: every test runs a job under a seeded FaultPlan and asserts
// the recovery machinery reproduces the fault-free answer byte for byte —
// the exactness guarantee task re-execution must preserve (paper Table III:
// pull shuffle permits re-execution; eager pipelining forfeits it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/opmr.h"
#include "fault/fault.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

constexpr int kReducers = 2;

// One platform per run: the chaos run and the clean reference run must not
// share counters or a workspace.
struct RunOutcome {
  JobResult result;
  Rows rows;
};

RunOutcome RunPerUserCount(const PlatformOptions& popts,
                           const std::string& fault_plan,
                           const JobOptions& options,
                           std::uint64_t records = 20'000) {
  PlatformOptions with_plan = popts;
  with_plan.fault_plan = fault_plan;
  Platform platform(with_plan);
  ClickStreamOptions gen;
  gen.num_records = records;
  gen.num_users = 1'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  RunOutcome out;
  out.result =
      platform.Run(PerUserCountJob("clicks", "out", kReducers), options);
  for (int r = 0; r < kReducers; ++r) {
    const auto part = platform.ReadOutputFile("out.part" + std::to_string(r));
    out.rows.insert(out.rows.end(), part.begin(), part.end());
  }
  return out;
}

PlatformOptions ChaosPlatform() {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 128u << 10;
  popts.max_task_attempts = 3;
  popts.retry_backoff_base_ms = 0.1;  // keep chaos tests fast
  popts.retry_backoff_max_ms = 1.0;
  return popts;
}

TEST(ChaosTest, SpillWriteFaultRecovers) {
  const auto popts = ChaosPlatform();
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  const auto chaos = RunPerUserCount(
      popts, "seed=3;io_write:tag=map_out,task=0,after_bytes=1",
      HadoopOptions());
  EXPECT_EQ(chaos.result.Bytes(kRetryMapTask), 1);
  EXPECT_EQ(chaos.result.Bytes(kFaultsInjected), 1);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, DfsReadFaultRecovers) {
  const auto popts = ChaosPlatform();
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  const auto chaos = RunPerUserCount(
      popts, "seed=3;io_read:tag=dfs_block,task=1", HadoopOptions());
  EXPECT_EQ(chaos.result.Bytes(kRetryMapTask), 1);
  EXPECT_EQ(chaos.result.Bytes(kFaultsInjected), 1);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, MidTaskMapCrashRecovers) {
  const auto popts = ChaosPlatform();
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  const auto chaos = RunPerUserCount(
      popts, "seed=3;map_crash:task=2,record=100", HadoopOptions());
  EXPECT_EQ(chaos.result.Bytes(kRetryMapTask), 1);
  EXPECT_EQ(chaos.result.Bytes(kFaultsInjected), 1);
  EXPECT_EQ(chaos.rows, clean.rows);
}

// The acceptance plan: all three fault classes in one run.
TEST(ChaosTest, CombinedPlanIsByteIdenticalToCleanRun) {
  const auto popts = ChaosPlatform();
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  const auto chaos = RunPerUserCount(
      popts,
      "seed=5;io_write:tag=map_out,task=0,after_bytes=1;"
      "io_read:tag=dfs_block,task=1;map_crash:task=2,record=100",
      HadoopOptions());
  EXPECT_EQ(chaos.result.Bytes(kRetryMapTask), 3);
  EXPECT_EQ(chaos.result.Bytes(kFaultsInjected), 3);
  EXPECT_GT(chaos.rows.size(), 0u);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, PushPipelinedJobFailsFastWithDiagnostic) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 128u << 10;
  popts.fault_plan = "seed=5;map_crash:task=0,record=100";
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 20'000;
  gen.num_users = 1'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  try {
    platform.Run(PerUserCountJob("clicks", "out", kReducers),
                 HashOnePassOptions());
    FAIL() << "push job under a map crash must not succeed";
  } catch (const std::runtime_error& e) {
    // The diagnostic must name the pipelining / fault-tolerance trade-off.
    EXPECT_NE(std::string(e.what()).find("pipelin"), std::string::npos)
        << e.what();
  }
}

TEST(ChaosTest, ReduceCrashReExecutesFromReplayedShuffle) {
  const auto popts = ChaosPlatform();
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  const auto chaos = RunPerUserCount(
      popts, "seed=7;reduce_crash:task=0,record=50", HadoopOptions());
  EXPECT_EQ(chaos.result.Bytes(kRetryReduceTask), 1);
  EXPECT_EQ(chaos.result.Bytes(kRetryMapTask), 0);
  EXPECT_EQ(chaos.result.Bytes(kFaultsInjected), 1);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, FetchStallsOnlyDelayTheJob) {
  const auto popts = ChaosPlatform();
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  const auto chaos = RunPerUserCount(
      popts, "seed=9;fetch_stall:rate=1,delay_ms=0.5", HadoopOptions());
  EXPECT_GT(chaos.result.Bytes(kFaultsInjected), 0);
  EXPECT_EQ(chaos.result.Bytes(kRetryMapTask), 0);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, ReplicaLossDegradesLocalityNotCorrectness) {
  PlatformOptions popts = ChaosPlatform();
  popts.replication = 2;
  const auto clean = RunPerUserCount(popts, "", HadoopOptions());
  // Drop every replica of every block: no map task can be local, but the
  // block data itself is intact and the job must still be exact.
  const auto chaos = RunPerUserCount(popts, "seed=11;replica_loss",
                                     HadoopOptions());
  EXPECT_EQ(chaos.result.local_map_tasks, 0);
  EXPECT_GT(chaos.result.Bytes(kFaultsInjected), 0);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, SlowNodeKeepsOutputExact) {
  PlatformOptions popts;
  popts.num_nodes = 2;
  popts.block_bytes = 64u << 10;
  const auto clean = RunPerUserCount(popts, "", HadoopOptions(), 10'000);
  // Node 0 processes every record ~0.3 ms slower: the delay lands on real
  // records but changes no output.
  const auto chaos = RunPerUserCount(
      popts, "seed=13;slow_node:node=0,delay_ms=0.3", HadoopOptions(),
      10'000);
  EXPECT_GT(chaos.result.Bytes("faults.slowed_records"), 0);
  EXPECT_EQ(chaos.rows, clean.rows);
}

TEST(ChaosTest, SamePlanInjectsIdenticallyAcrossRuns) {
  const auto popts = ChaosPlatform();
  // Rate draws keyed by (task, record) coordinates are scheduler-independent
  // (io rate faults are keyed by file names, which are not): a task id is
  // its block's listing index, so run b's single slot per node, whose
  // claim order can differ, must draw the same faults.
  const std::string plan = "seed=17;map_crash:rate=0.0005";
  const auto a = RunPerUserCount(popts, plan, HadoopOptions());
  PlatformOptions one_slot = popts;
  one_slot.map_slots_per_node = 1;
  const auto b = RunPerUserCount(one_slot, plan, HadoopOptions());
  EXPECT_EQ(a.result.Bytes(kFaultsInjected), b.result.Bytes(kFaultsInjected));
  EXPECT_EQ(a.result.Bytes(kRetryMapTask), b.result.Bytes(kRetryMapTask));
  EXPECT_EQ(a.rows, b.rows);
}

}  // namespace
}  // namespace opmr
