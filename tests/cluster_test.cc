#include "engine/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "core/opmr.h"
#include "engine/aggregators.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : platform_({.num_nodes = 3, .block_bytes = 256u << 10}) {
    ClickStreamOptions gen;
    gen.num_records = 30'000;
    gen.num_users = 1'000;
    GenerateClickStream(platform_.dfs(), "clicks", gen);
  }

  Platform platform_;
};

TEST_F(ClusterTest, ValidatesJobSpec) {
  JobSpec no_map;
  no_map.input_file = "clicks";
  no_map.output_file = "o";
  no_map.reduce = [](Slice, ValueIterator&, OutputCollector&) {};
  EXPECT_THROW(platform_.Run(no_map, HadoopOptions()), std::invalid_argument);

  JobSpec no_reduce;
  no_reduce.input_file = "clicks";
  no_reduce.output_file = "o";
  no_reduce.map = [](Slice, OutputCollector&) {};
  EXPECT_THROW(platform_.Run(no_reduce, HadoopOptions()),
               std::invalid_argument);

  JobSpec bad_reducers = PerUserCountJob("clicks", "o", 0);
  EXPECT_THROW(platform_.Run(bad_reducers, HadoopOptions()),
               std::invalid_argument);
}

TEST_F(ClusterTest, ValidatesOptionCombinations) {
  // Incremental hash requires an aggregator.
  JobOptions hash = HashOnePassOptions();
  auto holistic = SessionizationJob("clicks", "o1", 2);
  EXPECT_THROW(platform_.Run(holistic, hash), std::invalid_argument);

  // Snapshots only exist for sort-merge.
  JobOptions snap = HashOnePassOptions();
  snap.snapshot_interval = 0.25;
  EXPECT_THROW(platform_.Run(PerUserCountJob("clicks", "o2", 2), snap),
               std::invalid_argument);

  // Merge factor sanity.
  JobOptions bad_f = HadoopOptions();
  bad_f.merge_factor = 1;
  EXPECT_THROW(platform_.Run(PerUserCountJob("clicks", "o3", 2), bad_f),
               std::invalid_argument);
}

TEST_F(ClusterTest, MapTaskFailurePropagatesWithoutDeadlock) {
  JobSpec poison = PerUserCountJob("clicks", "o4", 2);
  poison.map = [](Slice, OutputCollector&) {
    throw std::runtime_error("injected map failure");
  };
  EXPECT_THROW(platform_.Run(poison, HadoopOptions()), std::runtime_error);
}

TEST_F(ClusterTest, ReduceFailurePropagates) {
  JobSpec poison = SessionizationJob("clicks", "o5", 2);
  poison.reduce = [](Slice, ValueIterator&, OutputCollector&) {
    throw std::runtime_error("injected reduce failure");
  };
  EXPECT_THROW(platform_.Run(poison, HadoopOptions()), std::runtime_error);
}

TEST_F(ClusterTest, PlatformSurvivesFailedJobAndRunsNextOne) {
  JobSpec poison = PerUserCountJob("clicks", "o6", 2);
  poison.map = [](Slice, OutputCollector&) {
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(platform_.Run(poison, HadoopOptions()), std::runtime_error);
  const auto result =
      platform_.Run(PerUserCountJob("clicks", "o7", 2), HadoopOptions());
  EXPECT_GT(result.output_records, 0u);
}

TEST_F(ClusterTest, ResultMetadataIsConsistent) {
  const auto result =
      platform_.Run(PerUserCountJob("clicks", "o8", 3), HadoopOptions());
  EXPECT_EQ(result.job_name, "per_user_count");
  EXPECT_EQ(result.num_map_tasks,
            static_cast<int>(platform_.dfs().ListBlocks("clicks").size()));
  EXPECT_EQ(result.num_reduce_tasks, 3);
  EXPECT_EQ(result.input_records, 30'000u);
  EXPECT_EQ(result.map_output_records, 30'000u);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.total_cpu_seconds, 0.0);
  EXPECT_LE(result.local_map_tasks, result.num_map_tasks);

  // Timeline: every interval within [0, wall] and at least one of each of
  // map/shuffle/reduce.
  bool saw[4] = {false, false, false, false};
  for (const auto& iv : result.timeline) {
    EXPECT_GE(iv.begin_s, 0.0);
    EXPECT_LE(iv.end_s, result.wall_seconds + 0.5);
    EXPECT_LE(iv.begin_s, iv.end_s);
    saw[static_cast<int>(iv.kind)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(TaskKind::kMap)]);
  EXPECT_TRUE(saw[static_cast<int>(TaskKind::kShuffle)]);
  EXPECT_TRUE(saw[static_cast<int>(TaskKind::kReduce)]);
}

TEST_F(ClusterTest, CountersAreJobScopedDeltas) {
  const auto r1 =
      platform_.Run(PerUserCountJob("clicks", "o9", 2), HadoopOptions());
  const auto r2 =
      platform_.Run(PerUserCountJob("clicks", "o10", 2), HadoopOptions());
  // Two identical jobs must report (approximately) identical I/O, not
  // cumulative totals.
  EXPECT_EQ(r1.Bytes(device::kDfsRead), r2.Bytes(device::kDfsRead));
  EXPECT_EQ(r1.Bytes(device::kMapOutputWrite),
            r2.Bytes(device::kMapOutputWrite));
}

TEST_F(ClusterTest, SchedulerPrefersLocalBlocks) {
  // With replication = num_nodes every block is local everywhere.
  Platform local_platform(
      {.num_nodes = 2, .block_bytes = 64u << 10, .replication = 2});
  ClickStreamOptions gen;
  gen.num_records = 5'000;
  GenerateClickStream(local_platform.dfs(), "clicks", gen);
  const auto result = local_platform.Run(
      PerUserCountJob("clicks", "local_out", 2), HadoopOptions());
  EXPECT_EQ(result.local_map_tasks, result.num_map_tasks);
}

TEST_F(ClusterTest, BlockSchedulerHandsOutEachBlockOnce) {
  std::vector<BlockInfo> blocks(10);
  for (int i = 0; i < 10; ++i) {
    blocks[i].block_id = static_cast<std::uint64_t>(i);
    blocks[i].replica_nodes = {i % 2};
  }
  BlockScheduler scheduler(blocks, 2);
  std::set<std::uint64_t> seen;
  bool local = false;
  for (int i = 0; i < 10; ++i) {
    auto block = scheduler.Next(i % 2, &local);
    ASSERT_TRUE(block.has_value());
    EXPECT_TRUE(seen.insert(block->block_id).second) << "duplicate block";
  }
  EXPECT_FALSE(scheduler.Next(0, &local).has_value());
  EXPECT_EQ(scheduler.local_count(), 10);
}

TEST_F(ClusterTest, SchedulerFallsBackToRemoteBlocks) {
  std::vector<BlockInfo> blocks(4);
  for (int i = 0; i < 4; ++i) {
    blocks[i].block_id = static_cast<std::uint64_t>(i);
    blocks[i].replica_nodes = {0};  // all blocks on node 0
  }
  BlockScheduler scheduler(blocks, 2);
  bool local = true;
  auto block = scheduler.Next(1, &local);  // node 1 holds nothing
  ASSERT_TRUE(block.has_value());
  EXPECT_FALSE(local);
}

TEST_F(ClusterTest, BlockSchedulerAllBlocksRemoteToEveryNode) {
  // Replicas live on a node outside the cluster (a decommissioned host):
  // every Next() must still hand out every block exactly once, all remote.
  std::vector<BlockInfo> blocks(6);
  for (int i = 0; i < 6; ++i) {
    blocks[i].block_id = static_cast<std::uint64_t>(i);
    blocks[i].replica_nodes = {7};
  }
  BlockScheduler scheduler(blocks, 2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 6; ++i) {
    bool local = true;
    auto block = scheduler.Next(i % 2, &local);
    ASSERT_TRUE(block.has_value());
    EXPECT_FALSE(local);
    EXPECT_TRUE(seen.insert(block->block_id).second) << "duplicate block";
  }
  bool local = false;
  EXPECT_FALSE(scheduler.Next(0, &local).has_value());
  EXPECT_EQ(scheduler.local_count(), 0);
}

TEST_F(ClusterTest, BlockSchedulerLocalityTieBreakIsDeterministic) {
  // Every block is replicated on both nodes, so every pick is a locality
  // tie.  Two schedulers fed the same request sequence must hand out the
  // same blocks in the same order.
  std::vector<BlockInfo> blocks(8);
  for (int i = 0; i < 8; ++i) {
    blocks[i].block_id = static_cast<std::uint64_t>(100 + i);
    blocks[i].replica_nodes = {0, 1};
  }
  BlockScheduler a(blocks, 2);
  BlockScheduler b(blocks, 2);
  for (int i = 0; i < 8; ++i) {
    const int node = (i * 3) % 2;
    bool local_a = false;
    bool local_b = false;
    const auto block_a = a.Next(node, &local_a);
    const auto block_b = b.Next(node, &local_b);
    ASSERT_TRUE(block_a.has_value());
    ASSERT_TRUE(block_b.has_value());
    EXPECT_EQ(block_a->block_id, block_b->block_id) << "pick " << i;
    EXPECT_EQ(local_a, local_b);
    EXPECT_TRUE(local_a);
  }
}

TEST_F(ClusterTest, FlakyMapTasksSucceedWithRetries) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10,
                     .max_task_attempts = 3});
  ClickStreamOptions gen;
  gen.num_records = 10'000;
  gen.num_users = 300;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  // Inject transient faults mid-block (after some emits, so a retry
  // without the publish barrier would duplicate records).  The global
  // counter never repeats a value, so each fault fires exactly once and
  // the retry succeeds.
  auto counter = std::make_shared<std::atomic<int>>(0);
  JobSpec flaky = PerUserCountJob("clicks", "flaky_out", 2);
  const MapFn inner = flaky.map;
  flaky.map = [counter, inner](Slice record, OutputCollector& out) {
    const int n = counter->fetch_add(1);
    inner(record, out);
    if (n == 700 || n == 5'000) throw std::runtime_error("transient fault");
  };
  const auto result = platform.Run(flaky, HadoopOptions());
  EXPECT_GT(result.Bytes(kRetryMapTask), 0);

  // Exactness despite retries: totals must match a clean run.
  const auto clean =
      platform.Run(PerUserCountJob("clicks", "clean_out", 2), HadoopOptions());
  std::map<std::string, std::string> a, b;
  for (const auto& kv : platform.ReadOutput("flaky_out", 2)) a.insert(kv);
  for (const auto& kv : platform.ReadOutput("clean_out", 2)) b.insert(kv);
  EXPECT_EQ(a, b);
  EXPECT_EQ(clean.Bytes(kRetryMapTask), 0);
}

TEST_F(ClusterTest, SingleTransientFailureRetriesExactlyOnce) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10,
                     .max_task_attempts = 3});
  ClickStreamOptions gen;
  gen.num_records = 8'000;
  gen.num_users = 200;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  // Exactly one attempt ever fails: the flag flips on the first record seen
  // and stays flipped, so the re-execution (and every other task) succeeds.
  auto tripped = std::make_shared<std::atomic<bool>>(false);
  JobSpec flaky = PerUserCountJob("clicks", "flaky1_out", 2);
  const MapFn inner = flaky.map;
  flaky.map = [tripped, inner](Slice record, OutputCollector& out) {
    if (!tripped->exchange(true)) {
      throw std::runtime_error("one-shot transient fault");
    }
    inner(record, out);
  };
  const auto result = platform.Run(flaky, HadoopOptions());
  EXPECT_EQ(result.Bytes(kRetryMapTask), 1);
  EXPECT_EQ(result.Bytes(kRetryReduceTask), 0);

  // Byte-identical to a clean run, part by part (sort-merge output is
  // deterministically ordered within each reducer).
  platform.Run(PerUserCountJob("clicks", "clean1_out", 2), HadoopOptions());
  for (int r = 0; r < 2; ++r) {
    const auto part = ".part" + std::to_string(r);
    EXPECT_EQ(platform.ReadOutputFile("flaky1_out" + part),
              platform.ReadOutputFile("clean1_out" + part));
  }
}

TEST_F(ClusterTest, PermanentFailureExhaustsRetries) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10,
                     .max_task_attempts = 2});
  ClickStreamOptions gen;
  gen.num_records = 1'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  JobSpec doomed = PerUserCountJob("clicks", "doomed", 2);
  doomed.map = [](Slice, OutputCollector&) {
    throw std::runtime_error("permanent fault");
  };
  EXPECT_THROW(platform.Run(doomed, HadoopOptions()), std::runtime_error);
}

TEST_F(ClusterTest, RetriesWithPushShuffleRunCleanly) {
  // Retry budgets are legal under push shuffle (checkpointing needs them);
  // a fault-free run simply never uses them.  Only an actual reduce failure
  // without checkpoints surfaces the Table III replay error (chaos suite).
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10,
                     .max_task_attempts = 3});
  ClickStreamOptions gen;
  gen.num_records = 1'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  const auto result =
      platform.Run(PerUserCountJob("clicks", "o12", 2), HashOnePassOptions());
  EXPECT_GT(result.output_records, 0u);
  EXPECT_EQ(result.Bytes(kRetryReduceTask), 0);
}

TEST_F(ClusterTest, EmptyInputProducesEmptyOutput) {
  platform_.dfs().Create("empty")->Close();
  const auto result =
      platform_.Run(PerUserCountJob("empty", "o11", 2), HadoopOptions());
  EXPECT_EQ(result.input_records, 0u);
  EXPECT_EQ(result.output_records, 0u);
}

TEST_F(ClusterTest, SingleReducerSingleNodeWorks) {
  Platform tiny({.num_nodes = 1, .map_slots_per_node = 1,
                 .block_bytes = 64u << 10});
  ClickStreamOptions gen;
  gen.num_records = 2'000;
  GenerateClickStream(tiny.dfs(), "clicks", gen);
  const auto result =
      tiny.Run(PerUserCountJob("clicks", "tiny_out", 1), HadoopOptions());
  EXPECT_GT(result.output_records, 0u);
}

}  // namespace
}  // namespace opmr
