// Public Platform API tests: runtime presets, output reading, workspace
// management, and multi-input jobs.
#include "core/opmr.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "engine/aggregators.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

TEST(RuntimePresets, MatchTableThreeColumns) {
  const auto hadoop = HadoopOptions();
  EXPECT_EQ(hadoop.group_by, GroupBy::kSortMerge);
  EXPECT_EQ(hadoop.shuffle, Shuffle::kPull);
  EXPECT_DOUBLE_EQ(hadoop.snapshot_interval, 0.0);

  const auto hop = MapReduceOnlineOptions();
  EXPECT_EQ(hop.group_by, GroupBy::kSortMerge);
  EXPECT_EQ(hop.shuffle, Shuffle::kPush);
  EXPECT_GT(hop.snapshot_interval, 0.0);

  const auto hash = HashOnePassOptions();
  EXPECT_EQ(hash.group_by, GroupBy::kHash);
  EXPECT_EQ(hash.hash_reduce, HashReduce::kIncremental);

  const auto hot = HotKeyOnePassOptions(777);
  EXPECT_EQ(hot.hash_reduce, HashReduce::kHotKeyIncremental);
  EXPECT_EQ(hot.hot_key_capacity, 777u);
}

TEST(Platform, ExplicitWorkspaceIsUsed) {
  const auto dir = std::filesystem::temp_directory_path() / "opmr-ws-test";
  std::filesystem::remove_all(dir);
  {
    Platform platform({.workspace = dir.string()});
    EXPECT_EQ(platform.files().root(), dir);
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  // FileManager removes the workspace on destruction.
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Platform, ReadOutputSkipsMissingParts) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 2'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  platform.Run(PerUserCountJob("clicks", "out", 2), HadoopOptions());
  // Asking for more parts than reducers must not throw.
  const auto rows = platform.ReadOutput("out", 8);
  EXPECT_FALSE(rows.empty());
}

TEST(Platform, ReadOutputFileOfUnknownFileThrows) {
  Platform platform{PlatformOptions{}};
  EXPECT_THROW(platform.ReadOutputFile("nope"), std::runtime_error);
}

TEST(Platform, MetricsAccumulateAcrossJobs) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 2'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  platform.Run(PerUserCountJob("clicks", "m1", 2), HadoopOptions());
  const auto after_one = platform.metrics().Value(device::kDfsRead);
  platform.Run(PerUserCountJob("clicks", "m2", 2), HadoopOptions());
  EXPECT_GT(platform.metrics().Value(device::kDfsRead), after_one);
}

TEST(Platform, MultiInputJobReadsAllInputs) {
  Platform platform({.num_nodes = 2, .block_bytes = 128u << 10});
  ClickStreamOptions gen;
  gen.num_records = 3'000;
  gen.seed = 1;
  GenerateClickStream(platform.dfs(), "part_a", gen);
  gen.seed = 2;
  GenerateClickStream(platform.dfs(), "part_b", gen);

  JobSpec spec = PerUserCountJob("part_a", "multi_out", 2);
  spec.extra_inputs = {"part_b"};
  const auto result = platform.Run(spec, HashOnePassOptions());
  EXPECT_EQ(result.input_records, 6'000u);
  EXPECT_EQ(result.num_map_tasks,
            static_cast<int>(platform.dfs().ListBlocks("part_a").size() +
                             platform.dfs().ListBlocks("part_b").size()));

  std::uint64_t total = 0;
  for (const auto& [user, v] : platform.ReadOutput("multi_out", 2)) {
    total += DecodeValueU64(v);
  }
  EXPECT_EQ(total, 6'000u);
}

TEST(Platform, IndependentPlatformsDoNotInterfere) {
  Platform a({.num_nodes = 1, .block_bytes = 128u << 10});
  Platform b({.num_nodes = 1, .block_bytes = 128u << 10});
  ClickStreamOptions gen;
  gen.num_records = 500;
  GenerateClickStream(a.dfs(), "clicks", gen);
  GenerateClickStream(b.dfs(), "clicks", gen);  // same name, different DFS
  a.Run(PerUserCountJob("clicks", "out", 1), HadoopOptions());
  EXPECT_FALSE(b.dfs().Exists("out.part0"));
}

TEST(Platform, EmissionCurveEndsAtOutputTotal) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 5'000;
  gen.num_users = 50;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  // Hot-key reducer with early answers: each key crossing the threshold is
  // emitted mid-stream, then again in the final output.
  JobOptions early = HotKeyOnePassOptions(/*capacity=*/16);
  early.early_emit = [](Slice, Slice state) {
    return DecodeValueU64(state) >= 20;
  };
  const std::vector<std::pair<std::string, JobOptions>> runs = {
      {"hash", HashOnePassOptions()},
      {"hadoop", HadoopOptions()},
      {"hotkey_early", early}};
  for (const auto& [name, options] : runs) {
    const auto result =
        platform.Run(PerUserCountJob("clicks", "ec_" + name, 2), options);
    ASSERT_FALSE(result.emission_curve.empty()) << name;
    EXPECT_GT(result.output_records, 0u) << name;
    EXPECT_DOUBLE_EQ(result.emission_curve.back().value,
                     static_cast<double>(result.output_records))
        << name;
  }
}

}  // namespace
}  // namespace opmr
