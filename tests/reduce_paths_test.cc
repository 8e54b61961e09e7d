// Reduce-path stress tests: force every spill / merge / recursion branch
// with tiny buffers and verify exactness against reference answers.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/opmr.h"
#include "engine/aggregators.h"
#include "engine/reduce_hash.h"
#include "storage/file_manager.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

// --- ExternalHashAggregate unit tests -----------------------------------------

class ExternalAggregateTest : public ::testing::Test {
 protected:
  ExternalAggregateTest() : files_(FileManager::CreateTemp("opmr-xagg")) {
    env_.files = &files_;
    env_.metrics = &metrics_;
  }

  std::filesystem::path WriteRun(
      const std::vector<std::pair<std::string, std::string>>& records) {
    RunWriter w(files_.NewFile("in"), IoChannel(&metrics_, "t.bytes"));
    for (const auto& [k, v] : records) w.Append(k, v);
    const auto path = w.path();
    w.Close();
    return path;
  }

  FileManager files_;
  MetricRegistry metrics_;
  RuntimeEnv env_;
};

TEST_F(ExternalAggregateTest, GroupsAllValuesPerKey) {
  const auto run = WriteRun({{"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"},
                             {"a", "5"}});
  std::map<std::string, std::size_t> group_sizes;
  ExternalHashAggregate({run}, 0, 1 << 20, env_,
                        [&](Slice key, const std::vector<Slice>& values) {
                          group_sizes[key.ToString()] = values.size();
                        });
  EXPECT_EQ(group_sizes.at("a"), 3u);
  EXPECT_EQ(group_sizes.at("b"), 1u);
  EXPECT_EQ(group_sizes.at("c"), 1u);
}

TEST_F(ExternalAggregateTest, MultipleRunsAreUnified) {
  const auto r1 = WriteRun({{"k", "1"}, {"x", "2"}});
  const auto r2 = WriteRun({{"k", "3"}});
  std::map<std::string, std::size_t> sizes;
  ExternalHashAggregate({r1, r2}, 0, 1 << 20, env_,
                        [&](Slice key, const std::vector<Slice>& values) {
                          sizes[key.ToString()] = values.size();
                        });
  EXPECT_EQ(sizes.at("k"), 2u);
  EXPECT_EQ(sizes.at("x"), 1u);
}

TEST_F(ExternalAggregateTest, TinyBudgetForcesRecursionYetStaysExact) {
  std::vector<std::pair<std::string, std::string>> records;
  std::map<std::string, std::uint64_t> expected;
  Rng rng(9);
  for (int i = 0; i < 20'000; ++i) {
    const std::string k = "key" + std::to_string(rng.Uniform(500));
    records.emplace_back(k, "0123456789");
    ++expected[k];
  }
  const auto run = WriteRun(records);

  std::map<std::string, std::uint64_t> actual;
  ExternalHashAggregate({run}, 0, /*budget=*/8 << 10, env_,
                        [&](Slice key, const std::vector<Slice>& values) {
                          actual[key.ToString()] +=
                              static_cast<std::uint64_t>(values.size());
                        });
  EXPECT_EQ(actual, expected);
  EXPECT_GT(metrics_.Value(device::kSpillWrite), 0)
      << "an 8 KiB budget over ~500 KiB of data must spill";
}

TEST_F(ExternalAggregateTest, GiantSingleKeyGroupDoesNotRecurseForever) {
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < 5'000; ++i) {
    records.emplace_back("hot", "padpadpadpadpad");
  }
  const auto run = WriteRun(records);
  std::size_t hot_count = 0;
  // Budget far below the single group's footprint: the single-key bucket
  // must be processed in memory instead of recursing.
  ExternalHashAggregate({run}, 0, /*budget=*/4 << 10, env_,
                        [&](Slice key, const std::vector<Slice>& values) {
                          ASSERT_EQ(key.ToString(), "hot");
                          hot_count = values.size();
                        });
  EXPECT_EQ(hot_count, 5'000u);
}

TEST_F(ExternalAggregateTest, EmptyInputProducesNothing) {
  const auto run = WriteRun({});
  ExternalHashAggregate({run}, 0, 1 << 20, env_,
                        [&](Slice, const std::vector<Slice>&) { FAIL(); });
}

// --- Forced-stress integration through the platform ---------------------------

std::map<std::string, std::uint64_t> CountsByUser(Platform& platform,
                                                  const std::string& prefix,
                                                  int reducers) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : platform.ReadOutput(prefix, reducers)) {
    out[k] = DecodeValueU64(v);
  }
  return out;
}

class ReducePathStress : public ::testing::Test {
 protected:
  ReducePathStress() : platform_({.num_nodes = 2, .block_bytes = 128u << 10}) {
    ClickStreamOptions gen;
    gen.num_records = 60'000;
    gen.num_users = 3'000;
    GenerateClickStream(platform_.dfs(), "clicks", gen);
    reference_ = Run("ref", HadoopOptions());
  }

  std::map<std::string, std::uint64_t> Run(const std::string& tag,
                                           JobOptions options) {
    const auto spec = PerUserCountJob("clicks", "out_" + tag, 3);
    last_result_ = platform_.Run(spec, options);
    return CountsByUser(platform_, "out_" + tag, 3);
  }

  Platform platform_;
  std::map<std::string, std::uint64_t> reference_;
  JobResult last_result_;
};

TEST_F(ReducePathStress, SortMergeMultiPassMergeIsExact) {
  JobOptions options = HadoopOptions();
  options.map_side_combine = false;       // big shuffled volume
  options.reduce_buffer_bytes = 16u << 10;  // many memory spills
  options.merge_factor = 2;                 // maximal merge passes
  EXPECT_EQ(Run("sm_stress", options), reference_);
  EXPECT_GT(last_result_.Bytes(device::kSpillRead), 0);
}

TEST_F(ReducePathStress, SortMergeTinyMapBufferSpillsMapSide) {
  JobOptions options = HadoopOptions();
  options.map_buffer_bytes = 8u << 10;  // many sorted spills per map task
  EXPECT_EQ(Run("sm_mapspill", options), reference_);
}

TEST_F(ReducePathStress, HybridHashDemotionAndRecursionIsExact) {
  JobOptions options = HashOnePassOptions();
  options.hash_reduce = HashReduce::kHybridHash;
  options.map_side_combine = false;
  options.reduce_buffer_bytes = 16u << 10;
  EXPECT_EQ(Run("hh_stress", options), reference_);
  EXPECT_GT(last_result_.Bytes(device::kSpillWrite), 0);
}

TEST_F(ReducePathStress, IncrementalTableSpillsAreExact) {
  JobOptions options = HashOnePassOptions();
  options.map_side_combine = false;
  options.reduce_buffer_bytes = 16u << 10;
  EXPECT_EQ(Run("inc_stress", options), reference_);
  EXPECT_GT(last_result_.Bytes(device::kSpillWrite), 0);
}

TEST_F(ReducePathStress, HotKeyTinyCapacityIsExact) {
  JobOptions options = HotKeyOnePassOptions(/*capacity=*/16);
  options.map_side_combine = false;
  options.reduce_buffer_bytes = 16u << 10;
  EXPECT_EQ(Run("hot_stress", options), reference_);
}

TEST_F(ReducePathStress, HotKeyAmpleMemoryNeverSpills) {
  JobOptions options = HotKeyOnePassOptions(/*capacity=*/8192);
  options.reduce_buffer_bytes = 64u << 20;
  EXPECT_EQ(Run("hot_ample", options), reference_);
  EXPECT_EQ(last_result_.Bytes(device::kSpillWrite), 0);
}

TEST_F(ReducePathStress, HotKeyApproximateOutputBoundsTheExactAnswer) {
  JobOptions tight = HotKeyOnePassOptions(/*capacity=*/16);
  tight.reduce_buffer_bytes = 16u << 10;
  const auto exact = Run("hot_early", tight);
  EXPECT_EQ(exact, reference_);
  // Resident hot keys' answers as of end of input, before the cold pass:
  // each counts a subset of the key's clicks.
  std::size_t approx_rows = 0;
  for (int r = 0; r < 3; ++r) {
    const std::string name = "out_hot_early.early.part" + std::to_string(r);
    ASSERT_TRUE(platform_.dfs().Exists(name)) << name;
    for (const auto& [user, value] : platform_.ReadOutputFile(name)) {
      ASSERT_TRUE(exact.count(user)) << user;
      EXPECT_LE(DecodeValueU64(value), exact.at(user)) << user;
      ++approx_rows;
    }
  }
  EXPECT_GT(approx_rows, 0u);

  // Nothing went cold, so the exact answers are the only answers.
  JobOptions ample = HotKeyOnePassOptions(/*capacity=*/8192);
  ample.reduce_buffer_bytes = 64u << 20;
  EXPECT_EQ(Run("hot_no_early", ample), reference_);
  for (int r = 0; r < 3; ++r) {
    EXPECT_FALSE(platform_.dfs().Exists("out_hot_no_early.early.part" +
                                        std::to_string(r)));
  }
}

TEST_F(ReducePathStress, PushAndPullAgreeUnderStress) {
  JobOptions push = HashOnePassOptions();
  push.map_side_combine = false;
  push.reduce_buffer_bytes = 32u << 10;
  push.push_chunk_bytes = 2u << 10;
  push.push_queue_chunks = 2;  // heavy back-pressure + diversions
  JobOptions pull = push;
  pull.shuffle = Shuffle::kPull;
  EXPECT_EQ(Run("push_stress", push), reference_);
  EXPECT_EQ(Run("pull_stress", pull), reference_);
}

TEST_F(ReducePathStress, SnapshotsAreSubsetOfFinalAnswer) {
  JobOptions options = MapReduceOnlineOptions();
  options.map_side_combine = false;
  Run("snap", options);
  // Snapshot counts must never exceed the final counts (they reflect a
  // prefix of the input).
  for (int s = 1; s <= 3; ++s) {
    for (int r = 0; r < 3; ++r) {
      const std::string name = "out_snap.snapshot" + std::to_string(s) +
                               ".part" + std::to_string(r);
      if (!platform_.dfs().Exists(name)) continue;
      for (const auto& [user, value] : platform_.ReadOutputFile(name)) {
        ASSERT_TRUE(reference_.count(user)) << user;
        EXPECT_LE(DecodeValueU64(value), reference_.at(user)) << user;
      }
    }
  }
}

}  // namespace
}  // namespace opmr
