// Reduce-path stress tests: force every spill / merge / recursion branch
// with tiny buffers and verify exactness against reference answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "core/opmr.h"
#include "engine/aggregators.h"
#include "engine/reduce_hash.h"
#include "engine/reduce_incremental.h"
#include "storage/file_manager.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

// --- HashGrouping over value lists ------------------------------------------

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

  // Groups the records of `runs` without an aggregator, calling `emit_group`
  // once per key with all its values.
  void Group(
      const std::vector<std::filesystem::path>& runs, std::size_t budget,
      const std::function<void(Slice key, const std::vector<Slice>& values)>&
          emit_group) {
    HashGrouping groups(nullptr, /*values_are_states=*/false, /*level=*/0,
                        budget, env_, /*compress=*/false);
    for (const auto& run : runs) groups.AddRun(run);
    groups.Finish([&](const KeyTable& table, std::size_t i) {
      emit_group(table.key(i), table.values(i));
    });
  }

  FileManager files_;
  MetricRegistry metrics_;
  RuntimeEnv env_;
};

TEST_F(ExternalAggregateTest, GroupsAllValuesPerKey) {
  const auto run = WriteRun({{"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"},
                             {"a", "5"}});
  std::map<std::string, std::size_t> group_sizes;
  Group({run}, 1 << 20,
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
  Group({r1, r2}, 1 << 20,
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
  Group({run}, /*budget=*/8 << 10,
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
  Group({run}, /*budget=*/4 << 10,
        [&](Slice key, const std::vector<Slice>& values) {
          ASSERT_EQ(key.ToString(), "hot");
          hot_count = values.size();
        });
  EXPECT_EQ(hot_count, 5'000u);
}

TEST_F(ExternalAggregateTest, EmptyInputProducesNothing) {
  const auto run = WriteRun({});
  Group({run}, 1 << 20, [&](Slice, const std::vector<Slice>&) { FAIL(); });
}

// --- The incremental state store ---------------------------------------------

// Hot-key demotion extracts cold keys one at a time while the hot keys stay
// resident, so the table seldom empties.  Over a long tail of distinct cold
// keys its arena must stay bounded by the live keys, and every answer exact.
TEST(IncrementalStateStore, HotKeyDemotionKeepsTheTableArenaBounded) {
  FileManager files = FileManager::CreateTemp("opmr-store");
  MetricRegistry metrics;
  RuntimeEnv env;
  env.files = &files;
  env.metrics = &metrics;
  SumAggregator sum;
  IncrementalStateStore::Options options;
  options.budget_bytes = 16u << 10;
  options.hot_key_capacity = 32;
  IncrementalStateStore store(&sum, options, env);

  std::map<std::string, std::uint64_t> expected;
  std::size_t worst_excess = 0;
  for (int i = 0; i < 200'000; ++i) {
    // Every other record is one of 16 hot keys; the rest are all distinct.
    const std::string key = i % 2 == 0 ? "hot-" + std::to_string(i % 32)
                                       : "cold-key-" + std::to_string(i);
    store.Fold(key, EncodeValueU64(1));
    ++expected[key];
    if (i % 1000 == 999) {
      const KeyTable& table = store.table();
      std::size_t live = 0;
      for (std::size_t j = 0; j < table.size(); ++j) {
        live += table.key(j).size();
      }
      if (table.ArenaBytes() > 2 * live) {
        worst_excess = std::max(worst_excess, table.ArenaBytes() - 2 * live);
      }
    }
  }
  EXPECT_TRUE(store.spilled());
  EXPECT_LE(worst_excess, 3u * (64u << 10))
      << "~1.6 MB of cold keys went through the table";

  std::map<std::string, std::uint64_t> actual;
  store.Finish([&](Slice key, Slice value) {
    actual[key.ToString()] += DecodeValueU64(value);
  });
  EXPECT_EQ(actual, expected);
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

// Sum, min and max take one u64 per value.  A 4-byte value fails the job
// whether its key is seen once (Init) or more often (Update), on the hash
// and the sort-merge runtimes, with and without the map-side combine.
TEST(U64Aggregators, BadWidthValuesFailTheJobOnEveryRuntime) {
  Platform platform({.num_nodes = 1});
  auto write = [&](const std::string& name,
                   const std::vector<std::string>& records) {
    auto writer = platform.dfs().Create(name);
    for (const auto& r : records) writer->Append(r);
    writer->Close();
  };
  write("seen_once", {"a"});
  write("seen_twice", {"b", "b"});
  int job = 0;
  for (const char* input : {"seen_once", "seen_twice"}) {
    for (JobOptions options : {HashOnePassOptions(), HadoopOptions()}) {
      for (const bool combine : {true, false}) {
        options.map_side_combine = combine;
        JobSpec spec;
        spec.name = "bad_width";
        spec.input_file = input;
        spec.output_file = "bad_width_out" + std::to_string(job++);
        spec.num_reducers = 1;
        spec.aggregator = std::make_shared<SumAggregator>();
        spec.map = [](Slice record, OutputCollector& out) {
          out.Emit(record, "abcd");
        };
        EXPECT_THROW(platform.Run(spec, options), std::runtime_error)
            << input << " combine=" << combine;
      }
    }
  }
}

}  // namespace
}  // namespace opmr
