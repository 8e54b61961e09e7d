// Randomized end-to-end property tests.
//
// Invariant: for any input distribution and any runtime configuration, a
// counting job must produce exactly the reference per-key totals, and a
// holistic job must see exactly the reference value multiset per key.
// The parameter grid deliberately includes pathological buffer sizes that
// force every spill / merge / divert / recursion path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/opmr.h"
#include "engine/aggregators.h"

namespace opmr {
namespace {

struct FuzzConfig {
  std::string name;
  GroupBy group_by;
  Shuffle shuffle;
  HashReduce hash_reduce;
  bool combine;
  std::size_t map_buffer;
  std::size_t reduce_buffer;
  int merge_factor;
  int reducers;
  bool compress = false;
};

class CountingFuzz : public ::testing::TestWithParam<FuzzConfig> {};

// Seeds chosen per-test for variety but deterministic reproduction.
constexpr std::uint64_t kDataSeed = 0xfeedbeef;

void LoadRandomKv(Platform& platform, const std::string& name,
                  std::map<std::string, std::uint64_t>* truth,
                  int num_records, int key_space) {
  Rng rng(kDataSeed);
  auto writer = platform.dfs().Create(name);
  std::string record;
  for (int i = 0; i < num_records; ++i) {
    // Mixed-length keys, including empty-ish and long keys.
    std::string key;
    const auto kind = rng.Uniform(20);
    if (kind == 0) {
      key = "k";
    } else if (kind == 1) {
      key = "very-long-key-" + std::string(100, 'x') +
            std::to_string(rng.Uniform(5));
    } else {
      key = "key-" + std::to_string(rng.Uniform(key_space));
    }
    const std::uint64_t weight = 1 + rng.Uniform(9);
    (*truth)[key] += weight;
    record = key + "\t" + std::to_string(weight);
    writer->Append(record);
  }
  writer->Close();
}

JobSpec SumJob(const std::string& input, const std::string& output,
               int reducers) {
  JobSpec spec;
  spec.name = "fuzz_sum";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = reducers;
  spec.aggregator = std::make_shared<SumAggregator>();
  spec.map = [](Slice record, OutputCollector& out) {
    const auto tab = record.view().find('\t');
    const std::uint64_t weight =
        std::stoull(std::string(record.view().substr(tab + 1)));
    out.Emit(Slice(record.data(), tab), EncodeValueU64(weight));
  };
  return spec;
}

TEST_P(CountingFuzz, ExactTotalsUnderAllConfigurations) {
  const FuzzConfig& cfg = GetParam();

  Platform platform({.num_nodes = 2, .block_bytes = 64u << 10});
  std::map<std::string, std::uint64_t> truth;
  LoadRandomKv(platform, "kv", &truth, 20'000, 700);

  JobOptions options;
  options.group_by = cfg.group_by;
  options.shuffle = cfg.shuffle;
  options.hash_reduce = cfg.hash_reduce;
  options.map_side_combine = cfg.combine;
  options.map_buffer_bytes = cfg.map_buffer;
  options.reduce_buffer_bytes = cfg.reduce_buffer;
  options.merge_factor = cfg.merge_factor;
  options.hot_key_capacity = 32;  // tiny: maximal churn
  options.push_chunk_bytes = 1u << 10;
  options.push_queue_chunks = 2;
  options.compress_spills = cfg.compress;

  platform.Run(SumJob("kv", "out", cfg.reducers), options);

  std::map<std::string, std::uint64_t> actual;
  for (const auto& [k, v] : platform.ReadOutput("out", cfg.reducers)) {
    EXPECT_EQ(actual.count(k), 0u) << "duplicate key in output: " << k;
    actual[k] = DecodeValueU64(v);
  }
  EXPECT_EQ(actual, truth);
}

std::vector<FuzzConfig> CountingGrid() {
  std::vector<FuzzConfig> grid;
  const std::size_t kTinyBuf = 4u << 10;
  const std::size_t kBigBuf = 8u << 20;
  // Sort-merge: both shuffles, combine on/off, tiny and big buffers, F=2.
  for (bool combine : {true, false}) {
    for (auto shuffle : {Shuffle::kPull, Shuffle::kPush}) {
      for (std::size_t buf : {kTinyBuf, kBigBuf}) {
        grid.push_back({"", GroupBy::kSortMerge, shuffle,
                        HashReduce::kHybridHash, combine, buf, buf, 2, 3});
      }
    }
  }
  // Hash paths.
  for (auto path : {HashReduce::kHybridHash, HashReduce::kIncremental,
                    HashReduce::kHotKeyIncremental}) {
    for (bool combine : {true, false}) {
      for (std::size_t buf : {kTinyBuf, kBigBuf}) {
        grid.push_back({"", GroupBy::kHash, Shuffle::kPush, path, combine,
                        buf, buf, 10, 3});
      }
    }
  }
  // Single reducer edge case.
  grid.push_back({"", GroupBy::kSortMerge, Shuffle::kPull,
                  HashReduce::kHybridHash, true, kBigBuf, kBigBuf, 10, 1});
  grid.push_back({"", GroupBy::kHash, Shuffle::kPush,
                  HashReduce::kIncremental, true, kBigBuf, kBigBuf, 10, 1});
  // Compressed-spill variants, pinned to the tiny buffers that force every
  // spill path through the codec.
  grid.push_back({"", GroupBy::kSortMerge, Shuffle::kPull,
                  HashReduce::kHybridHash, false, kTinyBuf, kTinyBuf, 2, 3,
                  true});
  grid.push_back({"", GroupBy::kHash, Shuffle::kPush,
                  HashReduce::kIncremental, false, kTinyBuf, kTinyBuf, 10, 3,
                  true});
  grid.push_back({"", GroupBy::kHash, Shuffle::kPush,
                  HashReduce::kHybridHash, false, kTinyBuf, kTinyBuf, 10, 3,
                  true});
  grid.push_back({"", GroupBy::kHash, Shuffle::kPush,
                  HashReduce::kHotKeyIncremental, false, kTinyBuf, kTinyBuf,
                  10, 3, true});

  for (std::size_t i = 0; i < grid.size(); ++i) {
    auto& g = grid[i];
    g.name = std::string(g.group_by == GroupBy::kSortMerge ? "sm" : "hash") +
             (g.group_by == GroupBy::kHash
                  ? (g.hash_reduce == HashReduce::kHybridHash    ? "_hybrid"
                     : g.hash_reduce == HashReduce::kIncremental ? "_incr"
                                                                 : "_hotkey")
                  : "") +
             (g.shuffle == Shuffle::kPush ? "_push" : "_pull") +
             (g.combine ? "_combine" : "_nocombine") +
             (g.map_buffer < (1u << 20) ? "_tinybuf" : "_bigbuf") + "_r" +
             std::to_string(g.reducers) + (g.compress ? "_oz" : "");
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CountingFuzz,
                         ::testing::ValuesIn(CountingGrid()),
                         [](const auto& info) { return info.param.name; });

// --- Holistic job fuzz ---------------------------------------------------------

struct HolisticConfig {
  std::string name;
  GroupBy group_by;
  Shuffle shuffle;
  std::size_t buffers;
};

// Print the case by name: the default byte dump would embed the string's
// heap pointer in the listed test name, so each build would name it anew.
void PrintTo(const HolisticConfig& cfg, std::ostream* os) { *os << cfg.name; }

class HolisticFuzz : public ::testing::TestWithParam<HolisticConfig> {};

TEST_P(HolisticFuzz, ValueMultisetsSurviveGrouping) {
  const auto& cfg = GetParam();
  Platform platform({.num_nodes = 2, .block_bytes = 64u << 10});

  Rng rng(kDataSeed ^ 0x77);
  std::map<std::string, std::multiset<std::string>> truth;
  auto writer = platform.dfs().Create("kv");
  for (int i = 0; i < 10'000; ++i) {
    const std::string key = "g" + std::to_string(rng.Uniform(200));
    const std::string value = "v" + std::to_string(rng.Next() % 1000);
    truth[key].insert(value);
    writer->Append(key + "\t" + value);
  }
  writer->Close();

  JobSpec spec;
  spec.name = "fuzz_collect";
  spec.input_file = "kv";
  spec.output_file = "out";
  spec.num_reducers = 3;
  spec.map = [](Slice record, OutputCollector& out) {
    const auto tab = record.view().find('\t');
    out.Emit(Slice(record.data(), tab),
             Slice(record.data() + tab + 1, record.size() - tab - 1));
  };
  // Emit the group's sorted value list so output is order-independent.
  spec.reduce = [](Slice key, ValueIterator& values, OutputCollector& out) {
    std::vector<std::string> all;
    Slice v;
    while (values.Next(&v)) all.push_back(v.ToString());
    std::sort(all.begin(), all.end());
    std::string joined;
    for (const auto& s : all) {
      joined += s;
      joined += ',';
    }
    out.Emit(key, joined);
  };

  JobOptions options;
  options.group_by = cfg.group_by;
  options.shuffle = cfg.shuffle;
  options.hash_reduce = HashReduce::kHybridHash;
  options.map_buffer_bytes = cfg.buffers;
  options.reduce_buffer_bytes = cfg.buffers;
  options.merge_factor = 3;
  platform.Run(spec, options);

  std::map<std::string, std::string> actual;
  for (const auto& [k, v] : platform.ReadOutput("out", 3)) actual[k] = v;

  ASSERT_EQ(actual.size(), truth.size());
  for (const auto& [key, values] : truth) {
    std::string joined;
    for (const auto& s : values) {
      joined += s;
      joined += ',';
    }
    EXPECT_EQ(actual.at(key), joined) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HolisticFuzz,
    ::testing::Values(
        HolisticConfig{"sm_pull_tiny", GroupBy::kSortMerge, Shuffle::kPull,
                       4u << 10},
        HolisticConfig{"sm_push_tiny", GroupBy::kSortMerge, Shuffle::kPush,
                       4u << 10},
        HolisticConfig{"sm_pull_big", GroupBy::kSortMerge, Shuffle::kPull,
                       8u << 20},
        HolisticConfig{"hash_hybrid_tiny", GroupBy::kHash, Shuffle::kPush,
                       4u << 10},
        HolisticConfig{"hash_hybrid_big", GroupBy::kHash, Shuffle::kPush,
                       8u << 20}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace opmr
