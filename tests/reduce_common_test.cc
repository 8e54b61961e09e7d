#include "engine/reduce_common.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "engine/aggregators.h"
#include "storage/file_manager.h"
#include "storage/record_stream.h"

namespace opmr {
namespace {

std::string FrameRecords(
    const std::vector<std::pair<std::string, std::string>>& records) {
  std::string blob;
  for (const auto& [k, v] : records) {
    AppendU32(blob, static_cast<std::uint32_t>(k.size()));
    AppendU32(blob, static_cast<std::uint32_t>(v.size()));
    blob += k;
    blob += v;
  }
  return blob;
}

class CollectingOutput final : public OutputCollector {
 public:
  void Emit(Slice key, Slice value) override {
    rows.emplace_back(key.ToString(), value.ToString());
  }
  std::vector<std::pair<std::string, std::string>> rows;
};

TEST(GroupedApply, GroupsConsecutiveEqualKeys) {
  const std::string blob = FrameRecords(
      {{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"}});
  MemoryRunStream stream{Slice(blob)};
  std::map<std::string, std::vector<std::string>> groups;
  GroupedApply(stream, [&](Slice key, ValueIterator& values) {
    Slice v;
    while (values.Next(&v)) groups[key.ToString()].push_back(v.ToString());
  });
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups["a"], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(groups["b"], (std::vector<std::string>{"3"}));
  EXPECT_EQ(groups["c"], (std::vector<std::string>{"4", "5"}));
}

TEST(GroupedApply, HandlesPartialConsumption) {
  const std::string blob = FrameRecords(
      {{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  MemoryRunStream stream{Slice(blob)};
  std::vector<std::string> keys;
  GroupedApply(stream, [&](Slice key, ValueIterator& values) {
    keys.push_back(key.ToString());
    Slice v;
    values.Next(&v);  // consume only the first value of each group
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(GroupedApply, SingleGroupAndEmptyStream) {
  const std::string blob = FrameRecords({{"only", "v"}});
  MemoryRunStream stream{Slice(blob)};
  int calls = 0;
  GroupedApply(stream, [&](Slice, ValueIterator& values) {
    ++calls;
    Slice v;
    int n = 0;
    while (values.Next(&v)) ++n;
    EXPECT_EQ(n, 1);
  });
  EXPECT_EQ(calls, 1);

  MemoryRunStream empty{Slice()};
  GroupedApply(empty, [&](Slice, ValueIterator&) { FAIL(); });
}

TEST(GroupedApply, EmptyKeysFormAGroup) {
  const std::string blob = FrameRecords({{"", "1"}, {"", "2"}, {"k", "3"}});
  MemoryRunStream stream{Slice(blob)};
  std::map<std::string, int> counts;
  GroupedApply(stream, [&](Slice key, ValueIterator& values) {
    Slice v;
    while (values.Next(&v)) ++counts[key.ToString()];
  });
  EXPECT_EQ(counts[""], 2);
  EXPECT_EQ(counts["k"], 1);
}

TEST(GroupedApply, GroupPrefixMergesCompositeKeys) {
  // Secondary-sort grouping: keys <group(2)><suffix> with a 2-byte prefix.
  const std::string blob = FrameRecords(
      {{"aa1", "v1"}, {"aa2", "v2"}, {"ab9", "v3"}, {"ab9", "v4"}});
  MemoryRunStream stream{Slice(blob)};
  std::vector<std::pair<std::string, std::vector<std::string>>> groups;
  GroupedApply(
      stream,
      [&](Slice key, ValueIterator& values) {
        std::vector<std::string> vs;
        Slice v;
        while (values.Next(&v)) vs.push_back(v.ToString());
        groups.emplace_back(key.ToString(), std::move(vs));
      },
      /*group_prefix=*/2);
  ASSERT_EQ(groups.size(), 2u);
  // fn receives the group's FIRST full key and all values in order.
  EXPECT_EQ(groups[0].first, "aa1");
  EXPECT_EQ(groups[0].second, (std::vector<std::string>{"v1", "v2"}));
  EXPECT_EQ(groups[1].first, "ab9");
  EXPECT_EQ(groups[1].second, (std::vector<std::string>{"v3", "v4"}));
}

TEST(GroupedApply, GroupPrefixLongerThanKeyUsesWholeKey) {
  const std::string blob = FrameRecords({{"ab", "1"}, {"ab", "2"},
                                         {"cd", "3"}});
  MemoryRunStream stream{Slice(blob)};
  int groups = 0;
  GroupedApply(
      stream,
      [&](Slice, ValueIterator& values) {
        ++groups;
        Slice v;
        while (values.Next(&v)) {
        }
      },
      /*group_prefix=*/10);
  EXPECT_EQ(groups, 2);
}

TEST(MakeReduceFn, UsesHolisticReduceWhenProvided) {
  JobSpec spec;
  spec.reduce = [](Slice key, ValueIterator& values, OutputCollector& out) {
    Slice v;
    int n = 0;
    while (values.Next(&v)) ++n;
    out.Emit(key, std::to_string(n));
  };
  const auto fn = MakeReduceFn(spec, false);

  const std::string blob = FrameRecords({{"k", "x"}, {"k", "y"}});
  MemoryRunStream stream{Slice(blob)};
  CollectingOutput out;
  GroupedApply(stream, [&](Slice key, ValueIterator& values) {
    fn(key, values, out);
  });
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].second, "2");
}

TEST(MakeReduceFn, AggregatorFoldsRawValues) {
  JobSpec spec;
  spec.aggregator = std::make_shared<SumAggregator>();
  const auto fn = MakeReduceFn(spec, /*values_are_states=*/false);

  const std::string blob = FrameRecords(
      {{"k", EncodeValueU64(3)}, {"k", EncodeValueU64(4)}});
  MemoryRunStream stream{Slice(blob)};
  CollectingOutput out;
  GroupedApply(stream, [&](Slice key, ValueIterator& values) {
    fn(key, values, out);
  });
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(DecodeValueU64(out.rows[0].second), 7u);
}

TEST(MakeReduceFn, AggregatorMergesStates) {
  JobSpec spec;
  spec.aggregator = std::make_shared<SumAggregator>();
  const auto fn = MakeReduceFn(spec, /*values_are_states=*/true);

  const std::string blob = FrameRecords(
      {{"k", EncodeValueU64(10)}, {"k", EncodeValueU64(20)}});
  MemoryRunStream stream{Slice(blob)};
  CollectingOutput out;
  GroupedApply(stream, [&](Slice key, ValueIterator& values) {
    fn(key, values, out);
  });
  EXPECT_EQ(DecodeValueU64(out.rows[0].second), 30u);
}

TEST(MakeReduceFn, ThrowsWithoutReduceOrAggregator) {
  JobSpec spec;
  EXPECT_THROW(MakeReduceFn(spec, false), std::invalid_argument);
}

TEST(EmissionLog, TracksFirstAndTotal) {
  WallTimer start;
  EmissionLog log(&start);
  EXPECT_LT(log.first_emit_seconds(), 0.0);
  log.Record();
  log.Record(5);
  EXPECT_GE(log.first_emit_seconds(), 0.0);
  EXPECT_EQ(log.total(), 6u);
  log.Finish();
  EXPECT_FALSE(log.series().Snapshot().empty());
}

TEST(EmissionLog, SeriesIsCumulativeNonDecreasing) {
  WallTimer start;
  EmissionLog log(&start);
  for (int i = 0; i < 5000; ++i) log.Record();
  log.Finish();
  const auto samples = log.series().Snapshot();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].value, samples[i - 1].value);
  }
  EXPECT_DOUBLE_EQ(samples.back().value, 5000.0);
}

TEST(EmissionLog, ConcurrentRecordersKeepAnExactMonotoneCurve) {
  // Every reducer thread records into one log; mixed batch sizes make
  // some calls cross a stride boundary by more than one row.
  WallTimer start;
  EmissionLog log(&start);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kCalls = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        log.Record(t == 0 && i % 7 == 0 ? 3 : 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      expected += t == 0 && i % 7 == 0 ? 3 : 1;
    }
  }
  EXPECT_EQ(log.total(), expected);

  const double first = log.first_emit_seconds();
  ASSERT_GE(first, 0.0);
  log.Record();  // later emissions never move the first-answer stamp
  EXPECT_EQ(log.first_emit_seconds(), first);
  log.Finish();

  const auto samples = log.series().Snapshot();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().time_s, first);
  // One point per stride crossed, plus the first emission and Finish().
  EXPECT_LE(samples.size(), (expected + 1) / EmissionLog::kStride + 3);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].time_s, samples[i - 1].time_s) << i;
    EXPECT_GE(samples[i].value, samples[i - 1].value) << i;
  }
  EXPECT_DOUBLE_EQ(samples.back().value, static_cast<double>(expected + 1));
}

TEST(ReducerOutput, LogsTheFirstRowAtOnceAndTheRestInBatches) {
  FileManager files = FileManager::CreateTemp("opmr-reducer-output");
  MetricRegistry metrics;
  Dfs dfs(&files, &metrics);
  WallTimer start;
  EmissionLog log(&start);
  RuntimeEnv env;
  env.dfs = &dfs;
  env.emissions = &log;

  // Not a multiple of the batch, so Close() has a remainder to log.
  constexpr std::uint64_t kRows = 5 * ReducerOutput::kLogBatch + 17;
  static_assert(kRows % ReducerOutput::kLogBatch != 0);
  ReducerOutput out(env, "out");
  out.Emit("k0", "v0");
  EXPECT_GE(log.first_emit_seconds(), 0.0);
  EXPECT_EQ(log.total(), 1u);
  for (std::uint64_t i = 1; i < kRows; ++i) {
    out.Emit("k" + std::to_string(i), "v");
    EXPECT_LE(log.total(), i + 1);
    EXPECT_GT(log.total() + ReducerOutput::kLogBatch, i + 1);
  }
  out.Close();
  EXPECT_EQ(out.records(), kRows);
  EXPECT_EQ(log.total(), kRows);
  log.Finish();

  const auto samples = log.series().Snapshot();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().time_s, log.first_emit_seconds());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].time_s, samples[i - 1].time_s) << i;
    EXPECT_GE(samples[i].value, samples[i - 1].value) << i;
  }
  EXPECT_DOUBLE_EQ(samples.back().value, static_cast<double>(kRows));

  // Each row is one DFS record holding one run frame.
  std::uint64_t rows = 0;
  for (const auto& block : dfs.ListBlocks("out")) {
    const auto reader = dfs.OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      MemoryRunStream frame(record);
      ASSERT_TRUE(frame.Next());
      EXPECT_EQ(frame.key().ToString(), "k" + std::to_string(rows));
      EXPECT_FALSE(frame.Next());
      ++rows;
    }
  }
  EXPECT_EQ(rows, kRows);
}

}  // namespace
}  // namespace opmr
