// MapTask unit tests: the three map-side paths driven directly against a
// single DFS block and a real shuffle service.
#include "engine/map_task.h"

#include <gtest/gtest.h>

#include <map>

#include "engine/aggregators.h"
#include "engine/map_sinks.h"
#include "storage/record_stream.h"

namespace opmr {
namespace {

class MapTaskTest : public ::testing::Test {
 protected:
  MapTaskTest()
      : files_(FileManager::CreateTemp("opmr-maptask")),
        dfs_(&files_, &metrics_, {.block_bytes = 1u << 20, .num_nodes = 1}) {
    env_.dfs = &dfs_;
    env_.files = &files_;
    env_.metrics = &metrics_;
    env_.profiler = &profiler_;
    env_.job_start = &start_;
  }

  BlockInfo LoadBlock(const std::vector<std::string>& records) {
    auto writer = dfs_.Create("in" + std::to_string(file_id_++));
    for (const auto& r : records) writer->Append(r);
    writer->Close();
    const auto blocks =
        dfs_.ListBlocks("in" + std::to_string(file_id_ - 1));
    EXPECT_EQ(blocks.size(), 1u);
    return blocks.front();
  }

  // Runs one map task and returns everything each reducer received.
  std::vector<std::multimap<std::string, std::string>> RunTask(
      const JobSpec& spec, const JobOptions& options,
      const std::vector<std::string>& records) {
    const auto block = LoadBlock(records);
    ShuffleService shuffle(1, spec.num_reducers, &metrics_, 64);
    FileSink sink(0, &files_, &metrics_, &shuffle, spec.num_reducers,
                  options.map_buffer_bytes);
    RuntimeEnv env = env_;
    env.shuffle = &shuffle;
    MapTask task(0, spec, options, env, block, &sink);
    last_stats_ = task.Run();
    sink.Publish();
    shuffle.MapTaskDone(0);

    std::vector<std::multimap<std::string, std::string>> per_reducer(
        spec.num_reducers);
    for (int r = 0; r < spec.num_reducers; ++r) {
      ShuffleItem item;
      while (shuffle.NextItem(r, &item)) {
        last_sorted_ = item.sorted;
        RunReader reader(item.path, IoChannel(&metrics_, "t.read"));
        reader.Restrict(item.segment.offset, item.segment.bytes);
        while (reader.Next()) {
          per_reducer[r].emplace(reader.key().ToString(),
                                 reader.value().ToString());
        }
      }
    }
    return per_reducer;
  }

  FileManager files_;
  MetricRegistry metrics_;
  Dfs dfs_;
  PhaseProfiler profiler_;
  WallTimer start_;
  RuntimeEnv env_;
  MapTask::Stats last_stats_;
  bool last_sorted_ = false;
  int file_id_ = 0;
};

JobSpec EchoSpec(int reducers) {
  JobSpec spec;
  spec.name = "echo";
  spec.num_reducers = reducers;
  spec.map = [](Slice record, OutputCollector& out) {
    const auto tab = record.view().find('\t');
    out.Emit(Slice(record.data(), tab),
             Slice(record.data() + tab + 1, record.size() - tab - 1));
  };
  spec.reduce = [](Slice, ValueIterator&, OutputCollector&) {};
  return spec;
}

TEST_F(MapTaskTest, SortPathProducesSortedPartitions) {
  JobOptions options = JobOptions{};  // sort-merge defaults
  const auto spec = EchoSpec(3);
  const auto out = RunTask(spec, options,
                           {"zeta\t1", "alpha\t2", "mid\t3", "alpha\t4"});
  EXPECT_TRUE(last_sorted_);
  EXPECT_EQ(last_stats_.input_records, 4u);
  EXPECT_EQ(last_stats_.output_records, 4u);

  std::size_t total = 0;
  for (int r = 0; r < 3; ++r) {
    std::string prev;
    for (const auto& [k, v] : out[r]) {
      EXPECT_LE(prev, k) << "partition " << r << " unsorted";
      prev = k;
      // Every key must be in the partition the partitioner assigns.
      EXPECT_EQ(PartitionOf(k, 3), static_cast<std::uint32_t>(r));
      ++total;
    }
  }
  EXPECT_EQ(total, 4u);
}

// Partition ids must never move silently: golden PartitionOf values, and
// both hash collectors route every key to BytesHash(key, kPartitionSeed) % r
// whether r is a power of two (a mask) or not (a division).
TEST(PartitionOf, GoldenValues) {
  const std::vector<std::pair<std::string, std::vector<std::uint32_t>>> golden =
      {{"", {0, 0, 3, 2}},
       {"a", {1, 1, 1, 1}},
       {"u000001", {1, 2, 1, 15}},
       {"u1000204", {0, 0, 2, 12}},
       {"http://example.com/page/42", {0, 1, 3, 0}}};
  for (const auto& [key, ids] : golden) {
    EXPECT_EQ(PartitionOf(key, 2), ids[0]) << key;
    EXPECT_EQ(PartitionOf(key, 3), ids[1]) << key;
    EXPECT_EQ(PartitionOf(key, 5), ids[2]) << key;
    EXPECT_EQ(PartitionOf(key, 16), ids[3]) << key;
  }
}

TEST_F(MapTaskTest, HashCollectorsPartitionByModulo) {
  std::vector<std::string> records;
  for (int i = 0; i < 300; ++i) records.push_back("k" + std::to_string(i) + "\tx");
  for (const bool combine : {true, false}) {
    for (const int r : {1, 2, 3, 4, 5, 8, 16}) {
      JobOptions options;
      options.group_by = GroupBy::kHash;
      options.map_side_combine = combine;
      JobSpec spec = EchoSpec(r);
      spec.reduce = nullptr;
      spec.aggregator = std::make_shared<SumAggregator>();
      spec.map = [](Slice record, OutputCollector& out) {
        out.Emit(Slice(record.data(), record.view().find('\t')),
                 EncodeValueU64(1));
      };
      const auto out = RunTask(spec, options, records);
      std::size_t total = 0;
      for (int p = 0; p < r; ++p) {
        for (const auto& [k, v] : out[p]) {
          EXPECT_EQ(BytesHash(k, kPartitionSeed) % static_cast<std::uint64_t>(r),
                    static_cast<std::uint64_t>(p))
              << k << " r=" << r << " combine=" << combine;
          ++total;
        }
      }
      EXPECT_EQ(total, 300u) << "r=" << r;
    }
  }
}

TEST_F(MapTaskTest, SortPathChargesSortCpu) {
  JobOptions options;
  std::vector<std::string> records;
  for (int i = 0; i < 20'000; ++i) {
    records.push_back("key" + std::to_string(i % 500) + "\tv");
  }
  RunTask(EchoSpec(2), options, records);
  EXPECT_GT(profiler_.CpuSeconds("map_sort"), 0.0);
  EXPECT_GT(profiler_.CpuSeconds("map_function"), 0.0);
}

TEST_F(MapTaskTest, HashCombinePathCollapsesDuplicates) {
  JobOptions options;
  options.group_by = GroupBy::kHash;
  JobSpec spec = EchoSpec(2);
  spec.reduce = nullptr;
  spec.aggregator = std::make_shared<SumAggregator>();
  spec.map = [](Slice record, OutputCollector& out) {
    const auto tab = record.view().find('\t');
    out.Emit(Slice(record.data(), tab), EncodeValueU64(1));
  };

  std::vector<std::string> records;
  for (int i = 0; i < 900; ++i) records.push_back("hot\tx");
  records.push_back("cold\tx");
  const auto out = RunTask(spec, options, records);

  // Combined output: exactly one state per distinct key.
  std::map<std::string, std::uint64_t> got;
  for (int r = 0; r < 2; ++r) {
    for (const auto& [k, v] : out[r]) {
      EXPECT_EQ(got.count(k), 0u) << "duplicate combined key";
      got[k] = DecodeU64(v.data());
    }
  }
  EXPECT_EQ(got.at("hot"), 900u);
  EXPECT_EQ(got.at("cold"), 1u);
  EXPECT_FALSE(last_sorted_);
  EXPECT_GT(profiler_.CpuSeconds("map_hash"), 0.0);
  EXPECT_DOUBLE_EQ(profiler_.CpuSeconds("map_sort"), 0.0);
}

TEST_F(MapTaskTest, PartitionOnlyPathStreamsRaw) {
  JobOptions options;
  options.group_by = GroupBy::kHash;
  options.map_side_combine = false;  // partition-only scan
  JobSpec spec = EchoSpec(2);
  spec.reduce = nullptr;
  spec.aggregator = std::make_shared<SumAggregator>();
  spec.map = [](Slice record, OutputCollector& out) {
    const auto tab = record.view().find('\t');
    out.Emit(Slice(record.data(), tab), EncodeValueU64(1));
  };

  std::vector<std::string> records(500, "same\tx");
  const auto out = RunTask(spec, options, records);
  std::size_t total = 0;
  for (const auto& per : out) total += per.size();
  EXPECT_EQ(total, 500u) << "partition-only must not collapse duplicates";
  EXPECT_DOUBLE_EQ(profiler_.CpuSeconds("map_sort"), 0.0);
}

TEST_F(MapTaskTest, TinyBufferSpillsMultipleSortedBatches) {
  JobOptions options;
  options.map_buffer_bytes = 512;  // force many spills
  std::vector<std::string> records;
  for (int i = 0; i < 2'000; ++i) {
    records.push_back("k" + std::to_string(i % 97) + "\tpayload");
  }
  const auto out = RunTask(EchoSpec(2), options, records);
  std::size_t total = 0;
  for (const auto& per : out) total += per.size();
  EXPECT_EQ(total, 2'000u) << "spilled batches must not lose records";
}

TEST_F(MapTaskTest, EmptyMapOutputIsFine) {
  JobSpec spec = EchoSpec(2);
  spec.map = [](Slice, OutputCollector&) {};  // emits nothing
  const auto out = RunTask(spec, JobOptions{}, {"a\t1", "b\t2"});
  EXPECT_EQ(last_stats_.input_records, 2u);
  EXPECT_EQ(last_stats_.output_records, 0u);
  for (const auto& per : out) EXPECT_TRUE(per.empty());
}

TEST_F(MapTaskTest, OneRecordManyEmits) {
  JobSpec spec = EchoSpec(2);
  spec.map = [](Slice record, OutputCollector& out) {
    for (int i = 0; i < 50; ++i) {
      out.Emit("k" + std::to_string(i), record);
    }
  };
  const auto out = RunTask(spec, JobOptions{}, {"only"});
  std::size_t total = 0;
  for (const auto& per : out) total += per.size();
  EXPECT_EQ(total, 50u);
  EXPECT_EQ(last_stats_.output_records, 50u);
}

}  // namespace
}  // namespace opmr
