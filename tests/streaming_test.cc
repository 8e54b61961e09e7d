// Streaming-mode tests: pipelined answers as data arrives, live queries,
// back-pressure, spill resolution, and agreement with the batch runtime.
#include "stream/streaming_job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "common/rng.h"
#include "core/opmr.h"
#include "engine/aggregators.h"
#include "engine/hll.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

StreamingQuery CountByFirstField() {
  StreamingQuery query;
  query.name = "count_by_key";
  query.aggregator = std::make_shared<SumAggregator>();
  query.map = [](Slice record, OutputCollector& out) {
    static thread_local std::string one = EncodeValueU64(1);
    std::size_t tab = 0;
    while (tab < record.size() && record[tab] != '\t') ++tab;
    out.Emit(Slice(record.data(), tab), one);
  };
  return query;
}

TEST(Streaming, ExactCountsAtFinish) {
  StreamingJob job(CountByFirstField(), {}, /*workers=*/3);
  Rng rng(1);
  std::map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 50'000; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(400));
    ++truth[key];
    job.Ingest(key + "\tpayload");
  }
  EXPECT_EQ(job.records_ingested(), 50'000u);

  std::map<std::string, std::uint64_t> actual;
  for (const auto& [k, v] : job.Finish()) actual[k] = DecodeValueU64(v);
  EXPECT_EQ(actual, truth);
  EXPECT_EQ(job.pairs_routed(), 50'000u);
}

TEST(Streaming, LiveQueriesSeeCurrentState) {
  StreamingJob job(CountByFirstField(), {}, 2);
  for (int i = 0; i < 100; ++i) job.Ingest("hot\tx");
  // The worker consumes asynchronously; poll briefly for the fold.
  std::uint64_t seen = 0;
  for (int tries = 0; tries < 200; ++tries) {
    if (auto v = job.Query("hot"); v.has_value()) {
      seen = DecodeValueU64(*v);
      if (seen == 100) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(seen, 100u);
  EXPECT_FALSE(job.Query("never-seen").has_value());
  job.Finish();
}

TEST(Streaming, TopAnswersRankByAggregate) {
  StreamingJob job(CountByFirstField(), {}, 2);
  for (int i = 0; i < 300; ++i) job.Ingest("first\tx");
  for (int i = 0; i < 200; ++i) job.Ingest("second\tx");
  for (int i = 0; i < 100; ++i) job.Ingest("third\tx");
  // Wait for the workers to drain.
  for (int tries = 0; tries < 500; ++tries) {
    if (job.pairs_routed() == 600) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto top = job.TopAnswers(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "first");
  EXPECT_EQ(top[1].first, "second");
  job.Finish();
}

TEST(Streaming, EarlyAnswersFireMidStream) {
  StreamingOptions options;
  std::atomic<int> fired{0};
  std::atomic<std::uint64_t> first_at{0};
  options.early_emit = [](Slice, Slice state) {
    return DecodeU64(state.data()) == 50;
  };
  options.on_early_answer = [&](Slice key, Slice value) {
    fired.fetch_add(1);
    EXPECT_EQ(key.ToString(), "popular");
    EXPECT_EQ(DecodeValueU64(value), 50u);
  };
  StreamingJob job(CountByFirstField(), options, 2);
  for (int i = 0; i < 49; ++i) job.Ingest("popular\tx");
  first_at = job.records_ingested();
  for (int i = 0; i < 51; ++i) job.Ingest("popular\tx");
  job.Finish();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(job.early_answers(), 1u);
}

TEST(Streaming, TinyBudgetSpillsAndStaysExact) {
  StreamingOptions options;
  options.worker_budget_bytes = 8u << 10;  // force spills
  StreamingJob job(CountByFirstField(), options, 2);
  Rng rng(2);
  std::map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 40'000; ++i) {
    const std::string key = "user-" + std::to_string(rng.Uniform(5'000));
    ++truth[key];
    job.Ingest(key + "\t.");
  }
  std::map<std::string, std::uint64_t> actual;
  for (const auto& [k, v] : job.Finish()) actual[k] = DecodeValueU64(v);
  EXPECT_EQ(actual, truth);
}

TEST(Streaming, HotKeyModeSpillsAndStaysExact) {
  StreamingOptions options;
  options.worker_budget_bytes = 8u << 10;
  options.hot_key_capacity = 64;
  StreamingJob job(CountByFirstField(), options, 2);
  ZipfSampler zipf(3'000, 1.1, 3);
  std::map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 40'000; ++i) {
    const std::string key = "z" + std::to_string(zipf.Sample());
    ++truth[key];
    job.Ingest(key + "\t.");
  }
  std::map<std::string, std::uint64_t> actual;
  for (const auto& [k, v] : job.Finish()) actual[k] = DecodeValueU64(v);
  EXPECT_EQ(actual, truth);
}

TEST(Streaming, ConcurrentIngestThreadsAreExact) {
  StreamingJob job(CountByFirstField(), {}, 4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  {
    std::vector<std::jthread> producers;
    producers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&job, t] {
        Rng rng(100 + t);
        for (int i = 0; i < kPerThread; ++i) {
          job.Ingest("shared-" + std::to_string(rng.Uniform(64)) + "\tx");
        }
      });
    }
  }
  std::uint64_t total = 0;
  for (const auto& [k, v] : job.Finish()) total += DecodeValueU64(v);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Streaming, IngestAfterFinishThrows) {
  StreamingJob job(CountByFirstField(), {}, 1);
  job.Ingest("k\tv");
  job.Finish();
  EXPECT_THROW(job.Ingest("k\tv"), std::logic_error);
  // Finish is idempotent.
  EXPECT_EQ(job.Finish().size(), 1u);
}

TEST(Streaming, ValidatesQueryAndWorkerCount) {
  StreamingQuery no_map;
  no_map.aggregator = std::make_shared<SumAggregator>();
  EXPECT_THROW(StreamingJob(no_map, {}, 1), std::invalid_argument);

  StreamingQuery no_agg;
  no_agg.map = [](Slice, OutputCollector&) {};
  EXPECT_THROW(StreamingJob(no_agg, {}, 1), std::invalid_argument);

  EXPECT_THROW(StreamingJob(CountByFirstField(), {}, 0),
               std::invalid_argument);

  StreamingOptions no_queue;
  no_queue.queue_capacity = 0;  // Ingest could never enqueue a pair
  EXPECT_THROW(StreamingJob(CountByFirstField(), no_queue, 1),
               std::invalid_argument);
}

// Queues smaller than the worker's wake batch: every producer blocks on a
// full queue over and over, so a lost wake would hang this test.
TEST(Streaming, ConcurrentIngestIsExactUnderTinyQueues) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::map<std::string, std::uint64_t> truth;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(200 + t);
    for (int i = 0; i < kPerThread; ++i) {
      ++truth["q" + std::to_string(rng.Uniform(50))];
    }
  }
  for (const std::size_t capacity : {1u, 3u}) {
    StreamingOptions options;
    options.queue_capacity = capacity;
    StreamingJob job(CountByFirstField(), options, 3);
    {
      std::vector<std::jthread> producers;
      producers.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&job, t] {
          Rng rng(200 + t);
          for (int i = 0; i < kPerThread; ++i) {
            job.Ingest("q" + std::to_string(rng.Uniform(50)) + "\tx");
          }
        });
      }
    }
    std::map<std::string, std::uint64_t> actual;
    for (const auto& [k, v] : job.Finish()) actual[k] = DecodeValueU64(v);
    EXPECT_EQ(actual, truth) << "queue_capacity " << capacity;
    EXPECT_EQ(job.pairs_routed(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
}

// A trickle shorter than a wake batch must still be in the very next
// snapshot: CollectSnapshot() settles the workers instead of racing them.
TEST(Streaming, SnapshotRightAfterATrickleHoldsEveryRecord) {
  StreamingJob job(CountByFirstField(), {}, 2);
  for (int i = 0; i < 10; ++i) job.Ingest("t" + std::to_string(i) + "\tx");
  const CheckpointImage image = job.CollectSnapshot();
  EXPECT_EQ(image.watermark, 10u);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& entry : image.entries) {
    counts[entry.key] += DecodeU64(entry.state.data());
  }
  ASSERT_EQ(counts.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(counts["t" + std::to_string(i)], 1u);
  job.Finish();
}

TEST(Streaming, FinishTwiceReturnsTheSameSortedResults) {
  StreamingJob job(CountByFirstField(), {}, 2);
  for (int i = 0; i < 5'000; ++i) {
    job.Ingest("k" + std::to_string(i % 97) + "\tx");
  }
  const auto first = job.Finish();
  ASSERT_EQ(first.size(), 97u);
  EXPECT_TRUE(std::is_sorted(
      first.begin(), first.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  const auto second = job.Finish();
  EXPECT_EQ(first, second);
}

TEST(Streaming, QueryAfterFinishServesFinalResults) {
  StreamingOptions options;
  options.worker_budget_bytes = 8u << 10;  // spill, so live queries miss keys
  StreamingJob job(CountByFirstField(), options, 2);
  Rng rng(5);
  std::map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 30'000; ++i) {
    const std::string key = "u" + std::to_string(rng.Uniform(4'000));
    ++truth[key];
    job.Ingest(key + "\tx");
  }
  job.Finish();
  // Post-finish queries are exact for every key, including spilled ones.
  for (const auto& [key, count] : truth) {
    const auto answer = job.Query(key);
    ASSERT_TRUE(answer.has_value()) << key;
    EXPECT_EQ(DecodeValueU64(*answer), count) << key;
  }
  EXPECT_FALSE(job.Query("never-seen").has_value());
}

TEST(Streaming, HotKeyDemotionsAreDeterministicUnderSeededIngest) {
  // Single ingest thread + per-worker FIFO queues: the demotion sequence is
  // a pure function of the record order, so two identical seeded runs must
  // demote identically and agree on every answer.
  auto run = [](std::vector<std::pair<std::string, std::string>>* results) {
    StreamingOptions options;
    options.worker_budget_bytes = 8u << 10;
    options.hot_key_capacity = 64;
    StreamingJob job(CountByFirstField(), options, 2);
    ZipfSampler zipf(3'000, 1.1, 7);
    for (int i = 0; i < 30'000; ++i) {
      job.Ingest("z" + std::to_string(zipf.Sample()) + "\t.");
    }
    *results = job.Finish();
    return job.CounterValue("stream.demotions");
  };
  std::vector<std::pair<std::string, std::string>> a, b;
  const auto demotions_a = run(&a);
  const auto demotions_b = run(&b);
  EXPECT_GT(demotions_a, 0);
  EXPECT_EQ(demotions_a, demotions_b);
  EXPECT_EQ(a, b);
}

TEST(Streaming, AgreesWithBatchRuntimeOnClickStream) {
  // Same data, same query: batch one-pass runtime vs streaming ingestion.
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 30'000;
  gen.num_users = 2'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  platform.Run(PerUserCountJob("clicks", "batch_out", 2),
               HashOnePassOptions());
  std::map<std::string, std::uint64_t> batch;
  for (const auto& [k, v] : platform.ReadOutput("batch_out", 2)) {
    batch[k] = DecodeValueU64(v);
  }

  const auto batch_spec = PerUserCountJob("ignored", "ignored", 1);
  StreamingQuery query;
  query.name = "per_user_stream";
  query.map = batch_spec.map;
  query.aggregator = batch_spec.aggregator;
  StreamingJob job(std::move(query), {}, 3);
  for (const auto& block : platform.dfs().ListBlocks("clicks")) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) job.Ingest(record);
  }
  std::map<std::string, std::uint64_t> streamed;
  for (const auto& [k, v] : job.Finish()) streamed[k] = DecodeValueU64(v);
  EXPECT_EQ(streamed, batch);
}

// A key's early answer fires once, even after its state leaves the table
// (a spill or a demotion) and later folds rebuild it past the threshold.
TEST(EarlyAnswers, FireAtMostOncePerKeyInEveryIncrementalMode) {
  const auto policy = [](Slice, Slice state) {
    return DecodeU64(state.data()) >= 20;
  };

  // Batch: early answers and final answers share the output, so a key may
  // have at most two rows.
  Platform platform({.num_nodes = 2, .block_bytes = 128u << 10});
  ClickStreamOptions gen;
  gen.num_records = 30'000;
  gen.num_urls = 3'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  for (const bool hot_key : {false, true}) {
    SCOPED_TRACE(hot_key ? "batch hot-key" : "batch incremental");
    JobOptions options =
        hot_key ? HotKeyOnePassOptions(16) : HashOnePassOptions();
    options.reduce_buffer_bytes = 4u << 10;
    options.early_emit = policy;
    const std::string out = hot_key ? "early_hot" : "early_inc";
    const auto result = platform.Run(PageFrequencyJob("clicks", out, 1),
                                     options);
    EXPECT_GT(result.Bytes(device::kSpillWrite), 0);
    std::map<std::string, int> rows;
    for (const auto& [url, value] : platform.ReadOutput(out, 1)) ++rows[url];
    int answered = 0;
    for (const auto& [url, n] : rows) {
      EXPECT_LE(n, 2) << url;
      answered += n == 2 ? 1 : 0;
    }
    EXPECT_GT(answered, 0);
  }

  // Streaming: count the callbacks per key.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{16}}) {
    SCOPED_TRACE(capacity == 0 ? "stream plain" : "stream hot-key");
    std::map<std::string, int> fired;
    StreamingOptions options;
    options.worker_budget_bytes = 8u << 10;
    options.hot_key_capacity = capacity;
    options.early_emit = policy;
    options.on_early_answer = [&](Slice key, Slice) { ++fired[key.ToString()]; };
    StreamingJob job(CountByFirstField(), options, /*workers=*/1);
    ZipfSampler zipf(3'000, 1.1, 11);
    for (int i = 0; i < 30'000; ++i) {
      job.Ingest("z" + std::to_string(zipf.Sample()) + "\t.");
    }
    job.Finish();
    EXPECT_FALSE(fired.empty());
    for (const auto& [key, n] : fired) EXPECT_EQ(n, 1) << key;
    EXPECT_EQ(job.early_answers(), fired.size());
  }
}

TEST(Streaming, HllAggregatorStreamsDistinctCounts) {
  StreamingQuery query;
  query.name = "distinct_stream";
  query.aggregator = std::make_shared<HllAggregator>(12);
  query.map = [](Slice record, OutputCollector& out) {
    const auto tab = record.view().find('\t');
    out.Emit(Slice(record.data(), tab),
             Slice(record.data() + tab + 1, record.size() - tab - 1));
  };
  StreamingJob job(std::move(query), {}, 2);
  for (int i = 0; i < 10'000; ++i) {
    job.Ingest("page\tvisitor-" + std::to_string(i % 2'500));
  }
  const auto results = job.Finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(static_cast<double>(DecodeValueU64(results[0].second)), 2'500.0,
              180.0);
}

}  // namespace
}  // namespace opmr
