// Streaming-mode throughput and answer latency.
//
// Measures the records/second the StreamingJob sustains across worker
// counts, and the latency from ingesting the decisive record to the early
// answer firing — the "answer as soon as the data needed has been read"
// requirement made concrete.
#include <atomic>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/config.h"
#include "common/rng.h"
#include "engine/aggregators.h"
#include "metrics/report.h"
#include "metrics/stopwatch.h"
#include "stream/streaming_job.h"
#include "workloads/clickstream.h"

namespace {

opmr::StreamingQuery CountUrls() {
  opmr::StreamingQuery query;
  query.name = "stream_bench";
  query.aggregator = std::make_shared<opmr::SumAggregator>();
  query.map = [](opmr::Slice record, opmr::OutputCollector& out) {
    static thread_local std::string one = opmr::EncodeValueU64(1);
    out.Emit(record, one);
  };
  return query;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);
  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 2'000'000));

  bench::Banner("Streaming mode: ingest throughput and early-answer latency");

  // Pre-generate the stream so generation cost is excluded.
  std::vector<std::string> stream;
  stream.reserve(records);
  {
    ZipfSampler urls(100'000, 1.0, 21);
    for (std::uint64_t i = 0; i < records; ++i) {
      stream.push_back(UrlKey(static_cast<std::uint32_t>(urls.Sample())));
    }
  }

  TextTable table;
  table.AddRow({"Workers", "Throughput", "Finish-to-exact", "Distinct keys"});
  CsvWriter csv(bench::OutDir() / "stream_throughput.csv");
  csv.WriteRow({"workers", "records_per_sec", "finish_s", "distinct"});

  for (int workers : {1, 2, 4, 8}) {
    StreamingJob job(CountUrls(), {}, workers);
    WallTimer timer;
    for (const auto& record : stream) job.Ingest(record);
    const double ingest_s = timer.Seconds();
    WallTimer finish_timer;
    const auto results = job.Finish();
    const double finish_s = finish_timer.Seconds();

    char tput[32];
    std::snprintf(tput, sizeof(tput), "%.2f M rec/s",
                  records / ingest_s / 1e6);
    table.AddRow({std::to_string(workers), tput, HumanSeconds(finish_s),
                  std::to_string(results.size())});
    csv.WriteRow({std::to_string(workers), std::to_string(records / ingest_s),
                  std::to_string(finish_s), std::to_string(results.size())});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nNote: a single producer thread drives this table.  Routing\n"
              "a pair appends it to its worker's byte queue, and workers\n"
              "fold whole batches, so fan-out moves the folds off the\n"
              "producer but adds no map capacity; that comes from\n"
              "concurrent producers (see the ConcurrentIngestThreadsAreExact\n"
              "test).\n");

  // --- Early-answer latency ---------------------------------------------------
  std::atomic<std::int64_t> fired_at_ns{-1};
  StreamingOptions options;
  options.early_emit = [](Slice, Slice state) {
    return DecodeU64(state.data()) == 1'000;
  };
  WallTimer wall;
  options.on_early_answer = [&](Slice, Slice) {
    fired_at_ns.store(wall.Nanos());
  };
  StreamingJob job(CountUrls(), options, 2);
  std::int64_t decisive_ns = 0;
  int sent = 0;
  for (const auto& record : stream) {
    job.Ingest(record);
    if (++sent == 1'000 * 2) break;  // plenty to cross the threshold
  }
  // The hottest key crosses 1000 well before 2000 ingests of a Zipf(1.0)
  // stream... wait for the async fold.
  while (fired_at_ns.load() < 0 && sent < static_cast<int>(stream.size())) {
    job.Ingest(stream[sent++]);
  }
  decisive_ns = fired_at_ns.load();
  job.Finish();
  if (decisive_ns >= 0) {
    std::printf("\nthreshold answer latency: fired %.1f ms into the stream "
                "(%d records ingested) — no batch job could answer before "
                "its merge completed\n",
                decisive_ns / 1e6, sent);
  }
  return 0;
}
