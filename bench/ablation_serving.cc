// Serving-plane ablation: what does live queryability cost the job?
//
// Runs the sessionization streaming job twice over the same pre-generated
// clickstream: once bare (no serving plane), and once publishing interval
// snapshots to a SnapshotPublisher with a SnapshotFrontend replica under a
// closed-loop fleet of query clients.  Records sustained queries/s, query
// latency percentiles, and the job-completion perturbation the serving
// plane imposes — the acceptance bar is <= 5%.
//
// Results land in OutDir()/BENCH_serving.json (OPMR_BENCH_OUT overrides
// the directory), the persisted perf trajectory ROADMAP asks for.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "core/opmr.h"
#include "metrics/counters.h"
#include "metrics/stopwatch.h"
#include "net/loopback.h"
#include "opmrbench/harness.h"
#include "serve/frontend.h"
#include "serve/publisher.h"
#include "serve/query_client.h"
#include "stream/streaming_job.h"
#include "workloads/clickstream.h"
#include "workloads/streaming_queries.h"

namespace {

using namespace opmr;

// One full ingest + finish of the sessionization job; returns seconds.
double RunJob(const std::vector<std::string>& records, int workers,
              const StreamingOptions& options) {
  StreamingJob job(StreamingQueryByName("sessionization"), options, workers);
  WallTimer timer;
  for (const auto& record : records) job.Ingest(record);
  (void)job.Finish();
  return timer.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = Config::FromArgs(argc, argv);
  const auto records_n =
      static_cast<std::uint64_t>(cfg.GetInt("records", 400'000));
  const int clients = static_cast<int>(cfg.GetInt("clients", 4));
  const int workers = static_cast<int>(cfg.GetInt("workers", 3));
  const int runs = static_cast<int>(cfg.GetInt("runs", 3));
  // Closed-loop with think time: each client waits think_us between
  // queries.  Zero means spin flat-out, which on a small host measures CPU
  // theft from the job rather than the serving plane's own overhead.
  const auto think_us = cfg.GetInt("think_us", 2'000);
  const auto interval = static_cast<std::uint64_t>(
      cfg.GetInt("interval", static_cast<std::int64_t>(records_n / 20)));

  bench::Banner("Serving-plane ablation: live queries vs job completion");

  // Pre-generate the clickstream once so both arms ingest identical bytes.
  Platform platform({.num_nodes = 2, .block_bytes = 1u << 20});
  ClickStreamOptions gen;
  gen.num_records = records_n;
  gen.num_users = 2'000;
  gen.num_urls = 500;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  std::vector<std::string> records;
  records.reserve(records_n);
  for (const auto& block : platform.dfs().ListBlocks("clicks")) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      records.emplace_back(record.data(), record.size());
    }
  }

  // --- Arm 1: bare job, no serving plane -------------------------------------
  (void)RunJob(records, workers, {});  // warmup
  std::vector<double> baseline_runs;
  for (int r = 0; r < runs; ++r) {
    baseline_runs.push_back(RunJob(records, workers, {}));
  }
  const double baseline_s = bench::Summary::Of(baseline_runs).median;
  std::printf("baseline  : %s  (%.2f M rec/s, median of %d)\n",
              HumanSeconds(baseline_s).c_str(),
              records_n / baseline_s / 1e6, runs);

  // --- Arm 2: publisher + frontend + closed-loop client fleet ----------------
  const auto image_dir =
      std::filesystem::temp_directory_path() / "opmr_bench_serving";
  std::filesystem::remove_all(image_dir);
  std::filesystem::create_directories(image_dir);

  std::vector<double> serving_runs;
  std::uint64_t total_queries = 0;
  std::uint64_t stale_rejects = 0;
  double query_window_s = 0.0;
  std::vector<double> latencies_us;
  for (int r = 0; r < runs; ++r) {
    MetricRegistry metrics;
    net::LoopbackTransport pub_wire(&metrics);
    serve::PublisherOptions popts;
    popts.job = "sessionization";
    popts.dir = image_dir;
    popts.retain = 4;
    serve::SnapshotPublisher publisher(&pub_wire, &metrics, popts);

    net::LoopbackTransport server(&metrics);
    serve::FrontendOptions fopts;
    fopts.job = "sessionization";
    fopts.aggregator = StreamingQueryByName("sessionization").aggregator;
    serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics, fopts);

    StreamingOptions sopts;
    sopts.snapshot_interval_records = interval;
    sopts.publish_snapshot = [&publisher](CheckpointImage image) {
      publisher.Publish(std::move(image));
    };

    // The fleet: closed-loop point queries (one in flight per client) with
    // a top-k sprinkled in, against whatever view is live.  Clients spin
    // up immediately; until the first snapshot lands their queries come
    // back kStale, which the fleet counts rather than hides.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> ok_queries{0};
    std::atomic<std::uint64_t> stale{0};
    std::vector<std::vector<double>> per_client_us(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> fleet;
    fleet.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        serve::QueryClient client(&server, "tenant-" + std::to_string(c));
        auto& lat = per_client_us[static_cast<std::size_t>(c)];
        std::uint64_t i = 0;
        std::vector<std::string> keys;
        while (!stop.load(std::memory_order_relaxed)) {
          if (keys.empty()) {
            // Learn the live key space from the replica itself.
            for (auto& row : frontend.ScanAll()) {
              keys.push_back(std::move(row.first));
            }
            if (keys.empty()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              continue;
            }
          }
          WallTimer timer;
          const auto result = (++i % 16 == 0)
                                  ? client.TopK(10)
                                  : client.Point(keys[i % keys.size()]);
          lat.push_back(timer.Nanos() / 1e3);
          if (result.status == net::QueryStatus::kOk) {
            ok_queries.fetch_add(1, std::memory_order_relaxed);
          } else {
            stale.fetch_add(1, std::memory_order_relaxed);
          }
          if (think_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(think_us));
          }
        }
      });
    }

    WallTimer window;
    serving_runs.push_back(RunJob(records, workers, sopts));
    stop.store(true);
    const double window_s = window.Seconds();
    for (auto& t : fleet) t.join();

    total_queries += ok_queries.load() + stale.load();
    stale_rejects += stale.load();
    query_window_s += window_s;
    for (auto& lat : per_client_us) {
      latencies_us.insert(latencies_us.end(), lat.begin(), lat.end());
    }
  }
  std::filesystem::remove_all(image_dir);

  const double serving_s = bench::Summary::Of(serving_runs).median;
  const double perturbation_pct = (serving_s - baseline_s) / baseline_s * 100.0;
  const double queries_per_s =
      query_window_s > 0 ? total_queries / query_window_s : 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const double p50 = bench::Summary::Quantile(latencies_us, 0.50);
  const double p90 = bench::Summary::Quantile(latencies_us, 0.90);
  const double p99 = bench::Summary::Quantile(latencies_us, 0.99);

  std::printf("serving   : %s  (%d clients closed-loop, %lld us think, "
              "median of %d)\n",
              HumanSeconds(serving_s).c_str(), clients,
              static_cast<long long>(think_us), runs);
  std::printf("perturb   : %+.2f%% job completion (budget: 5%%)\n",
              perturbation_pct);
  std::printf("queries   : %llu total, %.0f queries/s sustained\n",
              static_cast<unsigned long long>(total_queries), queries_per_s);
  std::printf("latency   : p50 %.1f us, p90 %.1f us, p99 %.1f us\n",
              p50, p90, p99);
  std::printf("stale     : %llu rejected pre-first-snapshot or lagging\n",
              static_cast<unsigned long long>(stale_rejects));

  const auto json_path = bench::OutDir() / "BENCH_serving.json";
  if (std::FILE* out = std::fopen(json_path.string().c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"ablation_serving\",\n"
                 "  \"records\": %llu,\n"
                 "  \"snapshot_interval\": %llu,\n"
                 "  \"workers\": %d,\n"
                 "  \"clients\": %d,\n"
                 "  \"client_think_us\": %lld,\n"
                 "  \"runs\": %d,\n"
                 "  \"baseline_complete_s\": %.6f,\n"
                 "  \"serving_complete_s\": %.6f,\n"
                 "  \"perturbation_pct\": %.3f,\n"
                 "  \"perturbation_budget_pct\": 5.0,\n"
                 "  \"queries_total\": %llu,\n"
                 "  \"queries_per_s\": %.1f,\n"
                 "  \"stale_rejects\": %llu,\n"
                 "  \"latency_us\": { \"p50\": %.1f, \"p90\": %.1f, "
                 "\"p99\": %.1f }\n"
                 "}\n",
                 static_cast<unsigned long long>(records_n),
                 static_cast<unsigned long long>(interval), workers, clients,
                 static_cast<long long>(think_us), runs, baseline_s,
                 serving_s, perturbation_pct,
                 static_cast<unsigned long long>(total_queries), queries_per_s,
                 static_cast<unsigned long long>(stale_rejects), p50, p90, p99);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.string().c_str());
  }
  return perturbation_pct <= 5.0 ? 0 : 1;
}
