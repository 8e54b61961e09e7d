// The OPMR benchmark: one process per workload run.
//
//   opmr_bench --workload=<name|all> --seed=<n> [--seconds=10] [--trace=0|1]
//              [--scale=1.0] [--out=bench_out]
//
// --scale multiplies every input size, for the smoke test only: a result
// under a workload's name always measures that workload's fixed size.
//
// A run generates its input from --seed (timed, five times, as setup_s),
// computes the reference output on the direct engine (untimed), warms up,
// then runs untraced jobs for --seconds and reports the medians of the
// end-to-end metrics.  With --trace=1 it also runs one traced job and
// reports the per-layer metrics; end-to-end metrics never come from it.
// Every job's output is checked against the reference.  The last line of
// standard output is the JSON result; the exit status is nonzero when any
// output is wrong.
//
// Workloads (see README.md for why each exists):
//   sessionize_hadoop  text clicks, holistic reduce, sort-merge + pull +
//                      spill (the paper's blocking baseline)
//   count_hash         binary clicks, per-user count, hash one-pass runtime
//   shuffle_tcp        binary clicks, page frequency with no combiner, every
//                      record crosses an in-process TCP transport
//   stream_serve       streaming page frequency publishing live snapshots to
//                      a frontend under an open-loop query load
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stop_token>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "core/opmr.h"
#include "engine/aggregators.h"
#include "metrics/stopwatch.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "serve/frontend.h"
#include "serve/publisher.h"
#include "serve/query_client.h"
#include "storage/io_stats.h"
#include "storage/record_stream.h"
#include "stream/streaming_job.h"
#include "workloads/clickstream.h"
#include "workloads/streaming_queries.h"
#include "workloads/tasks.h"

#include "harness.h"
#include "trace.h"

namespace {

namespace fs = std::filesystem;
using namespace opmr;
using namespace opmr::bench;

using Clock = std::chrono::steady_clock;

// Load sizing for a 4-core host: 2 nodes x 1 map slot plus 2 reducers keep
// the engine at 4 threads; the stream runs 1 ingest thread, 2 workers and 1
// query generator.
constexpr int kNodes = 2;
constexpr int kReducers = 2;
constexpr int kStreamWorkers = 2;
constexpr std::uint64_t kBlockBytes = 4u << 20;
constexpr int kSetupReps = 5;
constexpr std::size_t kMinJobs = 3;
constexpr std::size_t kMaxJobs = 200;
constexpr double kQueriesPerSecond = 10'000;
constexpr int kTopKEvery = 16;  // 15 point queries : 1 top-10
constexpr std::uint64_t kSnapshotsPerStream = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  fs::path out = "bench_out";
};

std::uint64_t Scaled(double records, double scale) {
  return std::max<std::uint64_t>(1000, static_cast<std::uint64_t>(records * scale));
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// What one job (batch or streaming) reports.
struct JobOutcome {
  bool ok = false;
  std::string error;
  double job_s = 0.0;
  double first_output_s = 0.0;
  double cpu_s = 0.0;
  double io_write_mb = 0.0;
  double peak_rss_mb = 0.0;  // set by the driver around Run()
  JobResult result;  // batch only

  // Streaming only.
  double finish_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t queries = 0;
  std::uint64_t failed_queries = 0;
  std::vector<double> query_ms;
  std::vector<double> late_ms;
  std::vector<double> view_delay_ms;
  std::map<std::string, std::int64_t> serve_counters;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Generates the input and builds the platform (timed as setup_s).
  virtual void Setup() = 0;
  // Computes the reference output and warms up (untimed).
  virtual void Prepare() = 0;
  // One job; traced when `tracer` is set.
  virtual JobOutcome Run(Tracer* tracer) = 0;
};

// Bytes a batch job wrote to local disk and the DFS: map output, reduce
// spill, shuffle retention and output commit.
double WriteMb(const JobResult& r) {
  const std::int64_t bytes =
      r.Bytes(device::kMapOutputWrite) + r.Bytes(device::kSpillWrite) +
      r.Bytes(device::kDfsWrite) + r.Bytes(device::kRetainWrite) +
      r.Bytes(device::kNetSegmentWrite) + r.Bytes(device::kCheckpointWrite);
  return static_cast<double>(bytes) / 1e6;
}

// A platform holding the workload's input as the DFS file "clicks".
std::unique_ptr<Platform> MakeInput(std::uint64_t records, ClickFormat format,
                                    std::uint64_t seed) {
  PlatformOptions options;
  options.num_nodes = kNodes;
  options.map_slots_per_node = 1;
  options.block_bytes = kBlockBytes;
  auto platform = std::make_unique<Platform>(options);
  ClickStreamOptions gen;
  gen.num_records = records;
  gen.format = format;
  gen.seed = seed;
  GenerateClickStream(platform->dfs(), "clicks", gen);
  return platform;
}

std::uint64_t DigestOf(const std::vector<std::pair<std::string, std::string>>& rows) {
  RowDigest digest;
  for (const auto& [key, value] : rows) digest.Add(key, value);
  return digest.value();
}

// --- Batch workloads ----------------------------------------------------------

struct BatchConfig {
  std::uint64_t records = 0;
  ClickFormat format = ClickFormat::kText;
  std::function<JobSpec(const std::string& in, const std::string& out)> spec;
  JobOptions options;
  bool over_tcp = false;
};

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(BatchConfig config, std::uint64_t seed)
      : config_(std::move(config)), seed_(seed) {}

  void Setup() override {
    platform_ = MakeInput(config_.records, config_.format, seed_);
  }

  void Prepare() override {
    // The reference: the same spec on the direct engine.  For the direct
    // workloads it doubles as the warm-up job.
    const std::string out = NextOutput();
    platform_->Run(config_.spec("clicks", out), config_.options);
    reference_ = Digest(out);
    if (config_.over_tcp) {
      const auto warm = Run(nullptr);
      if (!warm.ok) throw std::runtime_error("warm-up job: " + warm.error);
    }
  }

  JobOutcome Run(Tracer* tracer) override {
    JobOutcome o;
    const std::string out = NextOutput();
    JobSpec spec = config_.spec("clicks", out);
    if (tracer != nullptr) spec = TraceSpec(std::move(spec), tracer);
    try {
      std::unique_ptr<net::Transport> wire;
      if (config_.over_tcp) {
        auto tcp = std::make_unique<net::TcpTransport>(&platform_->metrics());
        tcp->Bind();
        wire = std::move(tcp);
        if (tracer != nullptr) {
          wire = std::make_unique<TracedTransport>(std::move(wire), tracer);
        }
      }
      const double cpu0 = ProcessCpuSeconds();
      const auto t0 = Clock::now();
      {
        Tracer::Scope job(tracer, Layer::kJob);
        o.result = wire ? platform_->RunWithTransport(spec, config_.options,
                                                      wire.get())
                        : platform_->Run(spec, config_.options);
      }
      o.job_s = Seconds(Clock::now() - t0);
      o.cpu_s = ProcessCpuSeconds() - cpu0;
      o.first_output_s = o.result.first_output_seconds;
      o.io_write_mb = WriteMb(o.result);
      const std::uint64_t digest = Digest(out);
      o.ok = digest == reference_;
      if (!o.ok) {
        char msg[96];
        std::snprintf(msg, sizeof(msg), "output digest %016llx != reference %016llx",
                      static_cast<unsigned long long>(digest),
                      static_cast<unsigned long long>(reference_));
        o.error = msg;
      }
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    return o;
  }

 private:
  std::string NextOutput() { return "out" + std::to_string(jobs_++); }

  // Streams a job's output into a digest, then deletes every file the job
  // left in the platform's workspace: output blocks, map output, spills.
  // The platform keeps them until it is destroyed, so without this a run
  // piles up every job's files (over 1 GB in 20 s of sessionize_hadoop) and
  // each job starts from a fuller disk and page cache than the one before.
  std::uint64_t Digest(const std::string& out) {
    RowDigest digest;
    for (int r = 0; r < kReducers; ++r) {
      const std::string part = out + ".part" + std::to_string(r);
      if (!platform_->dfs().Exists(part)) continue;
      for (const auto& block : platform_->dfs().ListBlocks(part)) {
        const auto reader = platform_->dfs().OpenBlock(block);
        Slice record;
        while (reader->Next(&record)) {
          MemoryRunStream rows(record);
          while (rows.Next()) digest.Add(rows.key(), rows.value());
        }
      }
    }
    std::set<fs::path> input;
    for (const auto& block : platform_->dfs().ListBlocks("clicks")) {
      input.insert(block.path.filename());
    }
    for (const auto& entry : fs::directory_iterator(platform_->files().root())) {
      if (input.count(entry.path().filename()) == 0) fs::remove_all(entry.path());
    }
    return digest.value();
  }

  BatchConfig config_;
  std::uint64_t seed_;
  std::unique_ptr<Platform> platform_;
  std::uint64_t reference_ = 0;
  int jobs_ = 0;
};

// --- Streaming + serving workload -------------------------------------------

class StreamServeWorkload final : public Workload {
 public:
  StreamServeWorkload(std::uint64_t records, std::uint64_t seed,
                      fs::path image_dir)
      : records_(records),
        seed_(seed),
        interval_(std::max<std::uint64_t>(1, records / kSnapshotsPerStream)),
        image_dir_(std::move(image_dir)) {}

  void Setup() override {
    platform_ = MakeInput(records_, ClickFormat::kText, seed_);
  }

  void Prepare() override {
    // Reference: one worker, no serving plane.
    StreamingJob reference(Query(), {}, 1);
    ForEachRecord([&](Slice record) { reference.Ingest(record); });
    const auto rows = reference.Finish();
    reference_ = DigestOf(rows);
    for (const auto& [key, value] : rows) final_counts_[key] = DecodeU64(value.data());

    // Point keys: every key the first snapshot already holds, so a point
    // query against any live view finds its key.
    class KeyCollector final : public OutputCollector {
     public:
      void Emit(Slice key, Slice) override { keys.insert(key.ToString()); }
      std::set<std::string> keys;
    } collector;
    const auto map = Query().map;
    std::uint64_t seen = 0;
    ForEachRecord([&](Slice record) {
      if (seen++ < interval_) map(record, collector);
    });
    point_keys_.assign(collector.keys.begin(), collector.keys.end());

    const auto warm = Run(nullptr);
    if (!warm.ok) throw std::runtime_error("warm-up job: " + warm.error);
  }

  JobOutcome Run(Tracer* tracer) override {
    JobOutcome o;
    try {
      RunJob(tracer, &o);
    } catch (const std::exception& e) {
      o.ok = false;
      o.error = e.what();
    }
    return o;
  }

 private:
  static StreamingQuery Query() { return StreamingQueryByName("page_frequency"); }

  // The stream's source: the input's DFS blocks, read in order.  Reading
  // them is part of the job, and the harness keeps no copy of the input.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    for (const auto& block : platform_->dfs().ListBlocks("clicks")) {
      const auto reader = platform_->dfs().OpenBlock(block);
      Slice record;
      while (reader->Next(&record)) fn(record);
    }
  }

  void RunJob(Tracer* tracer, JobOutcome* o) {
    const std::uint64_t n = records_;
    MetricRegistry metrics;
    net::LoopbackTransport publish_wire(&metrics);
    serve::PublisherOptions popts;
    popts.job = "page_frequency";
    popts.dir = image_dir_;
    serve::SnapshotPublisher publisher(&publish_wire, &metrics, popts);

    net::LoopbackTransport query_wire(&metrics);
    serve::FrontendOptions fopts;
    fopts.job = popts.job;
    fopts.aggregator = Query().aggregator;
    fopts.default_policy.staleness_budget = 2 * interval_;
    serve::SnapshotFrontend frontend(&query_wire, &publish_wire, &metrics, fopts);

    // Ingest-side clock for each snapshot watermark W: when the ingest
    // thread handed record W to Ingest().  Freshness is measured from it.
    const std::size_t marks = n / interval_ + 1;
    std::vector<std::atomic<std::int64_t>> reached_ns(marks);

    StreamingQuery query = Query();
    if (tracer != nullptr) {
      query.map = TraceMap(std::move(query.map), tracer);
      query.aggregator =
          std::make_shared<TracedAggregator>(std::move(query.aggregator), tracer);
    }
    StreamingOptions sopts;
    sopts.snapshot_interval_records = interval_;
    sopts.publish_snapshot = [&publisher, tracer](CheckpointImage image) {
      Tracer::Scope scope(tracer, Layer::kPublish);
      publisher.Publish(std::move(image));
    };
    StreamingJob job(std::move(query), sopts, kStreamWorkers);

    std::atomic<std::int64_t> first_ok_ns{0};
    GeneratorStats gen;
    // Declared after everything it touches, so an exception unwinding this
    // frame stops and joins it first.
    std::jthread generator([&](std::stop_token stop) {
      gen = Generate(tracer, frontend, query_wire, reached_ns, stop, first_ok_ns);
    });

    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    {
      Tracer::Scope job_scope(tracer, Layer::kJob);
      std::uint64_t ingested = 0;
      ForEachRecord([&](Slice record) {
        if (++ingested % interval_ == 0) {
          reached_ns[ingested / interval_].store(NowNs(), std::memory_order_release);
        }
        Tracer::Scope scope(tracer, Layer::kIngest);
        job.Ingest(record);
      });
      if (ingested != n) {
        throw std::runtime_error("stream source held " + std::to_string(ingested) +
                                 " records, expected " + std::to_string(n));
      }
      const auto finish0 = Clock::now();
      const auto rows = job.Finish();
      o->finish_s = Seconds(Clock::now() - finish0);
      o->job_s = Seconds(Clock::now() - t0);
      o->ok = DigestOf(rows) == reference_;
      if (!o->ok) o->error = "stream output digest differs from the reference";
    }
    generator.request_stop();
    generator.join();
    o->cpu_s = ProcessCpuSeconds() - cpu0;
    o->records = n;
    o->queries = gen.queries;
    o->failed_queries = gen.failed;
    o->query_ms = std::move(gen.query_ms);
    o->late_ms = std::move(gen.late_ms);
    o->view_delay_ms = std::move(gen.view_delay_ms);
    if (!gen.error.empty() && o->ok) {
      o->ok = false;
      o->error = gen.error;
    }
    const std::int64_t first = first_ok_ns.load();
    const std::int64_t start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch())
            .count();
    o->first_output_s = first > 0 ? (first - start_ns) * 1e-9 : o->job_s;
    if (first == 0 && o->ok) {
      o->ok = false;
      o->error = "no query was answered from a live view";
    }
    o->serve_counters = metrics.Snapshot();
    o->io_write_mb =
        static_cast<double>(metrics.Value(device::kCheckpointWrite) +
                            job.CounterValue(device::kSpillWrite)) /
        1e6;
  }

  // What the query generator thread observed; merged after it is joined.
  struct GeneratorStats {
    std::uint64_t queries = 0;
    std::uint64_t failed = 0;
    std::vector<double> query_ms;
    std::vector<double> late_ms;
    std::vector<double> view_delay_ms;
    std::string error;  // first wrong answer, if any
  };

  // Open-loop query generator: from the first live view until the stream
  // finishes, one query is due every 1/kQueriesPerSecond seconds whether or
  // not the previous one has returned.  Latency runs from the due time, so
  // a stall also delays every query scheduled behind it.
  GeneratorStats Generate(Tracer* tracer, serve::SnapshotFrontend& frontend,
                          net::LoopbackTransport& wire,
                          const std::vector<std::atomic<std::int64_t>>& reached_ns,
                          const std::stop_token& stop,
                          std::atomic<std::int64_t>& first_ok_ns) const {
    GeneratorStats g;
    serve::QueryClient client(&wire, "bench");
    while (!stop.stop_requested() &&
           !frontend.WaitForVersion(1, std::chrono::milliseconds(1))) {
    }
    if (stop.stop_requested()) return g;
    Rng keys(seed_ * 0x9E3779B97F4A7C15ull + 17);
    std::size_t next_mark = 1;  // first watermark mark not yet observed
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kQueriesPerSecond));
    const auto start = Clock::now();
    for (std::uint64_t i = 0; !stop.stop_requested(); ++i) {
      const auto due = start + period * static_cast<std::int64_t>(i);
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      g.late_ms.push_back(Seconds(Clock::now() - due) * 1e3);
      const bool topk = i % kTopKEvery == kTopKEvery - 1;
      const std::string& key = point_keys_[keys.Uniform(point_keys_.size())];
      net::QueryResultMsg result;
      bool answered = true;
      {
        Tracer::Scope scope(tracer, Layer::kQuery);
        try {
          result = topk ? client.TopK(10) : client.Point(key);
        } catch (const std::exception&) {
          answered = false;  // timeout
        }
      }
      const auto done = Clock::now();
      ++g.queries;
      g.query_ms.push_back(Seconds(done - due) * 1e3);
      if (!answered || result.status != net::QueryStatus::kOk) {
        ++g.failed;
        continue;
      }
      const std::int64_t done_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              done.time_since_epoch())
              .count();
      std::int64_t expected = 0;
      first_ok_ns.compare_exchange_strong(expected, done_ns);
      if (!topk) {
        // A live answer can never exceed the key's final count.
        const auto& [k, v] = result.rows.at(0);
        if (k != key || DecodeU64(v.data()) > final_counts_.at(key)) {
          ++g.failed;
          if (g.error.empty()) {
            g.error = "point answer for " + key + " exceeds its final count";
          }
        }
      }
      for (; next_mark < reached_ns.size() &&
             next_mark * interval_ <= result.watermark;
           ++next_mark) {
        const std::int64_t reached =
            reached_ns[next_mark].load(std::memory_order_acquire);
        if (reached > 0) g.view_delay_ms.push_back((done_ns - reached) * 1e-6);
      }
    }
    return g;
  }

  std::uint64_t records_;
  std::uint64_t seed_;
  std::uint64_t interval_;
  fs::path image_dir_;
  std::unique_ptr<Platform> platform_;
  std::uint64_t reference_ = 0;
  std::map<std::string, std::uint64_t> final_counts_;
  std::vector<std::string> point_keys_;
};

// --- Workload table -------------------------------------------------------------

const std::vector<std::string> kWorkloads = {"sessionize_hadoop", "count_hash",
                                             "shuffle_tcp", "stream_serve"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Args& args,
                                       const fs::path& work_dir) {
  BatchConfig c;
  if (name == "sessionize_hadoop") {
    c.records = Scaled(1.5e6, args.scale);
    c.format = ClickFormat::kText;
    c.spec = [](const std::string& in, const std::string& out) {
      return SessionizationJob(in, out, kReducers, ClickFormat::kText);
    };
    c.options = HadoopOptions();
    c.options.reduce_buffer_bytes = 4u << 20;
  } else if (name == "count_hash") {
    c.records = Scaled(4e6, args.scale);
    c.format = ClickFormat::kBinary;
    c.spec = [](const std::string& in, const std::string& out) {
      return PerUserCountJob(in, out, kReducers, ClickFormat::kBinary);
    };
    c.options = HashOnePassOptions();
  } else if (name == "shuffle_tcp") {
    c.records = Scaled(3e6, args.scale);
    c.format = ClickFormat::kBinary;
    c.spec = [](const std::string& in, const std::string& out) {
      return PageFrequencyJob(in, out, kReducers, ClickFormat::kBinary);
    };
    c.options = HashOnePassOptions();
    c.options.map_side_combine = false;
    c.options.push_chunk_bytes = 64u << 10;
    c.options.push_queue_chunks = 16;
    c.over_tcp = true;
  } else if (name == "stream_serve") {
    return std::make_unique<StreamServeWorkload>(Scaled(1.5e6, args.scale),
                                                 args.seed, work_dir / "serve");
  } else {
    return nullptr;
  }
  return std::make_unique<BatchWorkload>(std::move(c), args.seed);
}

// --- Metrics ----------------------------------------------------------------------

Summary Collect(const std::vector<JobOutcome>& jobs,
                double JobOutcome::*field) {
  std::vector<double> v;
  for (const auto& j : jobs) v.push_back(j.*field);
  return Summary::Of(std::move(v));
}

std::vector<double> Pool(const std::vector<JobOutcome>& jobs,
                         std::vector<double> JobOutcome::*field) {
  std::vector<double> all;
  for (const auto& j : jobs) all.insert(all.end(), (j.*field).begin(), (j.*field).end());
  return all;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double CountOf(const std::map<std::string, std::int64_t>& c,
               const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

void AddEndToEnd(Report& report, const Summary& setup,
                 const std::vector<JobOutcome>& jobs) {
  report.Add("setup_s", setup, "s");
  report.Add("job_s", Collect(jobs, &JobOutcome::job_s), "s");
  report.Add("first_output_s", Collect(jobs, &JobOutcome::first_output_s), "s");
  report.Add("io_write_mb", Collect(jobs, &JobOutcome::io_write_mb), "MB");
  report.Add("peak_rss_mb", Collect(jobs, &JobOutcome::peak_rss_mb), "MB");
}

void AddPerLayer(Report& report, const JobOutcome& traced, const Tracer& tracer,
                 const std::vector<JobOutcome>& untraced) {
  const JobResult& r = traced.result;
  const auto cpu = [&](const char* phase) {
    const auto it = r.cpu_seconds.find(phase);
    return it == r.cpu_seconds.end() ? 0.0 : it->second;
  };
  const auto bytes = [&](const char* name) {
    return static_cast<double>(r.Bytes(name));
  };
  const LayerTotals map_fn = tracer.Totals(Layer::kMapFn);
  const LayerTotals send = tracer.Totals(Layer::kSend);
  const LayerTotals ingest = tracer.Totals(Layer::kIngest);

  // engine/map_task
  report.Add("map.fn_cpu_s", cpu("map_function"), "s");
  report.Add("map.sort_cpu_s", cpu("map_sort"), "s");
  report.Add("map.combine_cpu_s", cpu("map_combine"), "s");
  report.Add("map.hash_cpu_s", cpu("map_hash"), "s");
  report.Add("map.flush_cpu_s", cpu("map_flush"), "s");
  report.Add("map.fn_wall_s", map_fn.busy_s(), "s");
  report.Add("map.fn_self_s", map_fn.self_s(), "s");
  report.Add("map.fn_calls", static_cast<double>(map_fn.calls), "count");
  report.Add("map.combine_wall_s", tracer.Totals(Layer::kMapCombine).busy_s(), "s");
  report.Add("map.local_frac", Ratio(r.local_map_tasks, r.num_map_tasks), "ratio");
  // engine/map_output, storage
  report.Add("map_output.write_bytes", bytes(device::kMapOutputWrite), "B");
  report.Add("map_output.write_s", bytes(device::kMapOutputWriteNanos) * 1e-9, "s");
  report.Add("dfs.read_bytes", bytes(device::kDfsRead), "B");
  // engine/shuffle, shuffle_remote
  const double pushed = bytes(device::kPushedChunks);
  const double diverted = bytes(device::kDivertedChunks);
  report.Add("shuffle.bytes", bytes(device::kShuffleRead), "B");
  report.Add("shuffle.pushed_chunks", pushed, "count");
  report.Add("shuffle.diverted_chunks", diverted, "count");
  report.Add("shuffle.divert_frac", Ratio(diverted, pushed + diverted), "ratio");
  report.Add("shuffle.dup_frames", static_cast<double>(r.shuffle_dup_frames), "count");
  // net
  report.Add("net.frames_sent", static_cast<double>(r.net_frames_sent), "count");
  report.Add("net.bytes_sent", static_cast<double>(r.net_bytes_sent), "B");
  report.Add("net.send_syscalls_per_frame",
             Ratio(bytes(net::kNetSendSyscalls), r.net_frames_sent), "ratio");
  report.Add("net.recv_syscalls_per_frame",
             Ratio(bytes(net::kNetRecvSyscalls), r.net_frames_received), "ratio");
  report.Add("net.retransmits", static_cast<double>(r.net_retransmits), "count");
  report.Add("net.send_wall_s", send.busy_s(), "s");
  report.Add("net.send_p99_us", Percentile(tracer.SpanMicros(Layer::kSend), 0.99), "us");
  report.Add("net.handler_wall_s", tracer.Totals(Layer::kHandler).busy_s(), "s");
  // engine/reduce_sortmerge
  report.Add("reduce.merge_cpu_s", cpu("reduce_merge") + cpu("snapshot_merge"), "s");
  report.Add("reduce.spill_write_bytes", bytes(device::kSpillWrite), "B");
  report.Add("reduce.spill_read_bytes", bytes(device::kSpillRead), "B");
  // engine/reduce_hash, reduce_incremental
  report.Add("reduce.group_cpu_s", cpu("hash_group"), "s");
  report.Add("reduce.fn_cpu_s", cpu("reduce_function"), "s");
  report.Add("reduce.apply_wall_s", tracer.Totals(Layer::kReduceApply).busy_s(), "s");
  report.Add("reduce.imbalance", r.reducer_output_records.empty() ? 0.0
                                                                   : r.ReducerImbalance(),
             "ratio");
  // output commit
  report.Add("output.write_bytes", bytes(device::kDfsWrite), "B");
  // stream
  report.Add("stream.ingest_wall_s", ingest.busy_s(), "s");
  report.Add("stream.ingest_self_s", ingest.self_s(), "s");
  report.Add("stream.finish_s", traced.finish_s, "s");
  report.Add("stream.records_per_s", Ratio(traced.records, traced.job_s), "1/s");
  // serve, checkpoint
  const auto& sc = traced.serve_counters;
  const double published = CountOf(sc, "serve.published");
  report.Add("serve.publish_wall_s", tracer.Totals(Layer::kPublish).busy_s(), "s");
  report.Add("serve.published", published, "count");
  report.Add("serve.applied", CountOf(sc, "serve.applied"), "count");
  report.Add("serve.applied_frac", Ratio(CountOf(sc, "serve.applied"), published),
             "ratio");
  report.Add("serve.fetch_misses", CountOf(sc, "serve.fetch_misses"), "count");
  report.Add("serve.stale_rejects", CountOf(sc, "serve.stale_rejects"), "count");
  // Serving latency and freshness pool every untraced job of the run.
  const auto query_ms = Pool(untraced, &JobOutcome::query_ms);
  const auto delay_ms = Pool(untraced, &JobOutcome::view_delay_ms);
  const auto late_ms = Pool(untraced, &JobOutcome::late_ms);
  report.Add("serve.query_p50_ms", Percentile(query_ms, 0.50), "ms", query_ms.size());
  report.Add("serve.query_p99_ms", Percentile(query_ms, 0.99), "ms", query_ms.size());
  report.Add("serve.view_delay_p50_ms", Percentile(delay_ms, 0.50), "ms",
             delay_ms.size());
  report.Add("serve.view_delay_p90_ms", Percentile(delay_ms, 0.90), "ms",
             delay_ms.size());
  report.Add("gen.late_p99_ms", Percentile(late_ms, 0.99), "ms", late_ms.size());
  // process: user + system CPU per job, from the untraced jobs
  report.Add("process.cpu_s", Collect(untraced, &JobOutcome::cpu_s), "s");
  // harness
  const double untraced_median = Collect(untraced, &JobOutcome::job_s).median;
  report.Add("trace.overhead_frac", Ratio(traced.job_s, untraced_median) - 1.0,
             "ratio");
}

void PrintLayerTable(const Tracer& tracer) {
  std::printf("  %-16s %12s %12s %12s\n", "layer", "busy_s", "self_s", "calls");
  for (int l = 0; l < kLayers; ++l) {
    const LayerTotals t = tracer.Totals(static_cast<Layer>(l));
    if (t.calls == 0) continue;
    std::printf("  %-16s %12.6f %12.6f %12lld\n", kLayerNames[l], t.busy_s(),
                t.self_s(), static_cast<long long>(t.calls));
  }
}

// --- Driver -------------------------------------------------------------------------

int RunWorkload(const Args& args, const std::string& name, const fs::path& work_dir) {
  const BuildInfo build = BuildInfo::Current();
  std::printf("# opmr_bench workload=%s seed=%llu seconds=%g trace=%d scale=%g "
              "nproc=%u build=%s sanitized=%d\n",
              name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale, build.nproc,
              build.build_type.c_str(), build.sanitized ? 1 : 0);

  std::unique_ptr<Workload> workload;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    workload.reset();  // tear the previous copy down outside the timer
    workload = MakeWorkload(name, args, work_dir);
    const auto t0 = Clock::now();
    workload->Setup();
    setups.push_back(Seconds(Clock::now() - t0));
  }
  std::printf("# setup_s:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  workload->Prepare();

  std::vector<JobOutcome> jobs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  const auto account = [&](const JobOutcome& o) {
    attempted += 1 + o.queries;
    failed += (o.ok ? 0 : 1) + o.failed_queries;
    if (!o.ok) {
      correct = false;
      std::fprintf(stderr, "opmr_bench: %s job failed: %s\n", name.c_str(),
                   o.error.c_str());
    }
  };

  const auto start = Clock::now();
  while (jobs.size() < kMaxJobs &&
         (jobs.size() < kMinJobs || Seconds(Clock::now() - start) < args.seconds)) {
    // Each job's peak RSS is the process's high-water mark during that job
    // alone, not during the set-ups, the reference job or earlier jobs.
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "opmr_bench: cannot reset the peak RSS mark "
                           "(/proc/self/clear_refs)\n");
      return 1;
    }
    jobs.push_back(workload->Run(nullptr));
    jobs.back().peak_rss_mb = PeakRssMb();
    account(jobs.back());
    std::printf("# job %zu: job_s=%.4f cpu_s=%.4f first_output_s=%.4f "
                "peak_rss_mb=%.2f %s\n",
                jobs.size(), jobs.back().job_s, jobs.back().cpu_s,
                jobs.back().first_output_s, jobs.back().peak_rss_mb,
                jobs.back().ok ? "ok" : "FAILED");
  }

  Report report;
  if (!args.trace) {
    AddEndToEnd(report, Summary::Of(setups), jobs);
  } else {
    Tracer tracer(/*job_id=*/1);
    const JobOutcome traced = workload->Run(&tracer);
    account(traced);
    fs::create_directories(args.out);
    const fs::path trace_file = args.out / ("trace_" + name + "_" +
                                            std::to_string(args.seed) + ".json");
    if (!tracer.WriteChromeTrace(trace_file, name)) {
      std::fprintf(stderr, "opmr_bench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
    std::printf("# traced job: %s, %zu spans (%llu dropped) -> %s\n",
                traced.ok ? "ok" : "FAILED", tracer.span_count(),
                static_cast<unsigned long long>(tracer.dropped_spans()),
                trace_file.c_str());
    PrintLayerTable(tracer);
    AddPerLayer(report, traced, tracer, jobs);
  }
  std::printf("# %s: %zu timed jobs, %llu ops attempted, %llu failed\n",
              name.c_str(), jobs.size(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  report.Print();
  std::printf("%s\n", report.JsonLine(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB.  Left dynamic, it
  // rises to the size of the first large buffer freed (a 4 MiB DFS block),
  // after which such buffers come from the heap arenas and stay there, so a
  // job's peak RSS switched between levels about 2 MB apart depending on
  // allocation history.  Pinned, large buffers are mapped and unmapped as
  // they are allocated and freed, and peak_rss_mb tracks live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto cfg = Config::FromArgs(argc, argv);
  Args args;
  args.workload = cfg.GetString("workload", "");
  args.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 1));
  args.seconds = cfg.GetDouble("seconds", 10.0);
  args.trace = cfg.GetBool("trace", false);
  args.scale = cfg.GetDouble("scale", 1.0);
  args.out = cfg.GetString("out", "bench_out");

  std::vector<std::string> names;
  if (args.workload == "all") {
    names = kWorkloads;
  } else if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) !=
             kWorkloads.end()) {
    names = {args.workload};
  } else {
    std::fprintf(stderr, "opmr_bench: unknown --workload '%s' (expected all",
                 args.workload.c_str());
    for (const auto& w : kWorkloads) std::fprintf(stderr, ", %s", w.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    std::fprintf(stderr, "opmr_bench: --seconds and --scale must be positive\n");
    return 2;
  }
  const std::string refusal = BuildInfo::Current().RefusalReason();
  if (!refusal.empty()) {
    std::fprintf(stderr, "opmr_bench: refusing to report numbers: binary %s\n",
                 refusal.c_str());
    return 3;
  }

  // Every scratch file (DFS blocks, map output, spills, snapshot images)
  // goes under the output directory, and is removed on exit.
  const fs::path work_dir =
      fs::absolute(args.out) / ("work-" + std::to_string(getpid()));
  fs::create_directories(work_dir);
  setenv("TMPDIR", work_dir.c_str(), 1);

  int status = 0;
  try {
    for (const auto& name : names) status |= RunWorkload(args, name, work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opmr_bench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  return status;
}
