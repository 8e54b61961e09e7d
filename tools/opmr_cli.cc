// opmr_cli — command-line driver for the OPMR platform.
//
//   opmr_cli run workload=<w> runtime=<r> [records=N] [reducers=R]
//                [nodes=N] [combine=0|1] [compress=0|1] [reduce_buffer=BYTES]
//                [dump-output=PATH]
//                [--max-attempts=N] [--fault-plan=<file|spec>]
//                [--checkpoint-interval=N] [--checkpoint-dir=PATH]
//                [--checkpoint-retain=K] [--checkpoint-compress]
//                [--transport=loopback|tcp|direct]
//                [--shuffle-timeout=SECONDS]
//                [--ship-segments] [--replication=N]
//       Generates a synthetic dataset for <w>, runs it on runtime <r>, and
//       prints the job report (wall/CPU/I-O/emission metrics).
//       --transport picks how shuffle traffic moves (src/net): loopback
//       (default) frames it through the in-process transport, tcp forks a
//       separate map worker-group process that dials the reduce group over
//       a localhost socket, direct is the raw in-process seed path with no
//       framing.  --shuffle-timeout bounds reduce-side silence in tcp mode
//       (mapper-process death detection), and --ship-segments sends
//       segment bytes inline instead of path descriptors, as a remote host
//       would.
//       --fault-plan takes a FaultPlan spec string or plan file (see
//       src/fault/fault.h), e.g. --fault-plan='seed=7;map_crash:task=0,record=500';
//       --max-attempts enables task re-execution (pull shuffle only).
//       --checkpoint-interval=N checkpoints reducer state every N folded
//       records, making reduce failures recoverable even under the pipelined
//       push shuffle; --checkpoint-dir overrides the image directory,
//       --checkpoint-retain keeps the last K images (default 2) and
//       --checkpoint-compress OZ-compresses the payload.
//       workloads: sessionization | sessionization_ss | page_frequency |
//                  per_user_count | inverted_index | word_count |
//                  distinct_visitors | hashtag_count
//       runtimes : hadoop | mr_online | hash | hotkey | checkpoint
//
//   opmr_cli sim workload=<w> runtime=<r> [storage=hdd|hdd+ssd|separate]
//                [merge_factor=F] [nodes=N]
//       Replays the workload at paper scale on the cluster simulator and
//       prints the completion/phase/I-O summary plus ASCII traces.
//
//   opmr_cli topk workload=<w> k=N [records=N]
//       Runs the two-job top-k pipeline and prints the winners.
//
//   opmr_cli sort [records=N] [reducers=R]
//       TeraSort demo: random records, sampled range boundaries, globally
//       sorted output; verifies and reports the order.
//
//   opmr_cli coordinator listen=<host:port> [secret=S] [map-workers=N]
//                  [reduce-workers=N] [wait=SECONDS]
//       Cluster mode, rendezvous endpoint: binds <host:port>, takes the
//       Register announces of joining workers (authenticated against
//       `secret` when set) and broadcasts the Membership view, which is
//       where map workers find their reducer.  Exits 0 once the expected
//       worker counts have registered and the view completing the group
//       has gone out, printing the roster.  The coordinator is not on the
//       data path: the job runs to the end without it (kill -9 it early
//       and watch).
//
//   opmr_cli worker join=<host:port> id=<worker>
//                  role=map|reduce [secret=S]
//                  [index=I] [count=N] [shared-fs=0|1] [bind=ADDR]
//                  [advertise=ADDR] [dump-output=PATH] <workload flags>
//       Cluster mode, one worker process: joins the coordinator's group,
//       then runs its half of the job.  A reduce worker binds a shuffle
//       server socket and advertises it through the registry; map workers
//       discover it from the Membership view and run input blocks
//       i % count == index (a disjoint partition per sibling).  Segment
//       bytes ship inline by default (shared-fs=1 restores path
//       descriptors for same-host workers).  Map-side delivery is
//       exactly-once via per-chunk sequence acks: a reducer-side crash
//       replays only the delivered-but-unacked window (see the ack
//       replay rows in the report).  dump-output writes the reduce
//       side's sorted output for byte-identity checks.
//
//   opmr_cli stream workload=<w> [records=N] [workers=R] [session-gap=S]
//                  [hot-keys=N] [--publish-snapshots=<host:port>]
//                  [snapshot-interval=N] [snapshot-retain=K]
//                  [snapshot-dir=PATH] [secret=S] [linger=SECONDS] [nodes=N]
//       Streaming mode: ingests a generated click stream through a live
//       StreamingJob (algebraic workloads only: sessionization |
//       per_user_count | page_frequency) and prints the final answers.
//       With --publish-snapshots the job binds a serving endpoint and
//       publishes an immutable, versioned snapshot image of its state
//       every snapshot-interval records (default records/10); frontends
//       subscribe there to answer queries mid-job.  linger keeps the
//       publisher up that many seconds after ingest finishes so replicas
//       can drain the final version.
//
//   opmr_cli frontend publisher=<host:port> [listen=<host:port>]
//                  [workload=<w>] [session-gap=S] [staleness-budget=N]
//                  [rate=QPS] [burst=N] [scan-limit=N] [id=<name>]
//                  [secret=S] [advertise=ADDR] [wait=SECONDS]
//       Serving replica: subscribes to a streaming job's snapshot
//       publisher, applies each announced version to an in-memory view,
//       and serves point / top-k / scan queries on <listen> (default
//       127.0.0.1: ephemeral).  --staleness-budget bounds the replica lag
//       (in ingest records) a query may observe — staler answers are
//       REJECTED, not served; rate/burst set the default per-tenant token
//       bucket.  Runs for wait seconds (default 60), then prints serving
//       counters.
//
//   opmr_cli query at=<host:port> op=point|topk|scan [key=K] [end=K]
//                  [n=N] [limit=N] [tenant=T] [staleness-budget=N]
//       One-shot client against a frontend: prints the reply status, the
//       snapshot version/watermark/lag it was answered from, and the rows.
//       staleness-budget tightens (never loosens) the tenant's budget for
//       this query alone.
//
//   opmr_cli serve spool=<dir|-> [map-slots=N] [reduce-slots=N]
//                  [policy=fifo|fair|srw] [memory-budget=BYTES]
//                  [max-concurrent=N] [nodes=N]
//       Multi-job mode: drains `*.job` spool files from <dir> (renaming
//       each to `*.job.done`), or blank-line-separated key=value blocks
//       from stdin with spool=-, and runs them all through the shared-slot
//       JobScheduler (src/sched).  Each job gets its own `<id>.in` dataset
//       and `<id>.out` output; the chosen policy arbitrates contended map/
//       reduce slots, and each job's map tasks run local-first on the
//       nodes holding their blocks.  Prints per-job reports, scheduler
//       stats, and a cross-job task timeline.
//       Spool keys: workload, runtime, transport (direct|loopback|tcp),
//       records, reducers, memory_bytes, checkpoint_interval,
//       checkpoint_retain.
//
// Every subcommand rejects a key it does not read (a typo or a removed
// flag) with exit 1 before it does any work.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/format.h"
#include "coord/coordinator.h"
#include "coord/member.h"
#include "core/opmr.h"
#include "metrics/counter_rows.h"
#include "metrics/timeseries.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "metrics/timeline.h"
#include "sched/scheduler.h"
#include "sched/spool.h"
#include "serve/frontend.h"
#include "serve/publisher.h"
#include "serve/query_client.h"
#include "sim/simulator.h"
#include "stream/streaming_job.h"
#include "workloads/streaming_queries.h"
#include "workloads/global_sort.h"
#include "workloads/pipelines.h"
#include "workloads/tasks.h"
#include "workloads/tweets.h"
#include "workloads/webdocs.h"

namespace {

using namespace opmr;

JobOptions RuntimeByName(const std::string& name) {
  if (name == "hadoop") return HadoopOptions();
  if (name == "mr_online") return MapReduceOnlineOptions();
  if (name == "hash") return HashOnePassOptions();
  if (name == "hotkey") return HotKeyOnePassOptions();
  if (name == "checkpoint") return CheckpointedOnePassOptions();
  throw std::invalid_argument("unknown runtime: " + name);
}

// Integer flag with validation: rejects garbage and values below
// `min_value` with a one-line error instead of std::stoll's cryptic throw.
std::int64_t GetCheckedInt(const Config& cfg, const std::string& key,
                           std::int64_t def, std::int64_t min_value = 0) {
  const auto raw = cfg.Get(key);
  if (!raw) return def;
  std::int64_t value = 0;
  try {
    std::size_t consumed = 0;
    value = std::stoll(*raw, &consumed);
    if (consumed != raw->size()) throw std::invalid_argument("trailing text");
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + ": '" + *raw +
                                "' is not an integer");
  }
  if (value < min_value) {
    throw std::invalid_argument("--" + key + ": must be >= " +
                                std::to_string(min_value) + ", got " + *raw);
  }
  return value;
}

// Call once `command` has read every key it understands, before it does
// any work: anything left is a typo or a removed flag, and running anyway
// would run something other than what was asked for.
void RejectUnreadKeys(const Config& cfg, const std::string& command) {
  const auto unread = cfg.UnreadKeys();
  if (unread.empty()) return;
  std::string names;
  for (const auto& key : unread) {
    names += (names.empty() ? "--" : ", --") + key;
  }
  throw std::invalid_argument(command + ": unknown option(s) " + names +
                              "; see the header of tools/opmr_cli.cc for "
                              "the flags `" + command + "` takes");
}

// Generates the right dataset and returns the job spec for `workload`.
// Serve mode names the datasets per job so concurrent jobs never collide.
JobSpec PrepareWorkload(Platform& platform, const std::string& workload,
                        std::uint64_t records, int reducers,
                        const std::string& input = "input",
                        const std::string& output = "output") {
  if (workload == "inverted_index" || workload == "word_count") {
    WebDocsOptions gen;
    gen.num_docs = std::max<std::uint64_t>(1, records / 120);
    GenerateWebDocs(platform.dfs(), input, gen);
    return workload == "inverted_index"
               ? InvertedIndexJob(input, output, reducers)
               : WordCountJob(input, output, reducers);
  }
  if (workload == "hashtag_count") {
    TweetStreamOptions gen;
    gen.num_tweets = records;
    GenerateTweetStream(platform.dfs(), input, gen);
    return HashtagCountJob(input, output, reducers);
  }
  ClickStreamOptions gen;
  gen.num_records = records;
  gen.num_users = std::max<std::uint64_t>(100, records / 20);
  gen.num_urls = std::max<std::uint64_t>(100, records / 50);
  GenerateClickStream(platform.dfs(), input, gen);
  if (workload == "sessionization") {
    return SessionizationJob(input, output, reducers);
  }
  if (workload == "sessionization_ss") {
    return SessionizationSecondarySortJob(input, output, reducers);
  }
  if (workload == "page_frequency") {
    return PageFrequencyJob(input, output, reducers);
  }
  if (workload == "per_user_count") {
    return PerUserCountJob(input, output, reducers);
  }
  if (workload == "distinct_visitors") {
    return DistinctVisitorsJob(input, output, reducers);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

void PrintJobReport(const JobResult& r) {
  TextTable table;
  table.AddRow({"metric", "value"});
  table.AddRow({"wall time", HumanSeconds(r.wall_seconds)});
  table.AddRow({"total CPU", HumanSeconds(r.total_cpu_seconds)});
  table.AddRow({"input records", std::to_string(r.input_records)});
  table.AddRow({"map output records", std::to_string(r.map_output_records)});
  table.AddRow({"output records", std::to_string(r.output_records)});
  table.AddRow({"map tasks (local)",
                std::to_string(r.num_map_tasks) + " (" +
                    std::to_string(r.local_map_tasks) + ")"});
  table.AddRow({"first output at",
                r.first_output_seconds < 0
                    ? "-"
                    : HumanSeconds(r.first_output_seconds)});
  for (auto& [name, value] : CounterRows(r.counters)) {
    table.AddRow({std::move(name), std::move(value)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nper-phase CPU seconds:\n");
  for (const auto& [phase, secs] : r.cpu_seconds) {
    std::printf("  %-18s %8.3f\n", phase.c_str(), secs);
  }
}

// Runs the job as two OS processes: a forked child executes the map worker
// group and dials the parent's reduce group over a localhost socket.  The
// fork happens after input generation, so the child inherits the DFS block
// metadata; it must _Exit so the parent-owned workspace cleanup never runs
// twice (and so registered segment files survive until the reducers have
// read them).
JobResult RunOverSockets(Platform& platform, const JobSpec& spec,
                         const JobOptions& options, double idle_timeout_s,
                         bool shared_fs) {
  // Bind before fork: the listen backlog holds the child's dial.  The
  // transport starts its I/O threads lazily (Listen/Connect), so the fork
  // below is safe.
  net::TcpTransport server(&platform.metrics());
  server.Bind();
  const std::string endpoint = server.endpoint();
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = fork();
  if (child < 0) {
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  }
  if (child == 0) {
    int code = 0;
    try {
      // Release the inherited listen socket first.  Keeping it open lets a
      // post-shutdown reconnect dial land in the zombie backlog of a listener
      // the parent no longer owns — the connection is never accepted and the
      // client's close-side EOF wait would hang forever.  With the fd closed,
      // redials get ECONNREFUSED and fail fast.
      server.Shutdown();
      net::TcpTransport client(&platform.metrics(), endpoint);
      platform.RunMapGroup(spec, options, &client, shared_fs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "map worker group: error: %s\n", e.what());
      std::fflush(stderr);
      code = 1;
    }
    std::_Exit(code);
  }
  std::printf("map worker group: pid %d -> reduce group at %s\n",
              static_cast<int>(child), endpoint.c_str());
  std::fflush(stdout);
  JobResult result;
  std::exception_ptr failure;
  try {
    result =
        platform.RunReduceGroup(spec, options, &server, idle_timeout_s);
  } catch (...) {
    failure = std::current_exception();
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (failure) std::rethrow_exception(failure);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("map worker group process failed");
  }
  return result;
}

int CmdRun(const Config& cfg) {
  const auto workload = cfg.GetString("workload", "per_user_count");
  const auto runtime = cfg.GetString("runtime", "hash");
  const auto records = static_cast<std::uint64_t>(
      GetCheckedInt(cfg, "records", 1'000'000, /*min_value=*/1));
  const int reducers =
      static_cast<int>(GetCheckedInt(cfg, "reducers", 4, /*min_value=*/1));

  PlatformOptions popts;
  popts.num_nodes =
      static_cast<int>(GetCheckedInt(cfg, "nodes", 4, /*min_value=*/1));
  popts.block_bytes = static_cast<std::uint64_t>(
      GetCheckedInt(cfg, "block_bytes", 4 << 20, /*min_value=*/1));
  popts.replication = static_cast<int>(
      GetCheckedInt(cfg, "replication", 1, /*min_value=*/1));
  popts.max_task_attempts = static_cast<int>(
      GetCheckedInt(cfg, "max-attempts", 1, /*min_value=*/1));
  popts.fault_plan = cfg.GetString("fault-plan", "");

  JobOptions options = RuntimeByName(runtime);
  options.map_side_combine = cfg.GetBool("combine", true);
  options.compress_spills = cfg.GetBool("compress", false);
  options.reduce_buffer_bytes = static_cast<std::size_t>(GetCheckedInt(
      cfg, "reduce_buffer",
      static_cast<std::int64_t>(options.reduce_buffer_bytes),
      /*min_value=*/1));
  const auto ckpt_interval =
      GetCheckedInt(cfg, "checkpoint-interval", 0, /*min_value=*/0);
  if (ckpt_interval > 0) {
    options.checkpoint.enabled = true;
    options.checkpoint.interval_records =
        static_cast<std::uint64_t>(ckpt_interval);
  }
  if (options.checkpoint.enabled) {
    options.checkpoint.retain = static_cast<int>(GetCheckedInt(
        cfg, "checkpoint-retain", options.checkpoint.retain, /*min_value=*/1));
    options.checkpoint.compress = cfg.GetBool("checkpoint-compress", false);
    options.checkpoint.dir = cfg.GetString("checkpoint-dir", "");
  } else if (cfg.Get("checkpoint-retain") || cfg.Get("checkpoint-dir") ||
             cfg.Get("checkpoint-compress")) {
    throw std::invalid_argument(
        "--checkpoint-retain/--checkpoint-dir/--checkpoint-compress require "
        "--checkpoint-interval=N (or runtime=checkpoint)");
  }

  const auto transport = cfg.GetString("transport", "loopback");
  if (transport != "loopback" && transport != "tcp" && transport != "direct") {
    throw std::invalid_argument("unknown transport: " + transport +
                                " (expected loopback, tcp, or direct)");
  }
  const double shuffle_timeout = static_cast<double>(
      GetCheckedInt(cfg, "shuffle-timeout", 30, /*min_value=*/1));
  const bool ship_segments = cfg.GetBool("ship-segments", false);

  // Flag-combination validation: combinations that would silently do
  // nothing are rejected with a pointer at what the user probably wanted.
  if (popts.max_task_attempts > 1 && options.shuffle == Shuffle::kPush &&
      !options.checkpoint.enabled) {
    throw std::invalid_argument(
        "--max-attempts is pull-only: under the push shuffle of runtime '" +
        runtime + "' a failed task's pipelined output cannot be recalled, "
        "so retries could never succeed. Use runtime=hadoop, or add "
        "--checkpoint-interval=N so reduce attempts resume from a "
        "checkpoint image.");
  }
  if (transport == "direct" &&
      (cfg.Get("shuffle-timeout") || cfg.Get("ship-segments"))) {
    throw std::invalid_argument(
        "--shuffle-timeout/--ship-segments apply to framed transports only "
        "(--transport=loopback or tcp); with --transport=direct the "
        "shuffle never crosses a wire.");
  }
  if (cfg.Get("publish-snapshots") || cfg.Get("snapshot-interval") ||
      cfg.Get("snapshot-retain")) {
    throw std::invalid_argument(
        "--publish-snapshots/--snapshot-interval/--snapshot-retain belong to "
        "the serving plane, which snapshots a LIVE streaming job's state "
        "mid-run; a batch `run` job materializes its full output at the end "
        "and has nothing to serve early. Use `opmr_cli stream workload=" +
        workload + " --publish-snapshots=<host:port>` (algebraic workloads "
        "only) and point `opmr_cli frontend` at it.");
  }
  if (cfg.Get("staleness-budget")) {
    throw std::invalid_argument(
        "--staleness-budget is a serving-replica policy (the max ingest lag "
        "a query may observe) and means nothing to a batch `run` job. Set "
        "it on `opmr_cli frontend` as the tenant default, or per query on "
        "`opmr_cli query`.");
  }

  const auto dump = cfg.GetString("dump-output", "");
  RejectUnreadKeys(cfg, "run");

  Platform platform(popts);
  if (platform.fault_injector() != nullptr) {
    std::printf("fault plan: %s\n",
                platform.fault_injector()->plan().ToString().c_str());
  }
  std::printf("generating %s input (%llu records)...\n", workload.c_str(),
              static_cast<unsigned long long>(records));
  const auto spec = PrepareWorkload(platform, workload, records, reducers);

  std::printf("running '%s' on runtime '%s' (transport %s)...\n",
              spec.name.c_str(), runtime.c_str(), transport.c_str());
  JobResult result;
  if (transport == "direct") {
    result = platform.Run(spec, options);
  } else if (transport == "loopback") {
    net::LoopbackTransport loopback(&platform.metrics());
    result = platform.RunWithTransport(spec, options, &loopback,
                                       /*shared_fs=*/!ship_segments);
  } else {
    result = RunOverSockets(platform, spec, options, shuffle_timeout,
                            /*shared_fs=*/!ship_segments);
  }
  PrintJobReport(result);
  if (!dump.empty()) {
    auto rows = platform.ReadOutput("output", reducers);
    std::sort(rows.begin(), rows.end());
    std::ofstream out(dump, std::ios::trunc);
    for (const auto& [key, value] : rows) {
      out << key << '\t' << value << '\n';
    }
    std::printf("wrote %zu sorted output rows to %s\n", rows.size(),
                dump.c_str());
  }
  return 0;
}

sched::JobTransport TransportByName(const std::string& name) {
  if (name == "direct") return sched::JobTransport::kDirect;
  if (name == "loopback") return sched::JobTransport::kLoopback;
  if (name == "tcp") return sched::JobTransport::kTcp;
  throw std::invalid_argument("unknown transport: " + name);
}

// ASCII density view of the cross-job timeline: one row per task kind,
// active-task counts sampled across the scheduler clock.
void PrintCrossJobTimeline(const std::vector<TaskInterval>& intervals) {
  double end = 0.0;
  for (const auto& iv : intervals) end = std::max(end, iv.end_s);
  if (end <= 0.0) return;
  constexpr int kCols = 64;
  static constexpr char kRamp[] = " .:-=+*#%@";
  std::printf("\ncross-job task activity (%s total):\n",
              HumanSeconds(end).c_str());
  for (int kind = 0; kind < 4; ++kind) {
    std::vector<int> counts(kCols, 0);
    int peak = 0;
    for (int c = 0; c < kCols; ++c) {
      const double t = end * (c + 0.5) / kCols;
      for (const auto& iv : intervals) {
        if (static_cast<int>(iv.kind) == kind && iv.begin_s <= t &&
            t < iv.end_s) {
          ++counts[c];
        }
      }
      peak = std::max(peak, counts[c]);
    }
    if (peak == 0) continue;
    std::string row(kCols, ' ');
    for (int c = 0; c < kCols; ++c) {
      row[c] = kRamp[std::min(9, counts[c] * 9 / peak)];
    }
    std::printf("  %-8s|%s| peak %d\n",
                TaskKindName(static_cast<TaskKind>(kind)), row.c_str(), peak);
  }
}

int CmdServe(const Config& cfg) {
  const auto spool = cfg.GetString("spool", "");
  if (spool.empty()) {
    throw std::invalid_argument(
        "serve: spool=<dir> (or spool=- for stdin) is required");
  }
  PlatformOptions popts;
  popts.num_nodes =
      static_cast<int>(GetCheckedInt(cfg, "nodes", 4, /*min_value=*/1));

  sched::SchedulerOptions sopts;
  sopts.map_slots =
      static_cast<int>(GetCheckedInt(cfg, "map-slots", 8, /*min_value=*/1));
  sopts.reduce_slots =
      static_cast<int>(GetCheckedInt(cfg, "reduce-slots", 8, /*min_value=*/1));
  sopts.memory_budget_bytes = static_cast<std::size_t>(GetCheckedInt(
      cfg, "memory-budget", 256ll << 20, /*min_value=*/1));
  sopts.max_concurrent = static_cast<int>(
      GetCheckedInt(cfg, "max-concurrent", 4, /*min_value=*/1));
  sopts.num_nodes = popts.num_nodes;
  const auto policy_name = cfg.GetString("policy", "fifo");
  const auto policy = sched::ParseSchedPolicy(policy_name);
  if (!policy) {
    throw std::invalid_argument("unknown policy: " + policy_name +
                                " (expected fifo, fair, or srw)");
  }
  sopts.policy = *policy;
  // Before the spool is drained: a rejected flag leaves its jobs queued.
  RejectUnreadKeys(cfg, "serve");

  std::vector<sched::SpoolSpec> specs;
  if (spool == "-") {
    // Blank-line-separated key=value blocks on stdin.
    std::string line;
    std::string block;
    int seq = 0;
    const auto flush = [&] {
      if (block.empty()) return;
      std::istringstream in(block);
      char id[16];
      std::snprintf(id, sizeof(id), "job%03d", seq++);
      specs.push_back(sched::ParseSpoolSpec(id, in));
      block.clear();
    };
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) {
        flush();
      } else {
        block += line + "\n";
      }
    }
    flush();
  } else {
    specs = sched::DrainSpoolDir(spool);
  }
  if (specs.empty()) {
    std::printf("serve: no job specs found in %s\n", spool.c_str());
    return 0;
  }
  Platform platform(popts);

  sched::JobScheduler scheduler(&platform.dfs(), &platform.files(), sopts);
  for (const auto& s : specs) {
    std::printf("job '%s': generating %s input (%llu records)...\n",
                s.id.c_str(), s.workload.c_str(),
                static_cast<unsigned long long>(s.records));
    sched::JobRequest request;
    request.id = s.id;
    request.spec = PrepareWorkload(platform, s.workload, s.records,
                                   s.reducers, s.id + ".in", s.id + ".out");
    request.options =
        s.runtime == "checkpoint"
            ? CheckpointedOnePassOptions(s.checkpoint_interval,
                                         s.checkpoint_retain)
            : RuntimeByName(s.runtime);
    request.transport = TransportByName(s.transport);
    request.memory_bytes = s.memory_bytes;
    scheduler.Submit(std::move(request));
  }
  std::printf("admitted %zu job(s): policy %s, %d map + %d reduce slots, "
              "%s memory budget\n",
              specs.size(), sched::SchedPolicyName(sopts.policy),
              sopts.map_slots, sopts.reduce_slots,
              HumanBytes(double(sopts.memory_budget_bytes)).c_str());

  const auto reports = scheduler.Drain();
  int failures = 0;
  for (const auto& report : reports) {
    std::printf("\n=== job '%s' (queued %s, ran %s) ===\n", report.id.c_str(),
                HumanSeconds(report.queue_wait_s()).c_str(),
                HumanSeconds(report.finished_s - report.started_s).c_str());
    if (report.failed) {
      ++failures;
      std::printf("FAILED: %s\n", report.error.c_str());
      continue;
    }
    PrintJobReport(report.result);
  }
  const auto stats = scheduler.stats();
  std::printf("\nmakespan %s | %d/%d jobs ok | peak %d concurrent | "
              "slot waits %lld (%s blocked)\n",
              HumanSeconds(stats.makespan_s).c_str(), stats.completed,
              stats.submitted, stats.peak_concurrent,
              static_cast<long long>(stats.slots.waits),
              HumanSeconds(stats.slots.wait_seconds).c_str());
  PrintCrossJobTimeline(scheduler.Timeline());
  return failures == 0 ? 0 : 1;
}

int CmdSim(const Config& cfg) {
  const auto workload = cfg.GetString("workload", "sessionization");
  const auto runtime = cfg.GetString("runtime", "hadoop");
  const auto storage = cfg.GetString("storage", "hdd");

  sim::SimWorkload w;
  if (workload == "sessionization") w = sim::Sessionization256();
  else if (workload == "page_frequency") w = sim::PageFrequency508();
  else if (workload == "per_user_count") w = sim::PerUserCount256();
  else if (workload == "inverted_index") w = sim::InvertedIndex427();
  else throw std::invalid_argument("unknown sim workload: " + workload);

  sim::SimConfig config;
  config.num_nodes = static_cast<int>(cfg.GetInt("nodes", 10));
  config.merge_factor = static_cast<int>(cfg.GetInt("merge_factor", 10));
  if (runtime == "hadoop") config.runtime = sim::SimRuntime::kHadoop;
  else if (runtime == "mr_online") {
    config.runtime = sim::SimRuntime::kHop;
    config.snapshot_interval = 0.25;
    config.push_overhead = 1.15;
  } else if (runtime == "hash") {
    config.runtime = sim::SimRuntime::kHashOnePass;
  } else {
    throw std::invalid_argument("unknown sim runtime: " + runtime);
  }
  if (storage == "hdd+ssd") config.storage = sim::StorageArch::kHddPlusSsd;
  else if (storage == "separate") {
    config.storage = sim::StorageArch::kSeparate;
    w.input_bytes /= 2;
  }
  RejectUnreadKeys(cfg, "sim");

  const auto r = sim::SimulateJob(w, config);
  std::printf("completion %s | map phase end %.0f s | merges %d | "
              "snapshots %d\n",
              HumanSeconds(r.completion_s).c_str(), r.map_phase_end_s,
              r.merge_operations, r.snapshots);
  std::printf("input %s | map out %s | spill w/r %s / %s | output %s\n",
              HumanBytes(r.input_read_bytes).c_str(),
              HumanBytes(r.map_output_write_bytes).c_str(),
              HumanBytes(r.spill_write_bytes).c_str(),
              HumanBytes(r.spill_read_bytes).c_str(),
              HumanBytes(r.output_write_bytes).c_str());
  TimeSeries util("CPU utilization");
  for (const auto& s : r.cpu_util) util.Append(s.time_s, s.value);
  std::printf("%s", AsciiPlot(util, 78, 10, 1.0).c_str());
  return 0;
}

int CmdTopK(const Config& cfg) {
  const auto workload = cfg.GetString("workload", "page_frequency");
  const auto k = static_cast<std::size_t>(cfg.GetInt("k", 10));
  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 1'000'000));
  RejectUnreadKeys(cfg, "topk");

  Platform platform({.num_nodes = 4});
  const auto spec = PrepareWorkload(platform, workload, records, 4);
  const auto winners =
      RunTopKPipeline(platform, spec, HashOnePassOptions(), k);
  std::printf("top %zu of '%s':\n", k, workload.c_str());
  int rank = 1;
  for (const auto& w : winners) {
    std::printf("  %2d. %-24s %llu\n", rank++, w.payload.c_str(),
                static_cast<unsigned long long>(w.score));
  }
  return 0;
}

int CmdSort(const Config& cfg) {
  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 1'000'000));
  const int reducers = static_cast<int>(cfg.GetInt("reducers", 8));
  RejectUnreadKeys(cfg, "sort");

  Platform platform({.num_nodes = 4});
  Rng rng(1);
  auto writer = platform.dfs().Create("input");
  for (std::uint64_t i = 0; i < records; ++i) {
    char buf[28];
    std::snprintf(buf, sizeof(buf), "%016llx-%08llx",
                  static_cast<unsigned long long>(rng.Next()),
                  static_cast<unsigned long long>(i));
    writer->Append(Slice(buf, 25));
  }
  writer->Close();

  const auto spec = GlobalSortJob(platform, "input", "sorted", reducers);
  const auto result = platform.Run(spec, HadoopOptions());

  std::string prev;
  std::uint64_t rows = 0;
  bool ordered = true;
  for (int r = 0; r < reducers; ++r) {
    for (const auto& [key, value] :
         platform.ReadOutputFile("sorted.part" + std::to_string(r))) {
      ordered = ordered && prev <= key;
      prev = key;
      ++rows;
    }
  }
  std::printf("sorted %llu records in %s across %d range partitions; "
              "globally ordered: %s; reducer imbalance %.2fx\n",
              static_cast<unsigned long long>(rows),
              HumanSeconds(result.wall_seconds).c_str(), reducers,
              ordered ? "yes" : "NO", result.ReducerImbalance());
  return ordered && rows == records ? 0 : 1;
}

// Splits "host:port" at the last colon; throws on malformed input.
std::pair<std::string, int> SplitHostPort(const std::string& endpoint,
                                          const std::string& flag) {
  if (endpoint.find(',') != std::string::npos) {
    throw std::invalid_argument(flag + ": takes one <host:port>, got the "
                                "list '" + endpoint + "'");
  }
  const auto colon = endpoint.rfind(':');
  if (endpoint.empty() || colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    throw std::invalid_argument(flag + ": expected <host:port>, got '" +
                                endpoint + "'");
  }
  int port = 0;
  try {
    std::size_t consumed = 0;
    port = std::stoi(endpoint.substr(colon + 1), &consumed);
    if (consumed != endpoint.size() - colon - 1 || port < 0 || port > 65535) {
      throw std::invalid_argument("bad port");
    }
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + ": '" + endpoint.substr(colon + 1) +
                                "' is not a port number");
  }
  return {endpoint.substr(0, colon), port};
}

// Pretty-prints a servable value: aggregates are 8-byte u64s; anything
// else is shown raw.
std::string ShowValue(const std::string& value) {
  return value.size() == 8 ? std::to_string(DecodeU64(value.data())) : value;
}

int CmdStream(const Config& cfg) {
  const auto workload = cfg.GetString("workload", "sessionization");
  if (!IsStreamingWorkload(workload)) {
    throw std::invalid_argument(
        "stream: workload '" + workload + "' has no algebraic streaming "
        "form (expected sessionization, per_user_count or page_frequency); "
        "holistic workloads need end-of-stream and run with `opmr_cli run`.");
  }
  if (cfg.Get("staleness-budget")) {
    throw std::invalid_argument(
        "--staleness-budget is a replica-side policy: the publisher always "
        "publishes its freshest state. Set it on `opmr_cli frontend` (tenant "
        "default) or `opmr_cli query` (per query).");
  }
  const auto publish = cfg.GetString("publish-snapshots", "");
  if (publish.empty() &&
      (cfg.Get("snapshot-interval") || cfg.Get("snapshot-retain") ||
       cfg.Get("snapshot-dir") || cfg.Get("linger"))) {
    throw std::invalid_argument(
        "--snapshot-interval/--snapshot-retain/--snapshot-dir/--linger "
        "shape snapshot publication and require "
        "--publish-snapshots=<host:port> (the endpoint frontends subscribe "
        "to); without it the stream publishes nothing.");
  }
  const auto records = static_cast<std::uint64_t>(
      GetCheckedInt(cfg, "records", 200'000, /*min_value=*/1));
  const int workers =
      static_cast<int>(GetCheckedInt(cfg, "workers", 4, /*min_value=*/1));
  const auto gap = static_cast<std::uint64_t>(GetCheckedInt(
      cfg, "session-gap", static_cast<std::int64_t>(kDefaultSessionGap),
      /*min_value=*/1));

  StreamingOptions sopts;
  sopts.hot_key_capacity = static_cast<std::size_t>(
      GetCheckedInt(cfg, "hot-keys", 0, /*min_value=*/0));
  serve::PublisherOptions pub;
  pub.job = workload;
  pub.dir = cfg.GetString("snapshot-dir", "serve_images");
  pub.retain = static_cast<int>(
      GetCheckedInt(cfg, "snapshot-retain", 4, /*min_value=*/1));
  pub.secret = cfg.GetString("secret", "");
  if (!publish.empty()) {
    sopts.snapshot_interval_records = static_cast<std::uint64_t>(
        GetCheckedInt(cfg, "snapshot-interval",
                      static_cast<std::int64_t>(
                          std::max<std::uint64_t>(records / 10, 1)),
                      /*min_value=*/1));
  }
  const auto linger = GetCheckedInt(cfg, "linger", 0, /*min_value=*/0);

  PlatformOptions popts;
  popts.num_nodes =
      static_cast<int>(GetCheckedInt(cfg, "nodes", 4, /*min_value=*/1));
  RejectUnreadKeys(cfg, "stream");
  Platform platform(popts);
  std::printf("generating %s click stream (%llu records)...\n",
              workload.c_str(), static_cast<unsigned long long>(records));
  ClickStreamOptions gen;
  gen.num_records = records;
  gen.num_users = std::max<std::uint64_t>(100, records / 20);
  gen.num_urls = std::max<std::uint64_t>(100, records / 50);
  GenerateClickStream(platform.dfs(), "stream_input", gen);

  MetricRegistry metrics;
  std::unique_ptr<net::TcpTransport> server;
  std::unique_ptr<serve::SnapshotPublisher> publisher;
  if (!publish.empty()) {
    const auto [host, port] = SplitHostPort(publish, "publish-snapshots");
    net::TcpTransport::Options topts;
    topts.bind_address = host;
    topts.bind_port = port;
    server = std::make_unique<net::TcpTransport>(&metrics, topts);
    server->Bind();
    publisher = std::make_unique<serve::SnapshotPublisher>(server.get(),
                                                           &metrics, pub);
    sopts.publish_snapshot = [&pub_ref = *publisher](CheckpointImage image) {
      pub_ref.Publish(std::move(image));
    };
    std::printf("stream: serving '%s' snapshots at %s every %llu records "
                "(retain %d, auth %s)\n",
                workload.c_str(), server->endpoint().c_str(),
                static_cast<unsigned long long>(
                    sopts.snapshot_interval_records),
                pub.retain, pub.secret.empty() ? "off" : "on");
    std::fflush(stdout);
  }

  StreamingJob job(StreamingQueryByName(workload, gap), sopts, workers);
  for (const auto& block : platform.dfs().ListBlocks("stream_input")) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) job.Ingest(record);
  }
  if (publisher != nullptr) {
    // Final image: the tail since the last interval boundary.
    publisher->Publish(job.CollectSnapshot());
    std::printf("stream: ingest done; published %llu versions (latest v%llu) "
                "to %zu subscriber(s)\n",
                static_cast<unsigned long long>(publisher->published()),
                static_cast<unsigned long long>(publisher->latest_version()),
                publisher->subscribers());
    std::fflush(stdout);
    if (linger > 0) {
      std::printf("stream: lingering %llds for late fetches...\n",
                  static_cast<long long>(linger));
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(linger));
    }
  }

  std::printf("top answers:\n");
  for (const auto& [key, value] : job.TopAnswers(10)) {
    std::printf("  %-24s %s\n", key.c_str(), ShowValue(value).c_str());
  }
  const auto results = job.Finish();
  std::printf("stream: %llu records -> %llu routed pairs -> %zu final keys\n",
              static_cast<unsigned long long>(job.records_ingested()),
              static_cast<unsigned long long>(job.pairs_routed()),
              results.size());
  if (server != nullptr) server->Shutdown();
  return 0;
}

int CmdFrontend(const Config& cfg) {
  const auto publisher_ep = cfg.GetString("publisher", "");
  if (publisher_ep.empty()) {
    throw std::invalid_argument(
        "frontend: publisher=<host:port> is required (the streaming job's "
        "--publish-snapshots endpoint)");
  }
  (void)SplitHostPort(publisher_ep, "publisher");
  const auto [lhost, lport] =
      SplitHostPort(cfg.GetString("listen", "127.0.0.1:0"), "listen");
  const auto workload = cfg.GetString("workload", "sessionization");
  if (!IsStreamingWorkload(workload)) {
    throw std::invalid_argument(
        "frontend: workload '" + workload + "' has no streaming form, so no "
        "publisher can exist for it (expected sessionization, per_user_count "
        "or page_frequency)");
  }
  const auto gap = static_cast<std::uint64_t>(GetCheckedInt(
      cfg, "session-gap", static_cast<std::int64_t>(kDefaultSessionGap),
      /*min_value=*/1));
  const double wait_s =
      static_cast<double>(GetCheckedInt(cfg, "wait", 60, /*min_value=*/1));
  net::TcpTransport::Options bopts;
  bopts.bind_address = lhost;
  bopts.bind_port = lport;
  bopts.advertise_address = cfg.GetString("advertise", "");

  serve::FrontendOptions fopts;
  fopts.job = workload;
  fopts.aggregator = StreamingQueryByName(workload, gap).aggregator;
  fopts.worker = cfg.GetString("id", "frontend");
  fopts.secret = cfg.GetString("secret", "");
  fopts.scan_limit = static_cast<std::uint32_t>(
      GetCheckedInt(cfg, "scan-limit", 1000, /*min_value=*/1));
  if (cfg.Get("staleness-budget")) {
    fopts.default_policy.staleness_budget = static_cast<std::uint64_t>(
        GetCheckedInt(cfg, "staleness-budget", 0, /*min_value=*/0));
  }
  fopts.default_policy.rate_per_s = static_cast<double>(
      GetCheckedInt(cfg, "rate", 0, /*min_value=*/0));
  fopts.default_policy.burst = static_cast<double>(
      GetCheckedInt(cfg, "burst", 0, /*min_value=*/0));
  RejectUnreadKeys(cfg, "frontend");

  MetricRegistry metrics;
  net::TcpTransport server(&metrics, bopts);
  server.Bind();
  net::TcpTransport link(&metrics, publisher_ep);
  serve::SnapshotFrontend frontend(&server, &link, &metrics, fopts);
  std::printf("frontend '%s': serving '%s' at %s, snapshots from %s "
              "(staleness budget %s, rate %s)\n",
              fopts.worker.c_str(), workload.c_str(),
              server.endpoint().c_str(), publisher_ep.c_str(),
              cfg.Get("staleness-budget")
                  ? std::to_string(fopts.default_policy.staleness_budget)
                        .c_str()
                  : "unlimited",
              fopts.default_policy.rate_per_s > 0
                  ? (std::to_string(fopts.default_policy.rate_per_s) + "/s")
                        .c_str()
                  : "unlimited");
  std::fflush(stdout);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(wait_s);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("frontend '%s': served %lld queries (%lld throttled, %lld "
              "stale-rejected), applied %lld snapshot(s), serving v%llu "
              "(watermark %llu, announced %llu)\n",
              fopts.worker.c_str(),
              static_cast<long long>(metrics.Value("serve.queries")),
              static_cast<long long>(metrics.Value("serve.throttled")),
              static_cast<long long>(metrics.Value("serve.stale_rejects")),
              static_cast<long long>(metrics.Value("serve.applied")),
              static_cast<unsigned long long>(frontend.serving_version()),
              static_cast<unsigned long long>(frontend.serving_watermark()),
              static_cast<unsigned long long>(frontend.announced_watermark()));
  server.Shutdown();
  return 0;
}

int CmdQuery(const Config& cfg) {
  const auto at = cfg.GetString("at", "");
  if (at.empty()) {
    throw std::invalid_argument(
        "query: at=<host:port> is required (a frontend's listen endpoint)");
  }
  (void)SplitHostPort(at, "at");
  const auto op = cfg.GetString("op", "point");

  net::QueryMsg q;
  if (cfg.Get("staleness-budget")) {
    q.staleness_budget = static_cast<std::uint64_t>(
        GetCheckedInt(cfg, "staleness-budget", 0, /*min_value=*/0));
  }
  if (op == "point") {
    q.op = net::QueryOp::kPoint;
    q.key = cfg.GetString("key", "");
    if (q.key.empty()) {
      throw std::invalid_argument("query: op=point requires key=<K>");
    }
  } else if (op == "topk") {
    q.op = net::QueryOp::kTopK;
    q.limit = static_cast<std::uint32_t>(
        GetCheckedInt(cfg, "n", 10, /*min_value=*/1));
  } else if (op == "scan") {
    q.op = net::QueryOp::kScan;
    q.key = cfg.GetString("key", "");
    q.end_key = cfg.GetString("end", "");
    q.limit = static_cast<std::uint32_t>(
        GetCheckedInt(cfg, "limit", 100, /*min_value=*/1));
  } else {
    throw std::invalid_argument("query: unknown op '" + op +
                                "' (expected point, topk or scan)");
  }

  const auto tenant = cfg.GetString("tenant", "cli");
  RejectUnreadKeys(cfg, "query");

  MetricRegistry metrics;
  net::TcpTransport transport(&metrics, at);
  serve::QueryClient client(&transport, tenant);
  const auto result = client.Query(std::move(q));
  std::printf("status %s | answered from v%llu (watermark %llu, lag %llu)\n",
              net::QueryStatusName(result.status),
              static_cast<unsigned long long>(result.version),
              static_cast<unsigned long long>(result.watermark),
              static_cast<unsigned long long>(result.lag));
  if (!result.error.empty()) std::printf("  %s\n", result.error.c_str());
  for (const auto& [key, value] : result.rows) {
    std::printf("  %-24s %s\n", key.c_str(), ShowValue(value).c_str());
  }
  transport.Shutdown();
  return result.status == net::QueryStatus::kOk ? 0 : 1;
}

int CmdCoordinator(const Config& cfg) {
  const auto [host, port] =
      SplitHostPort(cfg.GetString("listen", ""), "listen");
  const int want_maps =
      static_cast<int>(GetCheckedInt(cfg, "map-workers", 1, /*min_value=*/0));
  const int want_reduces = static_cast<int>(
      GetCheckedInt(cfg, "reduce-workers", 1, /*min_value=*/0));
  const double wait_s =
      static_cast<double>(GetCheckedInt(cfg, "wait", 120, /*min_value=*/1));
  const auto secret = cfg.GetString("secret", "");
  RejectUnreadKeys(cfg, "coordinator");

  MetricRegistry metrics;
  net::TcpTransport::Options topts;
  topts.bind_address = host;
  topts.bind_port = port;
  net::TcpTransport transport(&metrics, topts);
  transport.Bind();

  coord::Coordinator::Options copts;
  copts.secret = secret;
  coord::Coordinator coordinator(&transport, &metrics, copts);
  std::printf("coordinator: listening on %s (auth %s)\n",
              transport.endpoint().c_str(),
              copts.secret.empty() ? "off" : "on");
  std::fflush(stdout);

  if (!coordinator.WaitForWorkers(net::WireRole::kMap,
                                  static_cast<std::size_t>(want_maps),
                                  wait_s) ||
      !coordinator.WaitForWorkers(net::WireRole::kReduce,
                                  static_cast<std::size_t>(want_reduces),
                                  wait_s)) {
    std::fprintf(stderr,
                 "coordinator: timed out after %.0fs waiting for %d map + "
                 "%d reduce workers\n", wait_s, want_maps, want_reduces);
    transport.Shutdown();
    return 1;
  }
  // WaitForWorkers returns only after the view completing the group went
  // out, so every worker already holds the reducer's endpoint.
  const auto roster = coordinator.Snapshot();
  transport.Shutdown();
  std::printf("coordinator: group complete (epoch %llu):\n",
              static_cast<unsigned long long>(roster.epoch));
  for (const auto& e : roster.entries) {
    std::printf("  %-12s %-6s %s\n", e.worker.c_str(),
                e.role == net::WireRole::kMap ? "map" : "reduce",
                e.endpoint.c_str());
  }
  std::printf("coordinator: done | %lld registers, %lld auth failures\n",
              static_cast<long long>(metrics.Value("coord.registers")),
              static_cast<long long>(metrics.Value("coord.auth_failures")));
  return 0;
}

int CmdWorker(const Config& cfg) {
  const auto join = cfg.GetString("join", "");
  if (join.empty()) {
    throw std::invalid_argument("worker: join=<host:port> is required");
  }
  (void)SplitHostPort(join, "join");  // validate shape early
  const auto id = cfg.GetString("id", "");
  if (id.empty()) throw std::invalid_argument("worker: id=<name> is required");
  const auto role = cfg.GetString("role", "");
  const bool is_reduce = role == "reduce";
  if (!is_reduce && role != "map") {
    throw std::invalid_argument("worker: role=map|reduce is required");
  }
  const auto secret = cfg.GetString("secret", "");
  const int index =
      static_cast<int>(GetCheckedInt(cfg, "index", 0, /*min_value=*/0));
  const int count =
      static_cast<int>(GetCheckedInt(cfg, "count", 1, /*min_value=*/1));
  const double join_timeout = static_cast<double>(
      GetCheckedInt(cfg, "join-timeout", 30, /*min_value=*/1));
  const double shuffle_timeout = static_cast<double>(
      GetCheckedInt(cfg, "shuffle-timeout", 30, /*min_value=*/1));
  const bool shared_fs = cfg.GetBool("shared-fs", false);

  const auto workload = cfg.GetString("workload", "per_user_count");
  const auto runtime = cfg.GetString("runtime", "hash");
  const auto records = static_cast<std::uint64_t>(
      GetCheckedInt(cfg, "records", 1'000'000, /*min_value=*/1));
  const int reducers =
      static_cast<int>(GetCheckedInt(cfg, "reducers", 4, /*min_value=*/1));

  PlatformOptions popts;
  popts.num_nodes =
      static_cast<int>(GetCheckedInt(cfg, "nodes", 4, /*min_value=*/1));
  popts.fault_plan = cfg.GetString("fault-plan", "");
  JobOptions options = RuntimeByName(runtime);
  options.map_side_combine = cfg.GetBool("combine", true);
  net::TcpTransport::Options server_opts;  // reduce role's shuffle server
  server_opts.bind_address = cfg.GetString("bind", "127.0.0.1");
  server_opts.advertise_address = cfg.GetString("advertise", "");
  const auto dump = cfg.GetString("dump-output", "");
  RejectUnreadKeys(cfg, "worker");

  Platform platform(popts);
  if (platform.fault_injector() != nullptr) {
    std::printf("worker '%s': fault plan: %s\n", id.c_str(),
                platform.fault_injector()->plan().ToString().c_str());
    // Run() scopes the net fault hook to the job; install it here too so
    // coordination traffic (Register) outside Run() is gated.
    net::SetNetFaultHook(platform.fault_injector());
  }

  // Every worker generates the full dataset deterministically, so DFS
  // block metadata (ids, order) agrees across the group without a shared
  // filesystem; map workers then run only their partition of the blocks.
  const auto spec = PrepareWorkload(platform, workload, records, reducers);

  int rc = 0;
  if (is_reduce) {
    net::TcpTransport shuffle_server(&platform.metrics(), server_opts);
    shuffle_server.Bind();

    coord::CoordClient::Options mopts;
    mopts.coordinator = join;
    mopts.worker_id = id;
    mopts.endpoint = shuffle_server.endpoint();
    mopts.role = net::WireRole::kReduce;
    mopts.secret = secret;
    coord::CoordClient member(&platform.metrics(), mopts);
    member.Join(join_timeout);
    std::printf("worker '%s': joined %s as reduce group, shuffle at %s\n",
                id.c_str(), join.c_str(), shuffle_server.endpoint().c_str());
    std::fflush(stdout);

    platform.executor().set_cluster_identity(id, secret);
    const auto result =
        platform.RunReduceGroup(spec, options, &shuffle_server,
                                shuffle_timeout);
    PrintJobReport(result);
    if (!dump.empty()) {
      auto rows = platform.ReadOutput("output", reducers);
      std::sort(rows.begin(), rows.end());
      std::ofstream out(dump, std::ios::trunc);
      for (const auto& [key, value] : rows) {
        out << key << '\t' << value << '\n';
      }
      std::printf("worker '%s': wrote %zu sorted output rows to %s\n",
                  id.c_str(), rows.size(), dump.c_str());
    }
    member.Stop();
  } else {
    coord::CoordClient::Options mopts;
    mopts.coordinator = join;
    mopts.worker_id = id;
    mopts.endpoint = "-";  // map workers serve nothing
    mopts.role = net::WireRole::kMap;
    mopts.secret = secret;
    coord::CoordClient member(&platform.metrics(), mopts);
    member.Join(join_timeout);
    std::vector<net::MembershipMsg::Entry> reduce_live;
    if (!member.WaitForRole(net::WireRole::kReduce, 1, join_timeout,
                            &reduce_live)) {
      throw std::runtime_error(
          "worker '" + id + "': no live reduce worker appeared in the "
          "membership view within " + std::to_string(join_timeout) + "s");
    }
    const std::string shuffle_endpoint = reduce_live.front().endpoint;
    std::printf("worker '%s': joined %s as map partition %d/%d -> shuffle "
                "at %s\n", id.c_str(), join.c_str(), index, count,
                shuffle_endpoint.c_str());
    std::fflush(stdout);

    net::TcpTransport transport(&platform.metrics(), shuffle_endpoint);
    platform.executor().set_cluster_identity(id, secret);
    platform.executor().set_map_partition(index, count);
    const auto result =
        platform.RunMapGroup(spec, options, &transport, shared_fs);
    PrintJobReport(result);
    member.Stop();
  }
  net::SetNetFaultHook(nullptr);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: opmr_cli <run|stream|frontend|query|coordinator|"
                 "worker|serve|sim|topk|sort> [key=value ...]\n"
                 "see the header of tools/opmr_cli.cc for the full flags\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto cfg = opmr::Config::FromArgs(argc - 1, argv + 1);
  try {
    if (command == "run") return CmdRun(cfg);
    if (command == "stream") return CmdStream(cfg);
    if (command == "frontend") return CmdFrontend(cfg);
    if (command == "query") return CmdQuery(cfg);
    if (command == "coordinator") return CmdCoordinator(cfg);
    if (command == "worker") return CmdWorker(cfg);
    if (command == "serve") return CmdServe(cfg);
    if (command == "sim") return CmdSim(cfg);
    if (command == "topk") return CmdTopK(cfg);
    if (command == "sort") return CmdSort(cfg);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
