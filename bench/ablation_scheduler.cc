// Ablation A10 — multi-job scheduling policy under slot contention.
//
// Table I's workloads never arrive one at a time on a shared cluster; this
// bench submits a mixed batch (one large sessionization job, one medium
// page-frequency job, two small counting jobs) to the src/sched
// JobScheduler and compares a sequential baseline (max_concurrent=1)
// against shared-slot concurrency under each grant policy.  The scheduler
// runs the jobs on deliberately scarce slots (4 map, 2 reduce) so the
// policies actually arbitrate.  Each repetition generates the inputs on a
// fresh platform and runs every mode once, reversing the mode order on odd
// repetitions so the process's first-job warm-up does not always land on
// the same mode.  The table reports median [q1-q3] over the repetitions of
// makespan, mean/max queue wait and the small jobs' queue wait; the CSV
// keeps every run.
//
//   ablation_scheduler [records=2000000] [reps=5]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "core/opmr.h"
#include "opmrbench/harness.h"
#include "sched/scheduler.h"
#include "workloads/tasks.h"

namespace {

using namespace opmr;

struct JobDef {
  const char* id;
  const char* workload;  // sessionization | page_frequency | per_user_count
  std::uint64_t records;
  int reducers;
};

JobSpec SpecFor(const JobDef& def, const std::string& output) {
  const std::string input = std::string(def.id) + ".in";
  if (std::string(def.workload) == "sessionization") {
    return SessionizationJob(input, output, def.reducers);
  }
  if (std::string(def.workload) == "page_frequency") {
    return PageFrequencyJob(input, output, def.reducers);
  }
  return PerUserCountJob(input, output, def.reducers);
}

struct Mode {
  const char* name;
  sched::SchedPolicy policy;
  int max_concurrent;
};

struct Run {
  double makespan = 0, mean_wait = 0, max_wait = 0, small_wait = 0;
  double peak_concurrent = 0, slot_waits = 0, slot_wait_s = 0;
};

// Submits the whole batch under `mode` and drains it.  Throws on a failed
// job: a policy comparison over a partial batch means nothing.
Run RunBatch(Platform& platform, const std::vector<JobDef>& jobs,
             const Mode& mode) {
  sched::SchedulerOptions sopts;
  sopts.map_slots = 4;
  sopts.reduce_slots = 2;
  sopts.policy = mode.policy;
  sopts.max_concurrent = mode.max_concurrent;
  sopts.num_nodes = 4;
  sched::JobScheduler scheduler(&platform.dfs(), &platform.files(), sopts);
  for (const auto& def : jobs) {
    sched::JobRequest request;
    request.id = def.id;
    // Per-mode output names: every mode's scheduler shares one DFS.
    request.spec = SpecFor(def, std::string(def.id) + "." + mode.name);
    // Sessionization is holistic (no aggregator): it needs the blocking
    // hybrid-hash grouping; the aggregate jobs run incremental hash.
    request.options = HashOnePassOptions();
    if (std::string(def.workload) == "sessionization") {
      request.options.hash_reduce = HashReduce::kHybridHash;
    }
    scheduler.Submit(std::move(request));
  }
  const auto reports = scheduler.Drain();
  Run run;
  int small = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& report = reports[i];
    if (report.failed) {
      throw std::runtime_error("job '" + report.id +
                               "' failed: " + report.error);
    }
    run.mean_wait += report.queue_wait_s();
    run.max_wait = std::max(run.max_wait, report.queue_wait_s());
    if (std::string(jobs[i].workload) == "per_user_count") {
      run.small_wait += report.queue_wait_s();
      ++small;
    }
  }
  run.mean_wait /= static_cast<double>(reports.size());
  run.small_wait /= std::max(1, small);
  const auto stats = scheduler.stats();
  run.makespan = stats.makespan_s;
  run.peak_concurrent = stats.peak_concurrent;
  run.slot_waits = static_cast<double>(stats.slots.waits);
  run.slot_wait_s = stats.slots.wait_seconds;
  return run;
}

bench::Summary Summarize(const std::vector<Run>& runs, double Run::*field) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(r.*field);
  return bench::Summary::Of(std::move(v));
}

// "median [q1-q3]" of one seconds column over a mode's runs.
std::string MedianAndSpread(const std::vector<Run>& runs, double Run::*field) {
  const auto s = Summarize(runs, field);
  return HumanSeconds(s.median) + " [" + HumanSeconds(s.q1) + "-" +
         HumanSeconds(s.q3) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = Config::FromArgs(argc, argv);
  const auto scale =
      static_cast<std::uint64_t>(cfg.GetInt("records", 2'000'000));
  const int reps =
      static_cast<int>(std::max<std::int64_t>(1, cfg.GetInt("reps", 5)));

  bench::Banner("Ablation A10: multi-job scheduling policy x slot "
                "contention (real engine, mixed Table I job sizes)");

  const std::vector<JobDef> jobs = {
      {"big_sessions", "sessionization", scale, 4},
      {"mid_pages", "page_frequency", scale / 2, 4},
      {"small_count_a", "per_user_count", scale / 6, 2},
      {"small_count_b", "per_user_count", scale / 6, 2},
  };
  const std::vector<Mode> modes = {
      {"sequential", sched::SchedPolicy::kFifo, 1},
      {"fifo", sched::SchedPolicy::kFifo, 4},
      {"fair", sched::SchedPolicy::kFair, 4},
      {"srw", sched::SchedPolicy::kSrw, 4},
  };

  bench::CsvSink csv("ablation_scheduler.csv");
  csv.Row("mode", "rep", "order", "makespan_s", "mean_queue_wait_s",
          "max_queue_wait_s", "small_queue_wait_s", "peak_concurrent",
          "slot_waits", "slot_wait_s");
  std::vector<std::vector<Run>> runs(modes.size());
  for (int rep = 0; rep < reps; ++rep) {
    Platform platform({.num_nodes = 4, .block_bytes = 1u << 20});
    for (const auto& def : jobs) {
      ClickStreamOptions gen;
      gen.num_records = def.records;
      gen.num_users = std::max<std::uint64_t>(100, def.records / 20);
      GenerateClickStream(platform.dfs(), std::string(def.id) + ".in", gen);
    }
    for (std::size_t order = 0; order < modes.size(); ++order) {
      const std::size_t m = rep % 2 == 0 ? order : modes.size() - 1 - order;
      Run run;
      try {
        run = RunBatch(platform, jobs, modes[m]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mode %s: %s\n", modes[m].name, e.what());
        return 1;
      }
      runs[m].push_back(run);
      csv.Row(modes[m].name, rep, static_cast<int>(order), run.makespan,
              run.mean_wait, run.max_wait, run.small_wait,
              static_cast<int>(run.peak_concurrent),
              static_cast<std::int64_t>(run.slot_waits), run.slot_wait_s);
    }
  }

  TextTable table;
  table.AddRow({"Mode (median [q1-q3] of " + std::to_string(reps) + ")",
                "Makespan", "Mean wait", "Max wait", "Small-job wait",
                "Peak jobs", "Slot waits"});
  for (std::size_t m = 0; m < modes.size(); ++m) {
    table.AddRow({modes[m].name, MedianAndSpread(runs[m], &Run::makespan),
                  MedianAndSpread(runs[m], &Run::mean_wait),
                  MedianAndSpread(runs[m], &Run::max_wait),
                  MedianAndSpread(runs[m], &Run::small_wait),
                  std::to_string(static_cast<int>(
                      Summarize(runs[m], &Run::peak_concurrent).median)),
                  std::to_string(static_cast<std::int64_t>(
                      Summarize(runs[m], &Run::slot_waits).median))});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: each job alone already fills the 4 map slots, so "
      "concurrency\nmoves the makespan little; the policies differ in queue "
      "wait, fair lowest.\nThe small jobs' wait is bounded by the memory gate, "
      "not the slot policy: the\nbig and mid jobs' reducers take the whole "
      "256 MB budget, so the small jobs stay\nqueued until one of them "
      "finishes under every policy (peak 3 jobs, not 4).\n");
  return 0;
}
