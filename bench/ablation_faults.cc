// Ablation A7 — fault rate × recovery policy (real engine, chaos plane).
//
// Sweeps a seeded FaultPlan's per-record map-crash rate (plus one injected
// slow node) against two recovery policies: none (a single attempt — any
// fault kills the job) and retry (3 attempts with backoff).  The paper's
// Table III frames this trade-off qualitatively; this bench puts numbers on
// what re-execution costs under the pull-shuffle model.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "core/opmr.h"
#include "metrics/report.h"
#include "workloads/tasks.h"

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);

  bench::Banner("Ablation A7: fault rate x recovery policy "
                "(real engine, per-user count, seeded chaos plane)");

  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 200'000));

  struct Policy {
    const char* name;
    int attempts;
  };
  const std::vector<Policy> policies = {
      {"no_recovery", 1},
      {"retry", 3},
  };
  const std::vector<double> rates = {0.0, 1e-5, 5e-5};

  TextTable table;
  table.AddRow({"Fault rate", "Policy", "Status", "Wall time", "Map retries",
                "Reduce retries", "Faults"});
  bench::CsvSink csv("ablation_faults.csv");
  csv.Row("rate", "policy", "status", "wall_s", "map_task_retries",
          "reduce_task_retries", "faults_injected");

  for (double rate : rates) {
    for (const auto& policy : policies) {
      // Fresh platform per cell: a failed job must not poison the next run,
      // and each cell regenerates input so DFS namespaces never collide.
      PlatformOptions popts;
      popts.num_nodes = 3;
      popts.block_bytes = 512u << 10;
      popts.max_task_attempts = policy.attempts;
      popts.retry_backoff_base_ms = 0.5;
      popts.retry_backoff_max_ms = 10.0;
      if (rate > 0.0) {
        popts.fault_plan = "seed=11;map_crash:rate=" + std::to_string(rate) +
                           ";slow_node:node=0,delay_ms=0.05";
      }
      Platform platform(popts);
      ClickStreamOptions gen;
      gen.num_records = records;
      gen.num_users = 10'000;
      GenerateClickStream(platform.dfs(), "clicks", gen);

      JobResult r;
      std::string status = "ok";
      try {
        r = platform.Run(PerUserCountJob("clicks", "out", 4),
                         HadoopOptions());
      } catch (const std::exception&) {
        status = "failed";
      }
      // A failed Run leaves `r` empty; the platform is this cell's alone,
      // so its registry holds the same job-scoped counts.
      const auto count = [&](const char* name) {
        return status == "ok" ? r.Bytes(name) : platform.metrics().Value(name);
      };
      const auto map_retries = count(kRetryMapTask);
      const auto reduce_retries = count(kRetryReduceTask);
      const auto faults = count(kFaultsInjected);
      table.AddRow({std::to_string(rate), policy.name, status,
                    status == "ok" ? HumanSeconds(r.wall_seconds) : "-",
                    std::to_string(map_retries),
                    std::to_string(reduce_retries), std::to_string(faults)});
      csv.Row(rate, policy.name, status, r.wall_seconds, map_retries,
              reduce_retries, faults);
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: without recovery any injected map crash kills the "
      "job; retries\nabsorb every fault at a modest wall-time cost.  The "
      "slow node's delay stays in\nthe wall time under both policies: each "
      "map task runs one attempt at a time,\nso nothing races the slow "
      "node; only the simulator models backup attempts.\n");
  return 0;
}
