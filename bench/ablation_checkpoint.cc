// Ablation A9 — checkpoint interval × fault rate (real engine, chaos plane).
//
// Table III's blank cell: pipelined (push) shuffle AND reduce fault
// tolerance.  The checkpoint subsystem fills it by periodically persisting
// reducer state and replaying only the un-acknowledged shuffle suffix.
// This bench sweeps the checkpoint interval against an injected reduce
// crash and reports what the interval costs when nothing fails (images
// written, bytes) and what it buys when something does (records replayed,
// recovery time) — plus the no-checkpoint row, where a crashed reducer
// under push shuffle is unrecoverable by design.
//
// Correctness gate: every surviving run's output must equal the fault-free
// baseline's, key for key and value for value.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checkpoint/checkpoint.h"
#include "common/config.h"
#include "core/opmr.h"
#include "metrics/report.h"
#include "workloads/tasks.h"

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);

  bench::Banner("Ablation A9: checkpoint interval x reduce faults "
                "(real engine, per-user count, push shuffle)");

  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 200'000));
  // Fires inside reducer 1's first attempt, after folding (output record 50).
  const std::string crash_plan = "seed=11;reduce_crash:task=1,record=50";

  const std::vector<std::uint64_t> intervals = {0, 2'000, 8'000, 32'000};
  const std::vector<std::pair<const char*, bool>> fault_modes = {
      {"none", false}, {"reduce_crash", true}};

  auto run_cell = [&](std::uint64_t interval, bool faulty, JobResult* r) {
    PlatformOptions popts;
    popts.num_nodes = 3;
    popts.block_bytes = 512u << 10;
    popts.max_task_attempts = 2;
    popts.retry_backoff_base_ms = 0.5;
    popts.retry_backoff_max_ms = 10.0;
    if (faulty) popts.fault_plan = crash_plan;
    Platform platform(popts);
    ClickStreamOptions gen;
    gen.num_records = records;
    gen.num_users = 10'000;
    GenerateClickStream(platform.dfs(), "clicks", gen);

    JobOptions options = interval > 0 ? CheckpointedOnePassOptions(interval)
                                      : HashOnePassOptions();
    *r = platform.Run(PerUserCountJob("clicks", "out", 4), options);
    auto rows = platform.ReadOutput("out", 4);
    std::sort(rows.begin(), rows.end());
    return rows;
  };

  // Fault-free baseline output every surviving cell must reproduce.
  JobResult baseline_result;
  const auto baseline = run_cell(0, false, &baseline_result);

  TextTable table;
  table.AddRow({"Interval", "Fault", "Status", "Wall time", "Ckpts (bytes)",
                "Replayed", "Recover", "Output"});
  bench::CsvSink csv("ablation_checkpoint.csv");
  csv.Row("interval", "fault", "status", "wall_s", "output_matches",
          "checkpoints_written", "checkpoints_loaded", "checkpoint_bytes",
          "replay_records", "recover_seconds");

  for (const auto interval : intervals) {
    for (const auto& [fault_name, faulty] : fault_modes) {
      JobResult r;
      std::string status = "ok";
      std::string output = "-";
      try {
        const auto rows = run_cell(interval, faulty, &r);
        output = rows == baseline ? "exact" : "DIVERGED";
      } catch (const std::exception&) {
        // Expected shape: push shuffle without checkpoints cannot replay.
        status = "unrecoverable";
      }
      const auto written = r.Bytes(kCheckpointsWritten);
      const auto checkpoint_bytes = r.Bytes(device::kCheckpointWrite);
      const auto replayed = r.Bytes(kReplayRecords);
      const double recover_s =
          static_cast<double>(r.Bytes(kCheckpointRecoverUs)) / 1e6;
      table.AddRow({std::to_string(interval), fault_name, status,
                    status == "ok" ? HumanSeconds(r.wall_seconds) : "-",
                    std::to_string(written) + " (" +
                        HumanBytes(double(checkpoint_bytes)) + ")",
                    std::to_string(replayed), HumanSeconds(recover_s),
                    output});
      csv.Row(interval, fault_name, status, r.wall_seconds, output, written,
              r.Bytes(kCheckpointsLoaded), checkpoint_bytes, replayed,
              recover_s);
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: interval=0 with a reduce crash is unrecoverable "
      "(Table III's\npipelining/fault-tolerance trade-off); with "
      "checkpointing the job survives, and\nshorter intervals replay fewer "
      "records at the price of more image writes.\n");
  return 0;
}
