// Ablation A7 — secondary sort vs in-reducer sorting for sessionization.
//
// The classic sessionization reduce buffers every user's clicks and sorts
// them by time; the composite-key variant lets the framework's existing
// sort-merge machinery deliver clicks pre-ordered, so reduce streams with
// O(1) state.  The framework sorts longer keys; the reduce function stops
// sorting entirely — a real Hadoop-era trade to measure.
#include <cstdio>

#include "bench_util.h"
#include "common/config.h"
#include "core/opmr.h"
#include "metrics/report.h"
#include "workloads/tasks.h"

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);

  bench::Banner("Ablation A7: sessionization via secondary sort "
                "(real engine)");

  Platform platform({.num_nodes = 2, .block_bytes = 8u << 20});
  ClickStreamOptions gen;
  gen.num_records = static_cast<std::uint64_t>(cfg.GetInt("records", 2'000'000));
  gen.num_users = 20'000;  // long per-user click lists: reduce sort matters
  GenerateClickStream(platform.dfs(), "clicks", gen);

  const auto classic =
      platform.Run(SessionizationJob("clicks", "a7_classic", 4),
                   HadoopOptions());
  const auto ss =
      platform.Run(SessionizationSecondarySortJob("clicks", "a7_ss", 4),
                   HadoopOptions());

  auto phase = [](const JobResult& r, const char* name) {
    auto it = r.cpu_seconds.find(name);
    return it == r.cpu_seconds.end() ? 0.0 : it->second;
  };

  TextTable table;
  table.AddRow({"Variant", "Wall", "Total CPU", "Map sort CPU",
                "Reduce fn CPU"});
  table.AddRow({"classic (sort in reduce fn)",
                HumanSeconds(classic.wall_seconds),
                HumanSeconds(classic.total_cpu_seconds),
                HumanSeconds(phase(classic, "map_sort")),
                HumanSeconds(phase(classic, "reduce_function"))});
  table.AddRow({"secondary sort (composite keys)",
                HumanSeconds(ss.wall_seconds),
                HumanSeconds(ss.total_cpu_seconds),
                HumanSeconds(phase(ss, "map_sort")),
                HumanSeconds(phase(ss, "reduce_function"))});
  std::printf("%s", table.ToString().c_str());

  CsvWriter csv(bench::OutDir() / "ablation_secondary_sort.csv");
  csv.WriteRow({"variant", "wall_s", "cpu_s", "map_sort_s", "reduce_fn_s"});
  csv.WriteRow({"classic", std::to_string(classic.wall_seconds),
                std::to_string(classic.total_cpu_seconds),
                std::to_string(phase(classic, "map_sort")),
                std::to_string(phase(classic, "reduce_function"))});
  csv.WriteRow({"secondary_sort", std::to_string(ss.wall_seconds),
                std::to_string(ss.total_cpu_seconds),
                std::to_string(phase(ss, "map_sort")),
                std::to_string(phase(ss, "reduce_function"))});

  std::printf("\nExpected shape: reduce-function CPU moves little (the "
              "classic reduce buffers clicks\nwithout per-click heap "
              "objects, and the phase also charges the merge pull);\n"
              "map-sort CPU rises (20-byte composite keys tie on their "
              "8-byte sort prefix within\na user) — and, per the paper's "
              "thesis, EVERY sort-merge variant still pays CPU\nthe hash "
              "runtime avoids altogether.\n");
  return 0;
}
