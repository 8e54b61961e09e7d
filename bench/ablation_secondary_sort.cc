// Ablation A7 — secondary sort vs in-reducer sorting for sessionization.
//
// The classic sessionization reduce buffers every user's clicks and sorts
// them by time; the composite-key variant lets the framework's existing
// sort-merge machinery deliver clicks pre-ordered, so reduce streams with
// O(1) state.  The framework sorts longer keys; the reduce function stops
// sorting entirely — a real Hadoop-era trade to measure.  Both variants must
// produce the same output rows; the program exits 1 when they do not.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "core/opmr.h"
#include "metrics/report.h"
#include "opmrbench/harness.h"
#include "storage/record_stream.h"
#include "workloads/tasks.h"

namespace {

struct Run {
  double wall = 0, cpu = 0, map_sort = 0, reduce_fn = 0;
};

Run Measure(const opmr::JobResult& r) {
  auto phase = [&r](const char* name) {
    auto it = r.cpu_seconds.find(name);
    return it == r.cpu_seconds.end() ? 0.0 : it->second;
  };
  return {r.wall_seconds, r.total_cpu_seconds, phase("map_sort"),
          phase("reduce_function")};
}

// The order-insensitive digest of a job's output rows.
std::uint64_t OutputDigest(opmr::Platform& platform, const std::string& out,
                           int reducers) {
  opmr::bench::RowDigest digest;
  for (int r = 0; r < reducers; ++r) {
    for (const auto& block :
         platform.dfs().ListBlocks(out + ".part" + std::to_string(r))) {
      const auto reader = platform.dfs().OpenBlock(block);
      opmr::Slice record;
      while (reader->Next(&record)) {
        opmr::MemoryRunStream rows(record);
        while (rows.Next()) digest.Add(rows.key(), rows.value());
      }
    }
  }
  return digest.value();
}

// "median [q1-q3]" of one column over a variant's runs.
std::string MedianAndSpread(const std::vector<Run>& runs, double Run::*field) {
  std::vector<double> v;
  for (const auto& r : runs) v.push_back(r.*field);
  const auto s = opmr::bench::Summary::Of(std::move(v));
  return opmr::HumanSeconds(s.median) + " [" + opmr::HumanSeconds(s.q1) +
         "-" + opmr::HumanSeconds(s.q3) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);
  const auto records =
      static_cast<std::uint64_t>(cfg.GetInt("records", 2'000'000));
  const int reps = static_cast<int>(cfg.GetInt("reps", 5));

  bench::Banner("Ablation A7: sessionization via secondary sort "
                "(real engine)");

  // Each repetition runs both variants on a fresh platform (so no job sees
  // another's files), alternating which goes first so warm-up and order
  // effects fall on both.
  const char* names[] = {"classic", "secondary_sort"};
  std::vector<Run> runs[2];
  bench::CsvSink csv("ablation_secondary_sort.csv");
  csv.Row("variant", "rep", "order", "wall_s", "cpu_s", "map_sort_s",
          "reduce_fn_s");
  constexpr int kReducers = 4;
  bool rows_match = true;
  for (int rep = 0; rep < reps; ++rep) {
    Platform platform({.num_nodes = 2, .block_bytes = 8u << 20});
    ClickStreamOptions gen;
    gen.num_records = records;
    gen.num_users = 20'000;  // long per-user click lists: reduce sort matters
    GenerateClickStream(platform.dfs(), "clicks", gen);
    for (int order = 0; order < 2; ++order) {
      const int v = (rep + order) % 2;
      const Run run = Measure(
          v == 0 ? platform.Run(
                       SessionizationJob("clicks", "a7_classic", kReducers),
                       HadoopOptions())
                 : platform.Run(SessionizationSecondarySortJob(
                                    "clicks", "a7_ss", kReducers),
                                HadoopOptions()));
      runs[v].push_back(run);
      csv.Row(names[v], rep, order, run.wall, run.cpu, run.map_sort,
              run.reduce_fn);
    }
    if (OutputDigest(platform, "a7_classic", kReducers) !=
        OutputDigest(platform, "a7_ss", kReducers)) {
      std::fprintf(stderr, "rep %d: the variants' output rows differ\n", rep);
      rows_match = false;
    }
  }

  TextTable table;
  table.AddRow({"Variant (median [q1-q3] of " + std::to_string(reps) + ")",
                "Wall", "Total CPU", "Map sort CPU", "Reduce fn CPU"});
  const char* labels[] = {"classic (sort in reduce fn)",
                          "secondary sort (composite keys)"};
  for (int v = 0; v < 2; ++v) {
    table.AddRow({labels[v], MedianAndSpread(runs[v], &Run::wall),
                  MedianAndSpread(runs[v], &Run::cpu),
                  MedianAndSpread(runs[v], &Run::map_sort),
                  MedianAndSpread(runs[v], &Run::reduce_fn)});
  }
  std::printf("%s", table.ToString().c_str());

  std::printf("\nExpected shape: the composite-key variant saves some "
              "reduce-function CPU (it\nneither buffers nor sorts clicks; "
              "the classic reduce's sort mostly finds its\ninput in time "
              "order already, since the stable map sort keeps each user's "
              "clicks\nin input order); its map sort costs about 3x the "
              "classic's (20-byte keys tie on\ntheir 8-byte radix key within "
              "a user, so each user's run is comparison-sorted\non the "
              "timestamp bytes) — and, per the paper's thesis, EVERY sort-merge "
              "variant\nstill pays CPU the hash runtime avoids altogether.\n");
  return rows_match ? 0 : 1;
}
