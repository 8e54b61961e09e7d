// Shared helpers for the table/figure regeneration binaries.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "common/format.h"
#include "metrics/report.h"
#include "metrics/timeline.h"
#include "metrics/timeseries.h"
#include "sim/simulator.h"

namespace opmr::bench {

inline std::filesystem::path OutDir() {
  const char* env = std::getenv("OPMR_BENCH_OUT");
  std::filesystem::path dir = env != nullptr ? env : "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

// CSV sink that flattens mixed cell types — strings and numbers — into one
// row, formatting numbers with std::to_string.  Replaces the header/row
// splice boilerplate every ablation binary used to hand-roll.
class CsvSink {
 public:
  explicit CsvSink(const std::string& file) : csv_(OutDir() / file) {}

  template <typename... Cells>
  void Row(const Cells&... cells) {
    std::vector<std::string> row;
    (Append(&row, cells), ...);
    csv_.WriteRow(row);
  }

 private:
  static void Append(std::vector<std::string>* row, const std::string& cell) {
    row->push_back(cell);
  }
  static void Append(std::vector<std::string>* row, const char* cell) {
    row->emplace_back(cell);
  }
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  static void Append(std::vector<std::string>* row, T cell) {
    row->push_back(std::to_string(cell));
  }

  CsvWriter csv_;
};

inline void Banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintSeries(const std::string& name,
                        const std::vector<Sample>& samples, double y_max = -1) {
  TimeSeries series(name);
  for (const auto& s : samples) series.Append(s.time_s, s.value);
  std::printf("%s", AsciiPlot(series, 78, 10, y_max).c_str());
}

inline void SaveSeriesCsv(const std::string& file, const std::string& name,
                          const std::vector<Sample>& samples) {
  CsvWriter csv(OutDir() / file);
  csv.WriteRow({"time_s", name});
  for (const auto& s : samples) {
    csv.WriteRow({std::to_string(s.time_s), std::to_string(s.value)});
  }
}

// Renders a Fig-2(a)-style task timeline: one row block per operation kind
// showing the number of concurrently active tasks over time.
inline void PrintTaskTimeline(const std::vector<TaskInterval>& intervals,
                              double end_s, int width = 78) {
  TimelineRecorder rec;
  for (const auto& iv : intervals) rec.Record(iv.kind, iv.begin_s, iv.end_s);
  const auto series = rec.SampleActive(width);
  for (int k = 0; k < 4; ++k) {
    int peak = 0;
    for (int v : series[k]) peak = std::max(peak, v);
    std::printf("%-8s peak=%-5d |", TaskKindName(static_cast<TaskKind>(k)),
                peak);
    for (int v : series[k]) {
      if (peak == 0) {
        std::printf(" ");
        continue;
      }
      static const char kRamp[] = " .:-=+*#%@";
      const int level = static_cast<int>(9.0 * v / peak);
      std::printf("%c", kRamp[level]);
    }
    std::printf("|\n");
  }
  std::printf("%-20s 0%*s%.0f s\n", "", width - 6, "", end_s);
}

inline void SaveTimelineCsv(const std::string& file,
                            const std::vector<TaskInterval>& intervals) {
  CsvWriter csv(OutDir() / file);
  csv.WriteRow({"kind", "begin_s", "end_s"});
  for (const auto& iv : intervals) {
    csv.WriteRow({TaskKindName(iv.kind), std::to_string(iv.begin_s),
                  std::to_string(iv.end_s)});
  }
}

}  // namespace opmr::bench
