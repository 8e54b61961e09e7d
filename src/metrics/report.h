// CSV writers for bench outputs: every bench binary mirrors its paper table
// on stdout and persists the raw series/rows under bench_out/ so plots can
// be regenerated offline.
#pragma once

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/timeseries.h"

namespace opmr {

class CsvWriter {
 public:
  explicit CsvWriter(const std::filesystem::path& path) {
    std::filesystem::create_directories(path.parent_path());
    out_.open(path);
    if (!out_) {
      throw std::runtime_error("cannot open csv output: " + path.string());
    }
  }

  void WriteRow(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out_ << ',';
      // Quote cells containing commas; bench output stays simple otherwise.
      if (cells[i].find(',') != std::string::npos) {
        out_ << '"' << cells[i] << '"';
      } else {
        out_ << cells[i];
      }
    }
    out_ << '\n';
  }

 private:
  std::ofstream out_;
};

inline void WriteSeriesCsv(const std::filesystem::path& path,
                           const TimeSeries& series) {
  CsvWriter csv(path);
  csv.WriteRow({"time_s", series.name()});
  for (const auto& s : series.Snapshot()) {
    csv.WriteRow({std::to_string(s.time_s), std::to_string(s.value)});
  }
}

}  // namespace opmr
