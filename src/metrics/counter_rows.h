// The one renderer of a counter map (a job's registry delta or a registry
// snapshot): (name, formatted value) rows for a report table.  The unit is
// read off the counter's name, so a new counter needs no new report row.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/format.h"

namespace opmr {

// Rows in name order; zero deltas are skipped.  Names whose last dotted
// component contains "bytes" format through HumanBytes (so the op count
// "dfs.bytes_read.ops" stays a count), names ending "_nanos", "_us" or
// "_ms" through HumanSeconds, and everything else as a plain count.
inline std::vector<std::pair<std::string, std::string>> CounterRows(
    const std::map<std::string, std::int64_t>& counters) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    const double v = static_cast<double>(value);
    std::string text;
    const std::size_t dot = name.rfind('.');
    const std::string_view last =
        std::string_view(name).substr(dot == std::string::npos ? 0 : dot + 1);
    if (last.find("bytes") != std::string_view::npos) {
      text = HumanBytes(v);
    } else if (name.ends_with("_nanos")) {
      text = HumanSeconds(v / 1e9);
    } else if (name.ends_with("_us")) {
      text = HumanSeconds(v / 1e6);
    } else if (name.ends_with("_ms")) {
      text = HumanSeconds(v / 1e3);
    } else {
      text = std::to_string(value);
    }
    rows.emplace_back(name, std::move(text));
  }
  return rows;
}

}  // namespace opmr
