// Job spool: the text format `opmr_cli serve` drains job submissions from.
//
// One job per file (or per blank-line-separated block on stdin), `key=value`
// lines with '#' comments:
//
//   # clickstream frequency count, socket shuffle
//   workload=page_frequency
//   runtime=checkpoint
//   transport=tcp
//   records=200000
//   reducers=4
//
// The spool layer is deliberately independent of src/workloads: it parses
// names and numbers only; the CLI maps workload/runtime names onto job
// specs and presets.  Unknown keys are rejected loudly — a typo in a spool
// file must not silently run a default job.
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <string>
#include <vector>

namespace opmr::sched {

struct SpoolSpec {
  std::string id;
  std::string workload = "per_user_count";  // any `opmr_cli run` workload
  std::string runtime = "checkpoint";    // CLI runtime preset name
  std::string transport = "direct";      // direct | loopback | tcp
  std::uint64_t records = 100000;
  int reducers = 4;
  std::size_t memory_bytes = 0;  // 0 = derive from the runtime options
  std::uint64_t checkpoint_interval = 4096;
  int checkpoint_retain = 2;
};

// Parses one spool block.  Throws std::invalid_argument on unknown keys or
// malformed values, naming the offending line.
SpoolSpec ParseSpoolSpec(const std::string& id, std::istream& in);

// Loads one `<id>.job` spool file (id = file stem).
SpoolSpec LoadSpoolFile(const std::filesystem::path& path);

// Drains every `*.job` file from `dir` in name order, renaming each to
// `*.job.done` so a long-running serve loop never re-admits a job.
std::vector<SpoolSpec> DrainSpoolDir(const std::filesystem::path& dir);

}  // namespace opmr::sched
