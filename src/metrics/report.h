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

// Recovery-activity columns shared by the chaos bench and the CLI report,
// so every consumer prints the same counters under the same names.
inline std::vector<std::string> RecoveryCsvHeader() {
  return {"map_task_retries", "reduce_task_retries", "speculative_launched",
          "speculative_wins", "faults_injected"};
}

inline std::vector<std::string> RecoveryCsvCells(int map_retries,
                                                 int reduce_retries,
                                                 int spec_launched,
                                                 int spec_wins,
                                                 std::int64_t faults) {
  return {std::to_string(map_retries), std::to_string(reduce_retries),
          std::to_string(spec_launched), std::to_string(spec_wins),
          std::to_string(faults)};
}

// Checkpoint-activity columns, same contract as the recovery columns above.
inline std::vector<std::string> CheckpointCsvHeader() {
  return {"checkpoints_written", "checkpoints_loaded", "checkpoint_bytes",
          "replay_records", "recover_seconds"};
}

inline std::vector<std::string> CheckpointCsvCells(std::int64_t written,
                                                   std::int64_t loaded,
                                                   std::int64_t bytes,
                                                   std::int64_t replayed,
                                                   double recover_seconds) {
  return {std::to_string(written), std::to_string(loaded),
          std::to_string(bytes), std::to_string(replayed),
          std::to_string(recover_seconds)};
}

// Speculative-reduce columns (checkpoint-seeded backup reduce attempts
// under the push shuffle), same contract again.
inline std::vector<std::string> SpecReduceCsvHeader() {
  return {"spec_reduce_launched", "spec_reduce_seeded_from_ckpt",
          "spec_reduce_wins"};
}

inline std::vector<std::string> SpecReduceCsvCells(int launched, int seeded,
                                                   int wins) {
  return {std::to_string(launched), std::to_string(seeded),
          std::to_string(wins)};
}

// Wire-activity columns (src/net transports), same contract again.  All
// zero when the shuffle never left the process (the direct default path).
inline std::vector<std::string> WireCsvHeader() {
  return {"net_bytes_sent",  "net_bytes_received", "net_frames_sent",
          "net_frames_received", "net_retransmits", "net_reconnects",
          "net_stall_seconds", "shuffle_ack_replays"};
}

inline std::vector<std::string> WireCsvCells(
    std::int64_t bytes_sent, std::int64_t bytes_received,
    std::int64_t frames_sent, std::int64_t frames_received,
    std::int64_t retransmits, std::int64_t reconnects, double stall_seconds,
    std::int64_t ack_replays) {
  return {std::to_string(bytes_sent),   std::to_string(bytes_received),
          std::to_string(frames_sent),  std::to_string(frames_received),
          std::to_string(retransmits),  std::to_string(reconnects),
          std::to_string(stall_seconds), std::to_string(ack_replays)};
}

}  // namespace opmr
