// Mini distributed file system (the HDFS stand-in).
//
// Files are split into fixed-size blocks (64 MB by default, as in the
// paper's cluster configuration).  Each block is placed on `replication`
// logical nodes; one physical copy is kept on local disk and the replica
// node list is metadata the block-level scheduler uses for locality, which
// is all HDFS contributes to the behaviours the paper measures (block task
// granularity + locality-aware scheduling + input/output I/O traffic).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/slice.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"
#include "storage/io.h"

namespace opmr {

struct BlockInfo {
  std::uint64_t block_id = 0;
  std::string file;               // owning DFS file name
  std::uint64_t offset = 0;       // offset of the block within the file
  std::uint64_t length = 0;       // bytes in this block
  std::vector<int> replica_nodes; // nodes holding a (logical) replica
  std::filesystem::path path;     // physical location of the block data
};

struct DfsOptions {
  std::uint64_t block_bytes = 64ull << 20;  // HDFS default in the paper
  int replication = 1;                      // the paper turned 3 down to 1
  int num_nodes = 10;                       // paper: 10 compute nodes
  std::uint64_t placement_seed = 42;
};

class Dfs;

// Streams a file into the DFS, cutting blocks at record boundaries: Append()
// never splits one record across blocks (Hadoop achieves the same effect
// with input-split line alignment; cutting at record boundaries keeps the
// reproduction simple without changing any measured behaviour).
class DfsFileWriter {
 public:
  ~DfsFileWriter();

  DfsFileWriter(const DfsFileWriter&) = delete;
  DfsFileWriter& operator=(const DfsFileWriter&) = delete;

  // Appends one record (opaque bytes; the engine's record readers re-frame
  // them).  Records are length-prefixed in the block payload.
  void Append(Slice record);

  // Appends one record holding the run frame of (key, value) — the bytes
  // Append() of [u32 key size][u32 value size][key][value] writes, without
  // building that frame first.
  void AppendFrame(Slice key, Slice value);

  // Finishes the file and publishes its block list; returns total bytes.
  std::uint64_t Close();

 private:
  friend class Dfs;
  DfsFileWriter(Dfs* dfs, std::string name);
  // Starts a new block when `framed` more bytes would overflow this one.
  void Reserve(std::uint64_t framed);
  void StartBlock();
  void FinishBlock();

  Dfs* dfs_;
  std::string name_;
  std::vector<BlockInfo> blocks_;
  std::unique_ptr<SequentialWriter> current_;
  std::uint64_t current_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool closed_ = false;
};

// Iterates the records of one block.
class DfsBlockReader {
 public:
  DfsBlockReader(const BlockInfo& block, IoChannel channel);

  // False at end of block.  The returned slice is valid until the next call.
  bool Next(Slice* record);

 private:
  SequentialReader reader_;
  std::vector<char> buffer_;
};

class Dfs {
 public:
  Dfs(FileManager* files, MetricRegistry* metrics, DfsOptions options = {});

  // Creates a new file; throws if the name already exists.
  [[nodiscard]] std::unique_ptr<DfsFileWriter> Create(const std::string& name);

  [[nodiscard]] std::vector<BlockInfo> ListBlocks(const std::string& name) const;
  [[nodiscard]] bool Exists(const std::string& name) const;
  [[nodiscard]] std::uint64_t FileBytes(const std::string& name) const;

  [[nodiscard]] std::unique_ptr<DfsBlockReader> OpenBlock(
      const BlockInfo& block) const;

  [[nodiscard]] const DfsOptions& options() const noexcept { return options_; }
  [[nodiscard]] MetricRegistry* metrics() const noexcept { return metrics_; }

  // Channel used for job-output writes back into the DFS.
  [[nodiscard]] IoChannel WriteChannel() const {
    return {metrics_, device::kDfsWrite};
  }
  [[nodiscard]] IoChannel ReadChannel() const {
    return {metrics_, device::kDfsRead};
  }

 private:
  friend class DfsFileWriter;

  // Chooses `replication` distinct nodes for a new block.
  std::vector<int> PlaceBlock();

  void Publish(const std::string& name, std::vector<BlockInfo> blocks,
               std::uint64_t total_bytes);

  FileManager* files_;
  MetricRegistry* metrics_;
  DfsOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, std::vector<BlockInfo>> namespace_;
  std::map<std::string, std::uint64_t> file_bytes_;
  std::uint64_t next_block_id_ = 0;
  Rng placement_rng_;
};

}  // namespace opmr
