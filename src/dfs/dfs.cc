#include "dfs/dfs.h"

#include <algorithm>
#include <stdexcept>

namespace opmr {

Dfs::Dfs(FileManager* files, MetricRegistry* metrics, DfsOptions options)
    : files_(files),
      metrics_(metrics),
      options_(options),
      placement_rng_(options.placement_seed) {
  if (options_.num_nodes <= 0) {
    throw std::invalid_argument("Dfs: num_nodes must be positive");
  }
  if (options_.replication <= 0 || options_.replication > options_.num_nodes) {
    throw std::invalid_argument("Dfs: replication out of range");
  }
}

std::unique_ptr<DfsFileWriter> Dfs::Create(const std::string& name) {
  {
    std::scoped_lock lock(mu_);
    if (namespace_.count(name) != 0) {
      throw std::runtime_error("Dfs: file exists: " + name);
    }
  }
  return std::unique_ptr<DfsFileWriter>(new DfsFileWriter(this, name));
}

std::vector<BlockInfo> Dfs::ListBlocks(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = namespace_.find(name);
  if (it == namespace_.end()) {
    throw std::runtime_error("Dfs: no such file: " + name);
  }
  return it->second;
}

bool Dfs::Exists(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return namespace_.count(name) != 0;
}

std::uint64_t Dfs::FileBytes(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = file_bytes_.find(name);
  if (it == file_bytes_.end()) {
    throw std::runtime_error("Dfs: no such file: " + name);
  }
  return it->second;
}

std::unique_ptr<DfsBlockReader> Dfs::OpenBlock(const BlockInfo& block) const {
  return std::make_unique<DfsBlockReader>(block, ReadChannel());
}

std::vector<int> Dfs::PlaceBlock() {
  // Random distinct nodes; with replication 1 this is a uniform spread that
  // matches HDFS's default placement closely enough for locality stats.
  // Concurrent reducers each drive their own writer, so the shared placement
  // RNG needs the namespace lock.
  std::scoped_lock lock(mu_);
  std::vector<int> nodes;
  nodes.reserve(options_.replication);
  while (static_cast<int>(nodes.size()) < options_.replication) {
    const int n = static_cast<int>(placement_rng_.Uniform(options_.num_nodes));
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

void Dfs::Publish(const std::string& name, std::vector<BlockInfo> blocks,
                  std::uint64_t total_bytes) {
  std::scoped_lock lock(mu_);
  namespace_[name] = std::move(blocks);
  file_bytes_[name] = total_bytes;
}

DfsFileWriter::DfsFileWriter(Dfs* dfs, std::string name)
    : dfs_(dfs), name_(std::move(name)) {}

DfsFileWriter::~DfsFileWriter() {
  // An abandoned writer (destroyed without Close()) must NOT publish: a
  // failed task attempt's partial output would become visible in the
  // namespace and collide with the re-execution's Create().  The physical
  // block bytes stay on disk until the workspace is cleaned up.
  if (closed_) return;
  closed_ = true;
  try {
    if (current_ != nullptr) current_->Close();
  } catch (...) {
    // Swallow: flushing a partial block may fail; the file is discarded
    // anyway.
  }
}

void DfsFileWriter::StartBlock() {
  BlockInfo block;
  {
    std::scoped_lock lock(dfs_->mu_);
    block.block_id = dfs_->next_block_id_++;
  }
  block.file = name_;
  block.offset = total_bytes_;
  block.replica_nodes = dfs_->PlaceBlock();
  block.path = dfs_->files_->NewFile("dfs_block");
  blocks_.push_back(block);
  current_ = std::make_unique<SequentialWriter>(block.path,
                                                dfs_->WriteChannel());
  current_bytes_ = 0;
}

void DfsFileWriter::FinishBlock() {
  if (current_ == nullptr) return;
  current_->Close();
  blocks_.back().length = current_bytes_;
  current_.reset();
}

void DfsFileWriter::Reserve(std::uint64_t framed) {
  if (closed_) throw std::logic_error("DfsFileWriter: append after close");
  if (current_ == nullptr ||
      current_bytes_ + framed > dfs_->options_.block_bytes) {
    FinishBlock();
    StartBlock();
  }
  current_bytes_ += framed;
  total_bytes_ += framed;
}

void DfsFileWriter::Append(Slice record) {
  Reserve(4ull + record.size());
  char length[4];
  EncodeU32(length, static_cast<std::uint32_t>(record.size()));
  current_->Append(Slice(length, sizeof(length)), record);
}

void DfsFileWriter::AppendFrame(Slice key, Slice value) {
  const std::size_t frame = 8 + key.size() + value.size();
  Reserve(4ull + frame);
  char header[12];
  EncodeU32(header, static_cast<std::uint32_t>(frame));
  EncodeU32(header + 4, static_cast<std::uint32_t>(key.size()));
  EncodeU32(header + 8, static_cast<std::uint32_t>(value.size()));
  current_->Append(Slice(header, sizeof(header)), key, value);
}

std::uint64_t DfsFileWriter::Close() {
  if (closed_) return total_bytes_;
  FinishBlock();
  closed_ = true;
  dfs_->Publish(name_, std::move(blocks_), total_bytes_);
  return total_bytes_;
}

DfsBlockReader::DfsBlockReader(const BlockInfo& block, IoChannel channel)
    : reader_(block.path, channel) {}

bool DfsBlockReader::Next(Slice* record) {
  std::uint32_t len = 0;
  if (!reader_.ReadU32(&len)) return false;
  if (!reader_.HasBytes(len)) {
    throw std::runtime_error("DfsBlockReader: truncated record (" +
                             std::to_string(len) +
                             " bytes declared past the end of the block)");
  }
  buffer_.resize(len);
  if (len > 0 && !reader_.ReadExact(buffer_.data(), len)) {
    throw std::runtime_error("DfsBlockReader: truncated record");
  }
  *record = Slice(buffer_.data(), len);
  return true;
}

}  // namespace opmr
