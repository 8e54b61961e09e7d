// Map-output sinks: where a map task's (partition, key, value) stream goes.
//
//   * FileSink — Hadoop: output is persisted to a local spill file with one
//     contiguous segment per partition, synced for fault tolerance, then
//     registered with the shuffle service for pulling.
//   * PushSink — MapReduce Online: output is cut into chunks of the
//     configured pipelining granularity and pushed to reducers eagerly;
//     every chunk is also appended to a local file (HOP persists map output
//     with asynchronous I/O) and each pushed item names that copy, so a
//     remote endpoint replays from disk; chunks rejected by back-pressure
//     are registered as file segments to be pulled later.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/shuffle.h"
#include "storage/file_manager.h"
#include "storage/run_format.h"

namespace opmr {

class MapOutputSink {
 public:
  virtual ~MapOutputSink() = default;

  // A batch is a partition-grouped sequence of records (non-decreasing
  // partition ids); `sorted` marks per-partition key order (sort path).
  virtual void BeginBatch(bool sorted) = 0;
  virtual void BatchAppend(std::uint32_t partition, Slice key, Slice value) = 0;
  virtual void EndBatch() = 0;

  // Record-at-a-time appends in arbitrary partition order (the hash path's
  // partition-only scan, paper §V map technique 1).
  virtual void AppendStreaming(std::uint32_t partition, Slice key,
                               Slice value) = 0;

  // Finishes the task's output.  After Close() the caller calls Publish()
  // on success and then reports MapTaskDone to the shuffle service.
  virtual void Close() = 0;

  // Makes the task's output visible to reducers.  Kept separate from
  // Close() so a failed attempt can be discarded and re-executed without
  // reducers ever seeing its partial output (Hadoop's task-retry model).
  // PushSink publishes eagerly by design (HOP pipelines before completion,
  // which is exactly why the paper notes pipelining weakens fault
  // tolerance); its Publish() is a no-op and retries are rejected at
  // validation time.
  virtual void Publish() = 0;

  // Discards a failed attempt's buffered output without flushing it.  The
  // executor calls this before retrying so cleanup never writes (or passes
  // through the I/O fault hook) bytes belonging to a dead attempt.
  virtual void Abandon() noexcept = 0;

  // True when output becomes visible before Publish() (push pipelining).
  [[nodiscard]] virtual bool publishes_eagerly() const = 0;

  // Total map-output payload bytes produced through this sink.
  [[nodiscard]] virtual std::uint64_t bytes_out() const = 0;
};

class FileSink final : public MapOutputSink {
 public:
  FileSink(int map_task, FileManager* files, MetricRegistry* metrics,
           ShuffleMapEndpoint* shuffle, int num_partitions,
           std::size_t stream_buffer_bytes);

  void BeginBatch(bool sorted) override;
  void BatchAppend(std::uint32_t partition, Slice key, Slice value) override;
  void EndBatch() override;
  void AppendStreaming(std::uint32_t partition, Slice key,
                       Slice value) override;
  void Close() override;
  void Publish() override;
  void Abandon() noexcept override;
  [[nodiscard]] bool publishes_eagerly() const override { return false; }
  [[nodiscard]] std::uint64_t bytes_out() const override { return bytes_out_; }

 private:
  void FlushStreamBuffers();

  int map_task_;
  FileManager* files_;
  MetricRegistry* metrics_;
  ShuffleMapEndpoint* shuffle_;
  int num_partitions_;
  std::size_t stream_buffer_bytes_;

  // Active batch state.
  std::unique_ptr<SequentialWriter> writer_;
  MapOutputFile current_file_;
  int current_partition_ = -1;
  std::uint64_t segment_start_ = 0;
  std::uint64_t segment_records_ = 0;

  // Streaming-mode per-partition staging buffers (framed records).
  std::vector<std::string> stream_buffers_;
  std::vector<std::uint64_t> stream_records_;
  std::size_t stream_bytes_ = 0;

  // Completed spill files awaiting Publish().
  std::vector<MapOutputFile> pending_files_;

  std::uint64_t bytes_out_ = 0;
};

class PushSink final : public MapOutputSink {
 public:
  PushSink(int map_task, FileManager* files, MetricRegistry* metrics,
           ShuffleMapEndpoint* shuffle, int num_partitions,
           std::size_t chunk_bytes);

  void BeginBatch(bool sorted) override;
  void BatchAppend(std::uint32_t partition, Slice key, Slice value) override;
  void EndBatch() override;
  void AppendStreaming(std::uint32_t partition, Slice key,
                       Slice value) override;
  void Close() override;
  void Publish() override {}  // chunks were pushed/registered eagerly
  void Abandon() noexcept override;
  [[nodiscard]] bool publishes_eagerly() const override { return true; }
  [[nodiscard]] std::uint64_t bytes_out() const override { return bytes_out_; }

  // Diverted-to-disk chunk count (back-pressure events; bench metric).
  [[nodiscard]] std::uint64_t diverted_chunks() const noexcept {
    return diverted_;
  }
  [[nodiscard]] std::uint64_t pushed_chunks() const noexcept {
    return pushed_;
  }

 private:
  void AppendRecord(std::uint32_t partition, Slice key, Slice value);
  void EmitChunk(std::uint32_t partition);
  void EmitAllPartialChunks();

  int map_task_;
  ShuffleMapEndpoint* shuffle_;
  MetricRegistry* metrics_;
  std::size_t chunk_bytes_;
  std::size_t chunk_reserve_;  // capacity a new chunk starts with
  bool batch_sorted_ = false;

  std::unique_ptr<SequentialWriter> writer_;  // persistence + divert backing
  std::vector<std::string> chunks_;           // per-partition framed records
  std::vector<std::uint64_t> chunk_records_;

  std::uint64_t bytes_out_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t diverted_ = 0;
};

}  // namespace opmr
