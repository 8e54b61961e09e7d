#include "engine/map_sinks.h"

#include "metrics/stopwatch.h"

#include <algorithm>
#include <stdexcept>

namespace opmr {

namespace {
void FrameRecord(std::string& dst, Slice key, Slice value) {
  AppendU32(dst, static_cast<std::uint32_t>(key.size()));
  AppendU32(dst, static_cast<std::uint32_t>(value.size()));
  dst.append(key.data(), key.size());
  dst.append(value.data(), value.size());
}
}  // namespace

// --- FileSink ----------------------------------------------------------------

FileSink::FileSink(int map_task, FileManager* files, MetricRegistry* metrics,
                   ShuffleMapEndpoint* shuffle, int num_partitions,
                   std::size_t stream_buffer_bytes)
    : map_task_(map_task),
      files_(files),
      metrics_(metrics),
      shuffle_(shuffle),
      num_partitions_(num_partitions),
      stream_buffer_bytes_(stream_buffer_bytes),
      stream_buffers_(num_partitions),
      stream_records_(num_partitions, 0) {}

void FileSink::BeginBatch(bool sorted) {
  if (writer_ != nullptr) {
    throw std::logic_error("FileSink: nested batch");
  }
  current_file_ = MapOutputFile{};
  current_file_.map_task = map_task_;
  current_file_.sorted = sorted;
  current_file_.path = files_->NewFile("map_out");
  current_file_.partitions.assign(num_partitions_, Segment{});
  writer_ = std::make_unique<SequentialWriter>(
      current_file_.path, IoChannel(metrics_, device::kMapOutputWrite));
  current_partition_ = -1;
  segment_start_ = 0;
  segment_records_ = 0;
}

void FileSink::BatchAppend(std::uint32_t partition, Slice key, Slice value) {
  if (writer_ == nullptr) throw std::logic_error("FileSink: append w/o batch");
  const int p = static_cast<int>(partition);
  if (p < current_partition_) {
    throw std::logic_error("FileSink: batch not partition-grouped");
  }
  if (p != current_partition_) {
    if (current_partition_ >= 0) {
      Segment& seg = current_file_.partitions[current_partition_];
      seg.offset = segment_start_;
      seg.bytes = writer_->bytes_written() - segment_start_;
      seg.records = segment_records_;
    }
    current_partition_ = p;
    segment_start_ = writer_->bytes_written();
    segment_records_ = 0;
  }
  writer_->AppendFrame(key, value);
  ++segment_records_;
  bytes_out_ += key.size() + value.size();
}

void FileSink::EndBatch() {
  if (writer_ == nullptr) throw std::logic_error("FileSink: end w/o batch");
  if (current_partition_ >= 0) {
    Segment& seg = current_file_.partitions[current_partition_];
    seg.offset = segment_start_;
    seg.bytes = writer_->bytes_written() - segment_start_;
    seg.records = segment_records_;
  }
  // The Hadoop contract: a mapper completes only after its output has been
  // persisted (paper §II-A), hence the synchronous flush here.  The wall
  // time of this persistence step is what §III-B.2 measures (1.3 s of a
  // 21.6 s map task).
  {
    WallTimer write_timer;
    writer_->Flush(/*sync=*/true);
    writer_->Close();
    metrics_->Get(device::kMapOutputWriteNanos)->Add(write_timer.Nanos());
  }
  writer_.reset();
  pending_files_.push_back(current_file_);
}

void FileSink::AppendStreaming(std::uint32_t partition, Slice key,
                               Slice value) {
  std::string& buf = stream_buffers_.at(partition);
  const std::size_t before = buf.size();
  FrameRecord(buf, key, value);
  stream_bytes_ += buf.size() - before;
  ++stream_records_[partition];
  bytes_out_ += key.size() + value.size();
  if (stream_bytes_ >= stream_buffer_bytes_) FlushStreamBuffers();
}

void FileSink::FlushStreamBuffers() {
  if (stream_bytes_ == 0) return;
  // Write one spill file with the staged partition buffers back-to-back.
  MapOutputFile file;
  file.map_task = map_task_;
  file.sorted = false;
  file.path = files_->NewFile("map_out");
  file.partitions.assign(num_partitions_, Segment{});
  SequentialWriter writer(file.path,
                          IoChannel(metrics_, device::kMapOutputWrite));
  for (int p = 0; p < num_partitions_; ++p) {
    if (stream_buffers_[p].empty()) continue;
    Segment& seg = file.partitions[p];
    seg.offset = writer.bytes_written();
    seg.bytes = stream_buffers_[p].size();
    seg.records = stream_records_[p];
    writer.Append(stream_buffers_[p]);
    stream_buffers_[p].clear();
    stream_records_[p] = 0;
  }
  writer.Flush(/*sync=*/true);
  writer.Close();
  stream_bytes_ = 0;
  pending_files_.push_back(file);
}

void FileSink::Close() {
  if (writer_ != nullptr) throw std::logic_error("FileSink: close mid-batch");
  FlushStreamBuffers();
}

void FileSink::Publish() {
  for (const auto& file : pending_files_) shuffle_->RegisterFile(file);
  pending_files_.clear();
}

void FileSink::Abandon() noexcept {
  if (writer_ != nullptr) writer_->Abandon();
  writer_.reset();
  for (auto& buf : stream_buffers_) buf.clear();
  stream_bytes_ = 0;
  pending_files_.clear();  // never registered; FileManager reclaims the files
}

// --- PushSink ----------------------------------------------------------------

PushSink::PushSink(int map_task, FileManager* files, MetricRegistry* metrics,
                   ShuffleMapEndpoint* shuffle, int num_partitions,
                   std::size_t chunk_bytes)
    : map_task_(map_task),
      shuffle_(shuffle),
      metrics_(metrics),
      chunk_bytes_(chunk_bytes),
      chunk_reserve_(chunk_bytes),
      chunks_(num_partitions),
      chunk_records_(num_partitions, 0) {
  // HOP persists all map output too, but asynchronously — no fdatasync.
  // Every chunk is flushed as soon as it is appended, so the writer needs
  // no buffer: each chunk goes straight to the file.
  writer_ = std::make_unique<SequentialWriter>(
      files->NewFile("map_out_push"),
      IoChannel(metrics, device::kMapOutputWrite), /*buffer_bytes=*/0);
}

void PushSink::BeginBatch(bool sorted) { batch_sorted_ = sorted; }

void PushSink::BatchAppend(std::uint32_t partition, Slice key, Slice value) {
  AppendRecord(partition, key, value);
}

void PushSink::EndBatch() {
  // Chunks must not span batches: a sorted batch's chunks are each sorted
  // runs only if they are cut at batch boundaries.
  EmitAllPartialChunks();
  batch_sorted_ = false;
}

void PushSink::AppendStreaming(std::uint32_t partition, Slice key,
                               Slice value) {
  batch_sorted_ = false;
  AppendRecord(partition, key, value);
}

void PushSink::AppendRecord(std::uint32_t partition, Slice key, Slice value) {
  std::string& chunk = chunks_.at(partition);
  if (chunk.empty()) chunk.reserve(chunk_reserve_);
  FrameRecord(chunk, key, value);
  ++chunk_records_[partition];
  bytes_out_ += key.size() + value.size();
  if (chunk.size() >= chunk_bytes_) EmitChunk(partition);
}

void PushSink::EmitChunk(std::uint32_t partition) {
  std::string& chunk = chunks_[partition];
  if (chunk.empty()) return;

  // Persist and flush the chunk first: the copy on disk is the fault-
  // tolerance copy, the divert target and what a remote endpoint re-reads
  // to replay the push.  The writer has no buffer, so the chunk is written
  // straight through and the flush adds no write.
  Segment seg;
  seg.offset = writer_->bytes_written();
  seg.bytes = chunk.size();
  seg.records = chunk_records_[partition];
  writer_->Append(chunk);
  writer_->Flush();
  // Size the next chunk for the largest yet (within 2x, the capacity a
  // doubling string would reach), so the record that fills it does not
  // reallocate.
  chunk_reserve_ =
      std::max(chunk_reserve_, std::min(chunk.size(), 2 * chunk_bytes_));

  ShuffleItem item;
  item.map_task = map_task_;
  item.sorted = batch_sorted_;
  item.records = seg.records;
  item.bytes = std::move(chunk);
  item.path = writer_->path();
  item.segment = seg;
  chunk.clear();
  chunk_records_[partition] = 0;

  switch (shuffle_->TryPush(static_cast<int>(partition), std::move(item))) {
    case PushResult::kAccepted:
      ++pushed_;
      metrics_->Get(device::kPushedChunks)->Increment();
      break;
    case PushResult::kBusy:
      // Back-pressure: reducer is behind; leave the bytes on disk and let
      // the reducer pull them later (paper §III-D adaptive mechanism).
      ++diverted_;
      metrics_->Get(device::kDivertedChunks)->Increment();
      shuffle_->RegisterSegment(map_task_, writer_->path(),
                                static_cast<int>(partition), seg,
                                batch_sorted_);
      break;
    case PushResult::kReducerGone:
      throw ReducerGoneError(
          "push shuffle: reducer " + std::to_string(partition) +
          " terminally failed after consuming pipelined map output — pushed "
          "chunks cannot be recalled, so the job must fail (paper Table "
          "III: pipelining trades away reduce-side fault tolerance)");
  }
}

void PushSink::EmitAllPartialChunks() {
  for (std::uint32_t p = 0; p < chunks_.size(); ++p) EmitChunk(p);
}

void PushSink::Close() {
  EmitAllPartialChunks();
  writer_->Close();
}

void PushSink::Abandon() noexcept {
  if (writer_ != nullptr) writer_->Abandon();
}

}  // namespace opmr
