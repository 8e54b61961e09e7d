#include "engine/map_task.h"

#include <stdexcept>

#include "engine/aggregators.h"
#include "engine/key_table.h"
#include "engine/map_output.h"

namespace opmr {

namespace {

// Collects map-function output into the sort buffer.  With a grouping
// prefix (secondary sort), only the prefix chooses the partition so one
// group never splits across reducers.
class BufferCollector final : public OutputCollector {
 public:
  BufferCollector(MapOutputBuffer* buffer, const JobSpec* spec,
                  MapTask::Stats* stats)
      : buffer_(buffer), spec_(spec), stats_(stats) {}

  void Emit(Slice key, Slice value) override {
    std::uint32_t partition;
    if (spec_->partitioner) {
      partition = spec_->partitioner(key, spec_->num_reducers);
    } else {
      Slice partition_key = key;
      if (spec_->grouping_prefix > 0 && key.size() > spec_->grouping_prefix) {
        partition_key = Slice(key.data(), spec_->grouping_prefix);
      }
      partition = PartitionOf(partition_key, spec_->num_reducers);
    }
    buffer_->Add(partition, key, value);
    ++stats_->output_records;
    stats_->output_bytes += key.size() + value.size();
  }

 private:
  MapOutputBuffer* buffer_;
  const JobSpec* spec_;
  MapTask::Stats* stats_;
};

// Folds map-function output into the combine table.
class TableCollector final : public OutputCollector {
 public:
  TableCollector(KeyTable* table, const JobSpec* spec, MapTask::Stats* stats)
      : table_(table), spec_(spec), stats_(stats) {}

  void Emit(Slice key, Slice value) override {
    // One hash per record: it selects the partition and probes the table.
    const std::uint64_t h = BytesHash(key, kPartitionSeed);
    const auto partition = spec_->partitioner
                               ? spec_->partitioner(key, spec_->num_reducers)
                               : PartitionOfHash(h, spec_->num_reducers);
    table_->Fold(partition, h, key, value, /*value_is_state=*/false);
    ++stats_->output_records;
    stats_->output_bytes += key.size() + value.size();
  }

 private:
  KeyTable* table_;
  const JobSpec* spec_;
  MapTask::Stats* stats_;
};

// Streams map-function output straight to the sink (partition-only scan).
class StreamingCollector final : public OutputCollector {
 public:
  StreamingCollector(MapOutputSink* sink, const JobSpec* spec,
                     MapTask::Stats* stats)
      : sink_(sink), spec_(spec), stats_(stats) {}

  void Emit(Slice key, Slice value) override {
    const auto partition = spec_->partitioner
                               ? spec_->partitioner(key, spec_->num_reducers)
                               : PartitionOf(key, spec_->num_reducers);
    sink_->AppendStreaming(partition, key, value);
    ++stats_->output_records;
    stats_->output_bytes += key.size() + value.size();
  }

 private:
  MapOutputSink* sink_;
  const JobSpec* spec_;
  MapTask::Stats* stats_;
};

}  // namespace

MapTask::MapTask(int task_id, const JobSpec& spec, const JobOptions& options,
                 const RuntimeEnv& env, const BlockInfo& block,
                 MapOutputSink* sink)
    : task_id_(task_id),
      spec_(spec),
      options_(options),
      env_(env),
      block_(block),
      sink_(sink) {}

MapTask::Stats MapTask::Run() {
  const std::unique_ptr<DfsBlockReader> owned = env_.dfs->OpenBlock(block_);
  DfsBlockReader& reader = *owned;
  if (options_.group_by == GroupBy::kSortMerge) {
    RunSortPath(reader);
  } else if (spec_.has_aggregator() && options_.map_side_combine) {
    RunHashCombinePath(reader);
  } else {
    RunPartitionOnlyPath(reader);
  }
  sink_->Close();
  return stats_;
}

void MapTask::FlushSortedBuffer(MapOutputBuffer& buffer) {
  if (buffer.Empty()) return;
  {
    // The CPU cost Table II isolates: Hadoop's block-level sort on the
    // compound (partition, key).
    PhaseScope cpu(env_.profiler, "map_sort");
    buffer.Sort();
  }

  const bool combine = spec_.has_aggregator() && options_.map_side_combine;
  sink_->BeginBatch(/*sorted=*/true);
  const auto& entries = buffer.entries();
  if (combine) {
    PhaseScope cpu(env_.profiler, "map_combine");
    const Aggregator* agg = spec_.aggregator.get();
    std::string state;
    std::size_t i = 0;
    while (i < entries.size()) {
      // One combine group: a run of equal (partition, key).
      const auto& head = entries[i];
      const Slice key = buffer.Key(head);
      agg->Init(buffer.Value(head), &state);
      std::size_t j = i + 1;
      while (j < entries.size() && entries[j].partition == head.partition &&
             entries[j].prefix == head.prefix && buffer.Key(entries[j]) == key) {
        agg->Update(&state, buffer.Value(entries[j]));
        ++j;
      }
      sink_->BatchAppend(head.partition, key, state);
      i = j;
    }
  } else {
    for (const auto& e : entries) {
      sink_->BatchAppend(e.partition, buffer.Key(e), buffer.Value(e));
    }
  }
  sink_->EndBatch();
  buffer.Clear();
}

void MapTask::RunSortPath(DfsBlockReader& reader) {
  MapOutputBuffer buffer;
  BufferCollector collector(&buffer, &spec_, &stats_);
  Slice record;
  ThreadCpuTimer cpu;
  std::uint64_t record_no = 0;
  while (reader.Next(&record)) {
    if (env_.fault != nullptr) env_.fault->OnMapRecord(task_id_, ++record_no);
    spec_.map(record, collector);
    ++stats_.input_records;
    if (buffer.MemoryBytes() > options_.map_buffer_bytes) {
      env_.profiler->AddCpuNanos("map_function", cpu.Nanos());
      FlushSortedBuffer(buffer);
      cpu.Restart();
    }
  }
  env_.profiler->AddCpuNanos("map_function", cpu.Nanos());
  FlushSortedBuffer(buffer);
}

void MapTask::RunHashCombinePath(DfsBlockReader& reader) {
  KeyTable table(spec_.aggregator.get(), /*initial_slots=*/1u << 12);
  TableCollector collector(&table, &spec_, &stats_);
  Slice record;
  ThreadCpuTimer cpu;
  auto flush = [&] {
    env_.profiler->AddCpuNanos("map_hash", cpu.Nanos());
    if (!table.empty()) {
      PhaseScope flush_cpu(env_.profiler, "map_flush");
      sink_->BeginBatch(/*sorted=*/false);
      for (const std::uint32_t i : table.ByPartition()) {
        sink_->BatchAppend(table.partition(i), table.key(i), table.state(i));
      }
      sink_->EndBatch();
      table.Clear();
    }
    cpu.Restart();
  };
  std::uint64_t record_no = 0;
  while (reader.Next(&record)) {
    if (env_.fault != nullptr) env_.fault->OnMapRecord(task_id_, ++record_no);
    spec_.map(record, collector);
    ++stats_.input_records;
    if (table.MemoryBytes() > options_.map_buffer_bytes) flush();
  }
  flush();
}

void MapTask::RunPartitionOnlyPath(DfsBlockReader& reader) {
  StreamingCollector collector(sink_, &spec_, &stats_);
  Slice record;
  ThreadCpuTimer cpu;
  std::uint64_t record_no = 0;
  while (reader.Next(&record)) {
    if (env_.fault != nullptr) env_.fault->OnMapRecord(task_id_, ++record_no);
    spec_.map(record, collector);
    ++stats_.input_records;
  }
  env_.profiler->AddCpuNanos("map_function", cpu.Nanos());
}

}  // namespace opmr
