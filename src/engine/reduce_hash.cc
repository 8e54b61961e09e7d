#include "engine/reduce_hash.h"

#include <stdexcept>

namespace opmr {

namespace {

// ValueIterator over an in-memory value list.
class VectorValueIterator final : public ValueIterator {
 public:
  explicit VectorValueIterator(const std::vector<Slice>& values)
      : values_(values) {}

  bool Next(Slice* value) override {
    if (pos_ >= values_.size()) return false;
    *value = values_[pos_++];
    return true;
  }

 private:
  const std::vector<Slice>& values_;
  std::size_t pos_ = 0;
};

}  // namespace

HashGrouping::HashGrouping(const Aggregator* aggregator,
                           bool values_are_states, int level,
                           std::size_t budget, const RuntimeEnv& env,
                           bool compress)
    : aggregator_(aggregator),
      values_are_states_(values_are_states),
      level_(level),
      budget_(budget),
      env_(env),
      compress_(compress),
      buckets_(kBuckets) {
  if (level_ > kMaxLevel) {
    throw std::runtime_error(
        "hybrid hash: recursion limit exceeded (pathological key "
        "distribution or tiny memory budget)");
  }
  if (aggregator_ != nullptr) {
    for (auto& b : buckets_) b.table = KeyTable(aggregator_);
  }
}

void HashGrouping::Add(Slice key, Slice value) {
  Bucket& bucket = buckets_[family_.Hash(level_, key) % kBuckets];
  if (bucket.spill != nullptr) {
    if (aggregator_ != nullptr && !values_are_states_) {
      // Spill files of an aggregation hold states: lift raw values first.
      std::string state;
      aggregator_->Init(value, &state);
      bucket.spill->Append(key, state);
    } else {
      bucket.spill->Append(key, value);
    }
  } else if (aggregator_ != nullptr) {
    bucket.table.Fold(key, value, values_are_states_);
  } else {
    bucket.table.Add(key, value);
  }
  if (++since_check_ >= 64) {
    since_check_ = 0;
    auto resident = [this] {
      std::size_t total = 0;
      for (const auto& b : buckets_) total += b.table.MemoryBytes();
      return total;
    };
    while (resident() > budget_ && DemoteLargest()) {
    }
  }
}

void HashGrouping::AddRun(const std::filesystem::path& run) {
  auto reader =
      OpenSpillRun(compress_, run, IoChannel(env_.metrics, device::kSpillRead));
  while (reader->Next()) Add(reader->key(), reader->value());
}

bool HashGrouping::DemoteLargest() {
  Bucket* victim = nullptr;
  for (auto& b : buckets_) {
    if (b.spill == nullptr && b.table.size() > 1 &&
        (victim == nullptr ||
         b.table.MemoryBytes() > victim->table.MemoryBytes())) {
      victim = &b;
    }
  }
  if (victim == nullptr) return false;
  victim->spill_path = env_.files->NewFile("hash_spill");
  victim->spill = NewSpillSink(compress_, victim->spill_path,
                               IoChannel(env_.metrics, device::kSpillWrite));
  const KeyTable& table = victim->table;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (aggregator_ != nullptr) {
      victim->spill->Append(table.key(i), table.state(i));
    } else {
      for (const Slice& v : table.values(i)) {
        victim->spill->Append(table.key(i), v);
      }
    }
  }
  victim->table.Clear();
  return true;
}

void HashGrouping::Finish(
    const std::function<void(const KeyTable& table, std::size_t i)>& emit) {
  for (auto& bucket : buckets_) {
    if (bucket.spill == nullptr) {
      for (std::size_t i = 0; i < bucket.table.size(); ++i) {
        emit(bucket.table, i);
      }
      bucket.table.Clear();
      continue;
    }
    bucket.spill->Close();
    bucket.spill.reset();
    HashGrouping next(aggregator_, /*values_are_states=*/true, level_ + 1,
                      budget_, env_, compress_);
    next.AddRun(bucket.spill_path);
    std::filesystem::remove(bucket.spill_path);
    next.Finish(emit);
  }
}

std::uint64_t RunHybridHashReducer(int reducer_id, const JobSpec& spec,
                                   const JobOptions& options,
                                   const RuntimeEnv& env) {
  const double shuffle_begin = env.job_start->Seconds();
  IoChannel shuffle_read(env.metrics, device::kShuffleRead);
  const bool values_are_states =
      spec.has_aggregator() && options.map_side_combine;
  HashGrouping groups(spec.aggregator.get(), values_are_states, /*level=*/0,
                      options.reduce_buffer_bytes, env,
                      options.compress_spills);

  ShuffleItem item;
  while (env.shuffle->NextItem(reducer_id, &item)) {
    auto stream = OpenShuffleItem(item, shuffle_read);
    PhaseScope cpu(env.profiler, "hash_group");
    while (stream->Next()) groups.Add(stream->key(), stream->value());
  }
  env.timeline->Record(TaskKind::kShuffle, shuffle_begin,
                       env.job_start->Seconds());

  // Blocking emission: hybrid hash only answers after all input arrived.
  const double reduce_begin = env.job_start->Seconds();
  ReducerOutput out(env,
                    spec.output_file + ".part" + std::to_string(reducer_id));
  {
    PhaseScope cpu(env.profiler, "reduce_function");
    const auto reduce_fn = MakeReduceFn(spec, values_are_states);
    std::string final_value;
    groups.Finish([&](const KeyTable& table, std::size_t i) {
      if (spec.has_aggregator()) {
        spec.aggregator->Finalize(table.state(i), &final_value);
        out.Emit(table.key(i), final_value);
      } else {
        VectorValueIterator values(table.values(i));
        reduce_fn(table.key(i), values, out);
      }
    });
  }
  out.Close();
  env.timeline->Record(TaskKind::kReduce, reduce_begin,
                       env.job_start->Seconds());
  return out.records();
}

}  // namespace opmr
