#include "engine/reduce_incremental.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "engine/reduce_hash.h"
#include "fault/fault.h"

namespace opmr {

namespace {

// Collects emissions into a vector so they can be sorted before reaching
// the real output — checkpointed runs emit in key order, making output
// bytes independent of hash-table iteration order (and therefore identical
// between a clean run and a recovered one).
class BufferingCollector final : public OutputCollector {
 public:
  void Emit(Slice key, Slice value) override {
    rows_.emplace_back(std::string(key.view()), std::string(value.view()));
  }

  void DrainSorted(OutputCollector& out) {
    std::sort(rows_.begin(), rows_.end());
    for (const auto& [key, value] : rows_) out.Emit(key, value);
    rows_.clear();
  }

 private:
  std::vector<std::pair<std::string, std::string>> rows_;
};

}  // namespace

// --- IncrementalStateStore ---------------------------------------------------

IncrementalStateStore::IncrementalStateStore(const Aggregator* aggregator,
                                             Options options,
                                             const RuntimeEnv& env)
    : aggregator_(aggregator),
      options_(std::move(options)),
      env_(env),
      demote_above_(options_.budget_bytes - options_.budget_bytes / 4),
      table_(aggregator),
      sketch_(options_.hot_key_capacity > 0
                  ? std::make_unique<SpaceSaving>(options_.hot_key_capacity)
                  : nullptr) {}

void IncrementalStateStore::OfferToSketch(Slice key) {
  // The sketch sees every arrival; its eviction is the demotion signal —
  // but demotion only matters under memory pressure.  While the table is
  // comfortably inside its budget every state stays resident, so an
  // amply-provisioned run spills nothing at all.
  if (auto victim = sketch_->OfferAndEvict(key); victim.has_value()) {
    if (table_.MemoryBytes() > demote_above_) Demote(*victim);
  }
}

void IncrementalStateStore::MaybeEmitEarly(std::size_t i) {
  const Slice key = table_.key(i);
  // A key answered before its state left the table stays answered.
  if (auto it = answered_.find(key.view()); it != answered_.end()) {
    answered_.erase(it);
    table_.Mark(i);
    return;
  }
  if (!options_.early_emit(key, table_.state(i))) return;
  // Incremental processing: the answer leaves the system the moment the
  // data needed to produce it has been read (paper §IV req. 3).
  table_.Mark(i);
  aggregator_->Finalize(table_.state(i), &early_value_);
  options_.on_early_answer(key, early_value_);
}

void IncrementalStateStore::EnforceBudget() {
  if (sketch_ == nullptr) {
    SpillTable();
    return;
  }
  // Demote the resident key the sketch considers coldest (the smaller key
  // on a tie) until under budget.  Usually one key goes, so a scan for the
  // minimum beats sorting the table.
  std::string coldest;
  while (table_.MemoryBytes() > options_.budget_bytes) {
    std::size_t victim = 0;
    std::uint64_t lowest = sketch_->Estimate(table_.key(0));
    for (std::size_t i = 1; i < table_.size(); ++i) {
      const std::uint64_t estimate = sketch_->Estimate(table_.key(i));
      if (estimate < lowest ||
          (estimate == lowest && table_.key(i) < table_.key(victim))) {
        victim = i;
        lowest = estimate;
      }
    }
    // A copy: extraction may move the table's keys.
    coldest.assign(table_.key(victim).view());
    Demote(coldest);
  }
}

std::unique_ptr<RecordSink> IncrementalStateStore::NewRun(const char* tag) {
  runs_.push_back(env_.files->NewFile(tag));
  return NewSpillSink(options_.compress_spills, runs_.back(),
                      IoChannel(env_.metrics, device::kSpillWrite));
}

void IncrementalStateStore::SpillTable() {
  const double begin =
      env_.timeline != nullptr ? env_.job_start->Seconds() : 0.0;
  auto writer = NewRun("incr_spill");
  for (std::size_t i = 0; i < table_.size(); ++i) {
    writer->Append(table_.key(i), table_.state(i));
    if (table_.marked(i)) answered_.emplace(table_.key(i).view());
  }
  writer->Close();
  table_.Clear();
  if (env_.timeline != nullptr) {
    env_.timeline->Record(TaskKind::kMerge, begin, env_.job_start->Seconds());
  }
}

void IncrementalStateStore::Demote(Slice key) {
  std::string state;
  bool early_emitted = false;
  if (!table_.Extract(key, &state, &early_emitted)) return;
  if (early_emitted) answered_.emplace(key.view());
  if (cold_ == nullptr) {
    cold_ = NewRun("cold_run");
    cold_path_ = runs_.back();
  }
  cold_->Append(key, state);
  if (options_.demotions != nullptr) options_.demotions->Increment();
}

void IncrementalStateStore::AppendImage(CheckpointImage* image,
                                        bool with_manifest) {
  if (with_manifest) {
    if (cold_ != nullptr) cold_->Flush();
    for (const auto& path : runs_) {
      // The open cold run's durable prefix is its flushed byte count; the
      // closed spill runs are complete files.
      const std::uint64_t committed = (cold_ != nullptr && path == cold_path_)
                                          ? cold_->bytes_written()
                                          : std::filesystem::file_size(path);
      image->spill_files.push_back({path.string(), committed});
    }
  }
  if (sketch_ != nullptr) {
    for (const auto& hitter : sketch_->Candidates()) {
      image->sketch.push_back(
          {hitter.key, hitter.count_estimate, hitter.error_bound});
    }
    image->sketch_stream_length += sketch_->StreamLength();
  }
  image->entries.reserve(image->entries.size() + table_.size());
  for (std::size_t i = 0; i < table_.size(); ++i) {
    image->entries.push_back({std::string(table_.key(i).view()),
                              std::string(table_.state(i).view()),
                              table_.marked(i)});
  }
}

void IncrementalStateStore::Restore(const CheckpointImage& image) {
  Clear();
  for (const auto& entry : image.entries) {
    const std::size_t i =
        table_.Fold(entry.key, entry.state, /*value_is_state=*/true);
    if (entry.early_emitted) table_.Mark(i);
  }
  if (sketch_ != nullptr) {
    for (const auto& entry : image.sketch) {
      sketch_->Restore(entry.key, entry.count, entry.error);
    }
    sketch_->SetStreamLength(image.sketch_stream_length);
  }
  for (const auto& spill : image.spill_files) {
    const std::filesystem::path path(spill.path);
    if (!std::filesystem::exists(path)) {
      throw std::runtime_error(
          "checkpoint manifest references missing spill run " + spill.path);
    }
    if (std::filesystem::file_size(path) > spill.committed_bytes) {
      std::filesystem::resize_file(path, spill.committed_bytes);
    }
    // A cold run from before the restore is never appended to again;
    // later demotions open a fresh one.
    runs_.push_back(path);
  }
}

void IncrementalStateStore::Clear() {
  table_.Clear();
  if (sketch_ != nullptr) {
    sketch_ = std::make_unique<SpaceSaving>(options_.hot_key_capacity);
  }
  if (cold_ != nullptr) {
    cold_->Close();
    cold_.reset();
  }
  cold_path_.clear();
  runs_.clear();
  answered_.clear();
}

void IncrementalStateStore::Finish(
    const std::function<void(Slice key, Slice value)>& emit) {
  std::string final_value;
  if (runs_.empty()) {
    // Pure in-memory one-pass processing: a finalize scan is all that
    // remains.
    for (std::size_t i = 0; i < table_.size(); ++i) {
      aggregator_->Finalize(table_.state(i), &final_value);
      emit(table_.key(i), final_value);
    }
    return;
  }
  // Resolve spilled partial states: flush the live table as one more run,
  // then externally re-aggregate.  States merge associatively, so the
  // result is exact.
  if (cold_ != nullptr) {
    cold_->Close();
    cold_.reset();
  }
  if (!table_.empty()) SpillTable();
  HashGrouping groups(aggregator_, /*values_are_states=*/true, /*level=*/0,
                      options_.budget_bytes, env_, options_.compress_spills);
  for (const auto& path : runs_) groups.AddRun(path);
  groups.Finish([&](const KeyTable& table, std::size_t i) {
    aggregator_->Finalize(table.state(i), &final_value);
    emit(table.key(i), final_value);
  });
  for (const auto& path : runs_) std::filesystem::remove(path);
  runs_.clear();
}

// --- IncrementalHashReducer --------------------------------------------------

namespace {

IncrementalStateStore::Options StoreOptions(
    const JobSpec& spec, const JobOptions& options,
    std::function<void(Slice, Slice)> on_early_answer) {
  IncrementalStateStore::Options store;
  store.budget_bytes = options.reduce_buffer_bytes;
  if (options.hash_reduce == HashReduce::kHotKeyIncremental) {
    store.hot_key_capacity = options.hot_key_capacity;
  }
  store.values_are_states = spec.has_aggregator() && options.map_side_combine;
  store.compress_spills = options.compress_spills;
  store.early_emit = options.early_emit;
  store.on_early_answer = std::move(on_early_answer);
  return store;
}

}  // namespace

IncrementalHashReducer::IncrementalHashReducer(int reducer_id,
                                               const JobSpec& spec,
                                               const JobOptions& options,
                                               const RuntimeEnv& env)
    : reducer_id_(reducer_id),
      spec_(spec),
      options_(options),
      env_(env),
      store_(spec.aggregator.get(),
             StoreOptions(spec, options,
                          [this](Slice key, Slice value) {
                            out_->Emit(key, value);
                          }),
             env) {
  if (options_.checkpoint.enabled) {
    ckpt_ = std::make_unique<CheckpointManager>(
        env_.checkpoint_dir, spec_.name, reducer_id_, options_.checkpoint,
        env_.metrics);
  }
}

std::uint64_t IncrementalHashReducer::PrepareCheckpoint() {
  const FaultScope::Frame& frame = FaultScope::Current();
  if (frame.attempt <= 1) {
    // Fresh execution: stale images of a previous run must never restore.
    ckpt_->Reset();
    return 0;
  }
  std::uint64_t watermark = 0;
  if (auto image = ckpt_->LoadLatest(); image.has_value()) {
    store_.Restore(*image);
    feed_records_.clear();
    for (const auto& [feed, records] : image->feeds) {
      feed_records_[feed] = records;
    }
    watermark = image->watermark;
  }
  // No (valid) checkpoint degrades to a full re-execution — feasible for
  // retained-feed shuffles, a structured Table III error otherwise.
  std::string why;
  if (!env_.shuffle->Rewind(reducer_id_, watermark, &why)) {
    throw ReplayError("reduce task " + std::to_string(reducer_id_) +
                      " cannot resume from checkpoint watermark " +
                      std::to_string(watermark) + ": " + why);
  }
  return watermark;
}

void IncrementalHashReducer::WriteCheckpoint(std::uint64_t watermark) {
  PhaseScope cpu(env_.profiler, "checkpoint");
  CheckpointImage image;
  image.watermark = watermark;
  image.feeds.assign(feed_records_.begin(), feed_records_.end());
  store_.AppendImage(&image, /*with_manifest=*/true);
  ckpt_->Write(&image);
  // Acknowledge up to the OLDEST retained checkpoint: any of the retained
  // images can still restore, so the shuffle may release everything its
  // watermark covers.
  if (auto ack = ckpt_->OldestRetainedWatermark(); ack.has_value()) {
    env_.shuffle->Acknowledge(reducer_id_, *ack);
  }
}

std::uint64_t IncrementalHashReducer::Run() {
  const double shuffle_begin = env_.job_start->Seconds();
  IoChannel shuffle_read(env_.metrics, device::kShuffleRead);
  std::uint64_t watermark = ckpt_ != nullptr ? PrepareCheckpoint() : 0;
  out_.emplace(env_, spec_.output_file + ".part" + std::to_string(reducer_id_));

  ShuffleItem item;
  while (env_.shuffle->NextItem(reducer_id_, &item)) {
    auto stream = OpenShuffleItem(item, shuffle_read);
    {
      PhaseScope cpu(env_.profiler, "hash_group");
      while (stream->Next()) {
        if (env_.fault != nullptr) env_.fault->OnReduceFold(++folded_);
        store_.Fold(stream->key(), stream->value());
      }
    }
    if (ckpt_ != nullptr) {
      // Checkpoints land on item boundaries: the watermark names the last
      // fully-folded consume ordinal, so a restore replays whole items.
      watermark = item.ordinal;
      feed_records_[static_cast<std::uint32_t>(item.map_task)] += item.records;
      ckpt_->OnProgress(item.records, item.size_bytes());
      if (ckpt_->Due()) WriteCheckpoint(watermark);
    }
  }
  env_.timeline->Record(TaskKind::kShuffle, shuffle_begin,
                        env_.job_start->Seconds());

  const double reduce_begin = env_.job_start->Seconds();
  {
    PhaseScope cpu(env_.profiler, "reduce_function");
    if (options_.hash_reduce == HashReduce::kHotKeyIncremental &&
        store_.spilled()) {
      // Early (approximate) answers for hot keys, available before any
      // cold-file pass — the paper's "return (approximate) results for
      // these keys as early as when all the input data has arrived".
      ReducerOutput early(env_, spec_.output_file + ".early.part" +
                                    std::to_string(reducer_id_));
      std::string approx_value;
      const KeyTable& table = store_.table();
      for (std::size_t i = 0; i < table.size(); ++i) {
        spec_.aggregator->Finalize(table.state(i), &approx_value);
        early.Emit(table.key(i), approx_value);
      }
      early.Close();
    }
    // Checkpointed runs route emissions through a sort so output bytes do
    // not depend on hash iteration order — a recovered attempt's output is
    // byte-identical to a clean run's.
    BufferingCollector sorted;
    OutputCollector& sink =
        ckpt_ != nullptr ? static_cast<OutputCollector&>(sorted) : *out_;
    store_.Finish([&](Slice key, Slice value) { sink.Emit(key, value); });
    if (ckpt_ != nullptr) sorted.DrainSorted(*out_);
  }
  out_->Close();
  env_.timeline->Record(TaskKind::kReduce, reduce_begin,
                        env_.job_start->Seconds());
  return out_->records();
}

}  // namespace opmr
