#include "engine/reduce_common.h"

#include <stdexcept>

#include "engine/aggregators.h"

namespace opmr {

namespace {

// The group identity of a key: the whole key, or its grouping prefix.
Slice GroupOf(Slice key, std::size_t group_prefix) {
  if (group_prefix == 0 || key.size() <= group_prefix) return key;
  return {key.data(), group_prefix};
}

// ValueIterator over one group of a sorted stream.  The first value is the
// stream's current record; each subsequent Next() advances the stream and
// stops at a group change (leaving the stream positioned on the next
// group's first record) or at end of stream.
class GroupValueIterator final : public ValueIterator {
 public:
  GroupValueIterator(RecordStream& stream, Slice group_key,
                     std::size_t group_prefix, bool* exhausted,
                     bool* next_group_pending)
      : stream_(stream),
        group_key_(group_key),
        group_prefix_(group_prefix),
        exhausted_(exhausted),
        next_group_pending_(next_group_pending) {}

  bool Next(Slice* value) override {
    if (*next_group_pending_ || *exhausted_) return false;
    if (first_) {
      first_ = false;
      *value = stream_.value();
      return true;
    }
    if (!stream_.Next()) {
      *exhausted_ = true;
      return false;
    }
    if (GroupOf(stream_.key(), group_prefix_) != group_key_) {
      *next_group_pending_ = true;
      return false;
    }
    *value = stream_.value();
    return true;
  }

 private:
  RecordStream& stream_;
  Slice group_key_;
  std::size_t group_prefix_;
  bool* exhausted_;
  bool* next_group_pending_;
  bool first_ = true;
};

}  // namespace

void GroupedApply(RecordStream& stream,
                  const std::function<void(Slice, ValueIterator&)>& fn,
                  std::size_t group_prefix) {
  if (!stream.Next()) return;
  bool exhausted = false;
  while (!exhausted) {
    // Copy the full first key (the reduce key) and derive the group
    // identity; the stream's buffer is reused as the group is drained.
    const std::string key(stream.key().view());
    const Slice group = GroupOf(key, group_prefix);
    bool next_group_pending = false;
    GroupValueIterator values(stream, group, group_prefix, &exhausted,
                              &next_group_pending);
    fn(key, values);
    // Skip whatever part of the group fn did not consume.
    Slice unused;
    while (!exhausted && !next_group_pending && values.Next(&unused)) {
    }
    if (exhausted) break;
    if (!next_group_pending) {
      // Stream ended exactly at the group boundary inside the drain loop.
      break;
    }
  }
}

std::function<void(Slice, ValueIterator&, OutputCollector&)> MakeReduceFn(
    const JobSpec& spec, bool values_are_states) {
  if (spec.reduce) return spec.reduce;
  if (!spec.has_aggregator()) {
    throw std::invalid_argument("JobSpec needs a reduce fn or an aggregator");
  }
  const Aggregator* agg = spec.aggregator.get();
  return [agg, values_are_states](Slice key, ValueIterator& values,
                                  OutputCollector& out) {
    std::string state;
    if (FoldGroup(*agg, values, values_are_states, &state)) {
      std::string final_value;
      agg->Finalize(state, &final_value);
      out.Emit(key, final_value);
    }
  };
}

std::unique_ptr<RecordSink> NewSpillSink(bool compress,
                                         const std::filesystem::path& path,
                                         IoChannel channel) {
  if (compress) return std::make_unique<CompressedRunWriter>(path, channel);
  return std::make_unique<RunWriter>(path, channel);
}

std::unique_ptr<RecordStream> OpenSpillRun(bool compress,
                                           const std::filesystem::path& path,
                                           IoChannel channel) {
  if (compress) return std::make_unique<CompressedRunReader>(path, channel);
  return std::make_unique<RunReader>(path, channel);
}

std::unique_ptr<RecordStream> OpenShuffleItem(const ShuffleItem& item,
                                              IoChannel channel) {
  if (!item.from_file) {
    return std::make_unique<MemoryRunStream>(Slice(item.bytes));
  }
  auto reader = std::make_unique<RunReader>(item.path, channel);
  reader->Restrict(item.segment.offset, item.segment.bytes);
  return reader;
}

}  // namespace opmr
