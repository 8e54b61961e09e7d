#include "engine/map_output.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace opmr {

void MapOutputBuffer::Sort() {
  std::sort(records_.begin(), records_.end(),
            [](const RecordMeta& a, const RecordMeta& b) {
              if (a.partition != b.partition) return a.partition < b.partition;
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              // Equal prefixes: the first min(8, min_len) bytes agree.
              const std::uint32_t min_len = std::min(a.key_len, b.key_len);
              if (min_len > 8) {
                const int c = std::memcmp(a.key + 8, b.key + 8, min_len - 8);
                if (c != 0) return c < 0;
              }
              return a.key_len < b.key_len;
            });
}

MapCombineTable::MapCombineTable(const Aggregator* aggregator,
                                 std::size_t initial_slots)
    : aggregator_(aggregator), slots_(initial_slots, 0) {
  if (aggregator_ == nullptr) {
    throw std::invalid_argument("MapCombineTable requires an aggregator");
  }
  if ((initial_slots & (initial_slots - 1)) != 0) {
    throw std::invalid_argument("MapCombineTable: slots must be a power of 2");
  }
}

void MapCombineTable::Grow() {
  std::vector<std::uint32_t> bigger(slots_.size() * 2, 0);
  const std::size_t mask = bigger.size() - 1;
  for (std::uint32_t idx : slots_) {
    if (idx == 0) continue;
    std::size_t pos = entries_[idx - 1].hash & mask;
    while (bigger[pos] != 0) pos = (pos + 1) & mask;
    bigger[pos] = idx;
  }
  slots_ = std::move(bigger);
}

void MapCombineTable::Fold(std::uint32_t partition, Slice key, Slice value,
                           bool value_is_state) {
  Fold(partition, BytesHash(key), key, value, value_is_state);
}

void MapCombineTable::Fold(std::uint32_t partition, std::uint64_t key_hash,
                           Slice key, Slice value, bool value_is_state) {
  if ((entries_.size() + 1) * 2 > slots_.size()) Grow();

  // Partition participates in identity: the same key never crosses
  // partitions (partition is a function of the key), but folding it into
  // the hash costs nothing and keeps the table correct for any partitioner.
  const std::uint64_t h = key_hash ^ (partition * 0x9e3779b97f4a7c15ULL);
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = h & mask;
  while (true) {
    ++probes_;
    const std::uint32_t idx = slots_[pos];
    if (idx == 0) break;
    Entry& e = entries_[idx - 1];
    if (e.hash == h && e.partition == partition && e.key == key) {
      const std::size_t before = e.state.size();
      if (value_is_state) {
        aggregator_->Merge(&e.state, value);
      } else {
        aggregator_->Update(&e.state, value);
      }
      state_bytes_ += e.state.size() - before;
      return;
    }
    pos = (pos + 1) & mask;
  }

  Entry e;
  e.hash = h;
  e.partition = partition;
  e.key = arena_.Copy(key);
  if (value_is_state) {
    e.state.assign(value.data(), value.size());
  } else {
    aggregator_->Init(value, &e.state);
  }
  state_bytes_ += e.state.size();
  entries_.push_back(std::move(e));
  slots_[pos] = static_cast<std::uint32_t>(entries_.size());
}

std::vector<const MapCombineTable::Entry*>
MapCombineTable::EntriesByPartition() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(&e);
  std::stable_sort(out.begin(), out.end(), [](const Entry* a, const Entry* b) {
    return a->partition < b->partition;
  });
  return out;
}

void MapCombineTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), 0);
  entries_.clear();
  arena_.Reset();
  state_bytes_ = 0;
}

}  // namespace opmr
