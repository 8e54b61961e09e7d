#include "engine/key_table.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "engine/aggregators.h"

namespace opmr {

namespace {

// Heap bytes behind a string: none while it fits the inline buffer.
std::size_t HeapBytes(const std::string& s) noexcept {
  static const std::size_t kInline = std::string().capacity();
  return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

}  // namespace

KeyTable::KeyTable(const Aggregator* aggregator, std::size_t initial_slots)
    : aggregator_(aggregator), initial_slots_(initial_slots) {
  if (aggregator_ == nullptr) {
    throw std::invalid_argument("KeyTable requires an aggregator");
  }
  if (initial_slots == 0 || (initial_slots & (initial_slots - 1)) != 0) {
    throw std::invalid_argument("KeyTable: slots must be a power of 2");
  }
  fold_ = aggregator_->u64_fold();
}

std::size_t KeyTable::Probe(std::uint64_t h, std::uint32_t partition,
                            Slice key, std::uint64_t word) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t pos = h & mask;
  while (true) {
    const std::uint32_t idx = slots_[pos];
    if (idx == 0) return pos;
    const Entry& e = entries_[idx - 1];
    if (e.hash == h && e.word == word && e.len == key.size() &&
        e.partition == partition &&
        (key.size() <= 8 ||
         std::memcmp(e.key + 8, key.data() + 8, key.size() - 8) == 0)) {
      return pos;
    }
    pos = (pos + 1) & mask;
  }
}

void KeyTable::Reserve() {
  if ((entries_.size() + 1) * 2 <= slots_.size()) return;
  std::vector<std::uint32_t> bigger(
      std::max(initial_slots_, slots_.size() * 2), 0);
  const std::size_t mask = bigger.size() - 1;
  for (std::uint32_t idx : slots_) {
    if (idx == 0) continue;
    std::size_t pos = entries_[idx - 1].hash & mask;
    while (bigger[pos] != 0) pos = (pos + 1) & mask;
    bigger[pos] = idx;
  }
  slots_ = std::move(bigger);
}

std::size_t KeyTable::Insert(std::size_t pos, std::uint64_t h,
                             std::uint32_t partition, Slice key,
                             std::uint64_t word, std::uint64_t payload) {
  entries_.push_back({h, word, arena_.Copy(key).data(), payload, partition,
                      static_cast<std::uint32_t>(key.size()), 0});
  slots_[pos] = static_cast<std::uint32_t>(entries_.size());
  bytes_ += sizeof(Entry) + key.size();
  return entries_.size() - 1;
}

std::size_t KeyTable::Fold(std::uint32_t partition, std::uint64_t hash,
                           Slice key, Slice value, bool value_is_state) {
  Reserve();
  const std::uint64_t h = Mix(hash, partition);
  const std::uint64_t word = Word(key);
  const std::size_t pos = Probe(h, partition, key, word);
  const std::uint32_t idx = slots_[pos];

  if (fold_ != Aggregator::U64Fold::kNone) {
    // States and values are one u64, and Merge is Update.
    const std::uint64_t v = DecodeValueU64(value);
    if (idx == 0) return Insert(pos, h, partition, key, word, v);
    Entry& e = entries_[idx - 1];
    e.payload = ApplyU64Fold(fold_, e.payload, v);
    return idx - 1;
  }

  if (idx != 0) {
    std::string& state = states_[idx - 1];
    const std::size_t before = HeapBytes(state);
    if (value_is_state) {
      aggregator_->Merge(&state, value);
    } else {
      aggregator_->Update(&state, value);
    }
    bytes_ += HeapBytes(state) - before;
    return idx - 1;
  }
  // Lift the value before inserting, so a throwing Init leaves no entry.
  std::string state;
  if (value_is_state) {
    state.assign(value.data(), value.size());
  } else {
    aggregator_->Init(value, &state);
  }
  const std::size_t i = Insert(pos, h, partition, key, word, 0);
  bytes_ += sizeof(std::string) + HeapBytes(state);
  states_.push_back(std::move(state));
  return i;
}

void KeyTable::Add(Slice key, Slice value) {
  Reserve();
  const std::uint64_t h = BytesHash(key);
  const std::uint64_t word = Word(key);
  const std::size_t pos = Probe(h, 0, key, word);
  std::size_t i = slots_[pos];
  if (i == 0) {
    i = Insert(pos, h, 0, key, word, 0);
    lists_.emplace_back();
    bytes_ += sizeof(std::vector<Slice>);
  } else {
    --i;
  }
  std::vector<Slice>& list = lists_[i];
  const std::size_t capacity = list.capacity();
  list.push_back(arena_.Copy(value));
  bytes_ += (list.capacity() - capacity) * sizeof(Slice) + value.size();
}

std::size_t KeyTable::SlotOf(Slice key) const {
  return Probe(Mix(BytesHash(key), 0), 0, key, Word(key));
}

std::size_t KeyTable::Find(Slice key) const {
  if (entries_.empty()) return npos;
  const std::uint32_t idx = slots_[SlotOf(key)];
  return idx == 0 ? npos : idx - 1;
}

void KeyTable::EraseSlot(std::size_t hole) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; slots_[next] != 0;
       next = (next + 1) & mask) {
    // The entry at `next` may fill the hole unless its home slot lies
    // cyclically in (hole, next].
    const std::size_t home = entries_[slots_[next] - 1].hash & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = 0;
}

bool KeyTable::Extract(Slice key, std::string* state, bool* marked) {
  if (aggregator_ == nullptr) {
    throw std::logic_error("KeyTable::Extract on a value-list table");
  }
  if (entries_.empty()) return false;
  const std::size_t pos = SlotOf(key);
  if (slots_[pos] == 0) return false;
  const std::size_t i = slots_[pos] - 1;
  Entry& e = entries_[i];
  if (marked != nullptr) *marked = e.marked != 0;
  bytes_ -= sizeof(Entry) + e.len;
  dead_key_bytes_ += e.len;
  if (fold_ != Aggregator::U64Fold::kNone) {
    *state = EncodeValueU64(e.payload);
  } else {
    bytes_ -= sizeof(std::string) + HeapBytes(states_[i]);
    *state = std::move(states_[i]);
  }
  EraseSlot(pos);

  // Swap-remove: the last entry moves into the hole, and its slot follows.
  const std::size_t last = entries_.size() - 1;
  if (i != last) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t p = entries_[last].hash & mask;
    while (slots_[p] != last + 1) p = (p + 1) & mask;
    slots_[p] = static_cast<std::uint32_t>(i + 1);
    entries_[i] = entries_[last];
    if (fold_ == Aggregator::U64Fold::kNone) {
      states_[i] = std::move(states_[last]);
    }
  }
  entries_.pop_back();
  if (fold_ == Aggregator::U64Fold::kNone) states_.pop_back();
  if (entries_.empty()) {
    Clear();
  } else if (dead_key_bytes_ > kArenaChunk &&
             dead_key_bytes_ * 2 > arena_.used_bytes()) {
    // Copying the live keys costs no more than the dead bytes it frees.
    CompactKeys();
  }
  return true;
}

void KeyTable::CompactKeys() {
  Arena fresh(kArenaChunk);
  for (Entry& e : entries_) e.key = fresh.Copy({e.key, e.len}).data();
  arena_ = std::move(fresh);
  dead_key_bytes_ = 0;
}

std::vector<std::uint32_t> KeyTable::ByPartition() const {
  std::vector<std::uint32_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return entries_[a].partition < entries_[b].partition;
                   });
  return order;
}

void KeyTable::Clear() {
  // Free the storage rather than keep it, so an empty table holds nothing.
  slots_ = {};
  entries_ = {};
  states_ = {};
  lists_ = {};
  arena_.Reset();
  bytes_ = 0;
  dead_key_bytes_ = 0;
}

}  // namespace opmr
