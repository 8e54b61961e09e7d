// The one per-key table of the hash paths: the map-side combine, the
// incremental state store (batch reducers, stream workers) and hybrid-hash
// grouping keep their keys here.  Paper §V hashes each record once and
// folds it in place, over byte-array memory with no per-record heap
// objects (Fig. 5).
//
// A u32 slot array (linear probing, load at most 1/2) indexes dense
// 40-byte entries in insertion order.  An entry holds the key's hash, its
// first 8 bytes as a word, its length and partition, its bytes in the
// arena and an 8-byte payload: the state itself for u64 aggregators
// (Aggregator::u64_fold(), folded inline with no virtual call).  Other
// aggregators keep a std::string state, and value-list tables (holistic
// reduce) a std::vector<Slice>, in a side vector parallel to the entries.
// Extract deletes by backward shift and moves the last entry into the
// hole.  Owned by one thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/slice.h"
#include "engine/job.h"

namespace opmr {

class KeyTable {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  // Aggregator states.  Throws std::invalid_argument on a null aggregator
  // or a slot count that is not a power of two.
  explicit KeyTable(const Aggregator* aggregator,
                    std::size_t initial_slots = 16);
  // A table of value lists (Add only).
  KeyTable() = default;

  // Folds `value` into the state of (partition, key): Init, then Update;
  // with `value_is_state`, a copy, then Merge.  Returns the entry index.
  // `hash` must be one function of the key for all calls on a table; the
  // overloads without it use BytesHash(key), as Find and Extract do.
  std::size_t Fold(std::uint32_t partition, std::uint64_t hash, Slice key,
                   Slice value, bool value_is_state);
  std::size_t Fold(std::uint32_t partition, Slice key, Slice value,
                   bool value_is_state) {
    return Fold(partition, BytesHash(key), key, value, value_is_state);
  }
  std::size_t Fold(Slice key, Slice value, bool value_is_state) {
    return Fold(0, key, value, value_is_state);
  }

  // Appends a copy of `value` to `key`'s list (value-list tables).
  void Add(Slice key, Slice value);

  // The entry index of `key` in partition 0, or npos.
  [[nodiscard]] std::size_t Find(Slice key) const;

  // Removes `key` (partition 0) from an aggregator table, moving its state
  // into `state` and its mark into `marked` (when given); false if absent.
  // Once extracted keys fill half the arena (and one chunk), the live keys
  // move to a fresh arena, so the arena stays bounded.
  bool Extract(Slice key, std::string* state, bool* marked = nullptr);

  // Entries are indexed 0..size()-1 in insertion order.  Slices stay valid
  // until the next mutating call.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] Slice key(std::size_t i) const noexcept {
    return {entries_[i].key, entries_[i].len};
  }
  [[nodiscard]] std::uint32_t partition(std::size_t i) const noexcept {
    return entries_[i].partition;
  }
  [[nodiscard]] Slice state(std::size_t i) const noexcept {
    if (fold_ != Aggregator::U64Fold::kNone) {
      // EncodeU64 is the native byte image, so the payload is the state.
      return {reinterpret_cast<const char*>(&entries_[i].payload),
              sizeof(std::uint64_t)};
    }
    return states_[i];
  }
  [[nodiscard]] const std::vector<Slice>& values(std::size_t i) const noexcept {
    return lists_[i];
  }
  // One caller-defined bit per entry (the store's early-answer mark).
  [[nodiscard]] bool marked(std::size_t i) const noexcept {
    return entries_[i].marked != 0;
  }
  void Mark(std::size_t i) noexcept { entries_[i].marked = 1; }

  // Entry indices by ascending partition, in insertion order within one.
  [[nodiscard]] std::vector<std::uint32_t> ByPartition() const;

  // The slot array, one Entry per key, the key bytes and each side state's
  // or list's bytes (header, heap capacity, copied values).  Not charged:
  // spare entry-vector capacity, the arena's unused tail and the arena
  // bytes of extracted keys not yet compacted away.  An emptied table frees
  // its storage, so this reads 0 whenever the table is empty.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return bytes_ + slots_.size() * sizeof(std::uint32_t);
  }
  // The arena's reserved bytes, extracted keys and unused tail included.
  [[nodiscard]] std::size_t ArenaBytes() const noexcept {
    return arena_.allocated_bytes();
  }

  void Clear();

 private:
  struct Entry {
    std::uint64_t hash;     // the key's hash, mixed with the partition
    std::uint64_t word;     // the key's first 8 bytes, zero-padded
    const char* key;        // arena
    std::uint64_t payload;  // the u64 state (fast path only)
    std::uint32_t partition;
    std::uint32_t len : 31;
    std::uint32_t marked : 1;
  };
  static_assert(sizeof(Entry) == 40);

  // The partition is part of the identity, so any partitioner is correct.
  static std::uint64_t Mix(std::uint64_t hash, std::uint32_t partition) {
    return hash ^ (partition * 0x9e3779b97f4a7c15ULL);
  }
  static std::uint64_t Word(Slice key) noexcept {
    return key.size() >= 8 ? detail::Load64(key.data(), 8)
                           : detail::LoadTail(key.data(), key.size());
  }
  // The slot holding (partition, key), or the empty slot ending its probe
  // sequence.  Needs a non-empty slot array.  SlotOf uses partition 0.
  [[nodiscard]] std::size_t Probe(std::uint64_t h, std::uint32_t partition,
                                  Slice key, std::uint64_t word) const;
  [[nodiscard]] std::size_t SlotOf(Slice key) const;
  // Doubles the slot array when one more entry would pass load 1/2.
  void Reserve();
  // Appends an entry for a key known to be absent, at empty slot `pos`.
  std::size_t Insert(std::size_t pos, std::uint64_t h, std::uint32_t partition,
                     Slice key, std::uint64_t word, std::uint64_t payload);
  // Backward-shift deletion of the slot at `hole`.
  void EraseSlot(std::size_t hole);
  // Copies the live keys into a fresh arena, dropping extracted ones.
  void CompactKeys();

  static constexpr std::size_t kArenaChunk = 64u << 10;

  const Aggregator* aggregator_ = nullptr;
  Aggregator::U64Fold fold_ = Aggregator::U64Fold::kNone;
  std::size_t initial_slots_ = 16;
  Arena arena_{kArenaChunk};
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::vector<Entry> entries_;
  std::vector<std::string> states_;        // generic aggregator states
  std::vector<std::vector<Slice>> lists_;  // value lists, values in arena_
  std::size_t bytes_ = 0;                  // MemoryBytes() minus the slots
  std::size_t dead_key_bytes_ = 0;         // arena bytes of extracted keys
};

}  // namespace opmr
