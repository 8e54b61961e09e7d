// Map-side output structures of the sort path.  (The hash path with a
// combiner folds into a KeyTable, engine/key_table.h.)
//
// MapOutputBuffer: key/value bytes land in an arena, record metadata in a
// flat vector; a buffer sort on the compound (partition, key) achieves
// partitioning + per-partition order in one pass (paper §II-A).  This sort
// is the CPU overhead Table II exposes.  Owned by one map-task thread.
#pragma once

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/slice.h"
#include "engine/job.h"

namespace opmr {

// One partition's contiguous byte range inside a map-output spill file.
struct Segment {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

// A completed spill file of one map task: R contiguous partition segments.
struct MapOutputFile {
  int map_task = -1;
  std::filesystem::path path;
  bool sorted = false;  // segments internally sorted by key (sort-merge path)
  std::vector<Segment> partitions;
};

// --- Sort path ---------------------------------------------------------------

class MapOutputBuffer {
 public:
  // 32 bytes: the sort moves these, never the arena bytes.  `prefix` holds
  // the key's first 8 bytes big-endian (zero-padded), so most comparisons
  // decide on (partition, prefix) without touching the arena.
  struct RecordMeta {
    std::uint32_t partition;
    std::uint32_t key_len;
    std::uint32_t value_len;
    std::uint64_t prefix;
    const char* key;  // into the arena; stable; the value follows the key

    [[nodiscard]] const char* value() const noexcept { return key + key_len; }
  };

  MapOutputBuffer() = default;

  void Add(std::uint32_t partition, Slice key, Slice value) {
    const std::size_t bytes = key.size() + value.size();
    char* dst = arena_.Allocate(bytes);
    std::memcpy(dst, key.data(), key.size());
    std::memcpy(dst + key.size(), value.data(), value.size());
    records_.push_back({partition, static_cast<std::uint32_t>(key.size()),
                        static_cast<std::uint32_t>(value.size()),
                        KeyPrefix(Slice(dst, key.size()), bytes), dst});
    payload_bytes_ += bytes;
  }

  // Approximate resident bytes: payload + metadata.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return payload_bytes_ + records_.size() * sizeof(RecordMeta);
  }
  [[nodiscard]] std::size_t NumRecords() const noexcept {
    return records_.size();
  }
  [[nodiscard]] bool Empty() const noexcept { return records_.empty(); }

  // Hadoop's block-level sort on the compound (partition, key), keys in
  // bytewise order (shorter first on a shared prefix).  The caller
  // brackets this in the "map_sort" profiling phase — this is the CPU cost
  // Table II attributes to sorting.
  void Sort();

  // The first 8 bytes of `key` as a big-endian integer, zero-padded: equal
  // keys have equal prefixes, and unequal prefixes order as the keys do.
  // `readable` bytes starting at key.data() may be read (>= key.size());
  // with 8 or more, one load and a mask replace the tail loads.
  static std::uint64_t KeyPrefix(Slice key, std::size_t readable) noexcept {
    const std::size_t n = key.size() < 8 ? key.size() : 8;
    std::uint64_t word = readable < 8 ? detail::LoadTail(key.data(), n)
                                      : detail::Load64(key.data(), 8);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return n == 8 ? word : word & ~(~std::uint64_t{0} >> (8 * n));
  }

  // Records in current order (call Sort() first for partition/key order).
  [[nodiscard]] const std::vector<RecordMeta>& records() const noexcept {
    return records_;
  }

  void Clear() {
    records_.clear();
    arena_.Reset();
    payload_bytes_ = 0;
  }

 private:
  Arena arena_;
  std::vector<RecordMeta> records_;
  std::size_t payload_bytes_ = 0;
};

// MemoryBytes() and so the spill points depend on this size.
static_assert(sizeof(MapOutputBuffer::RecordMeta) == 32);

}  // namespace opmr
