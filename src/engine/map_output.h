// Map-side output structures of the sort path.  (The hash path with a
// combiner folds into a KeyTable, engine/key_table.h.)
//
// MapOutputBuffer: records land framed in 1 MiB chunks, a 16-byte sort entry
// per record in a flat vector; a stable radix sort on the compound
// (partition, key) achieves partitioning + per-partition order in one pass
// (paper §II-A).  This sort is the CPU overhead Table II exposes.  Owned by
// one map-task thread.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

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
  // 16 bytes: the sort moves these, never the record bytes.  `prefix` holds
  // the key's first 8 bytes big-endian (zero-padded), so most of the order
  // is decided on (partition, prefix) without touching the chunks; `ref`
  // locates the record's frame (see Frame()).
  struct Entry {
    std::uint64_t prefix;
    std::uint32_t partition;
    std::uint32_t ref;  // chunk index << kChunkShift | offset in the chunk
  };

  // Records are framed [u32 klen][u32 vlen][key][value] — the spill and run
  // file frame — in 1 MiB chunks; a larger record gets a chunk of its own.
  static constexpr unsigned kChunkShift = 20;
  static constexpr std::size_t kChunkBytes = std::size_t{1} << kChunkShift;

  MapOutputBuffer() = default;

  void Add(std::uint32_t partition, Slice key, Slice value) {
    const std::size_t bytes = 8 + key.size() + value.size();
    std::uint32_t ref;
    char* dst;
    if (bytes <= kChunkBytes - used_) {
      ref = static_cast<std::uint32_t>(open_ << kChunkShift | used_);
      dst = chunks_[open_].get() + used_;
      used_ += bytes;
    } else {
      dst = AllocateSlow(bytes, &ref);
    }
    EncodeU32(dst, static_cast<std::uint32_t>(key.size()));
    EncodeU32(dst + 4, static_cast<std::uint32_t>(value.size()));
    std::memcpy(dst + 8, key.data(), key.size());
    std::memcpy(dst + 8 + key.size(), value.data(), value.size());
    entries_.push_back(
        {KeyPrefix(Slice(dst + 8, key.size()), bytes - 8), partition, ref});
    payload_bytes_ += bytes;
    min_key_len_ = std::min(min_key_len_, key.size());
    max_key_len_ = std::max(max_key_len_, key.size());
  }

  // Approximate peak bytes: the frames, plus per record its entry and the
  // entry's share of the sort's scratch array.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    return payload_bytes_ + entries_.size() * 2 * sizeof(Entry);
  }
  [[nodiscard]] std::size_t NumRecords() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] bool Empty() const noexcept { return entries_.empty(); }

  // Hadoop's block-level sort on the compound (partition, key), keys in
  // bytewise order (shorter first on a shared prefix).  Stable: records
  // with equal keys keep the order they were added in.  The caller
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

  // Entries in current order (call Sort() first for partition/key order).
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

  // An entry's record: its whole frame, its key and its value.  Valid until
  // Clear().
  [[nodiscard]] Slice Frame(const Entry& e) const noexcept {
    const char* frame = FrameAt(e);
    return {frame, 8 + std::size_t{DecodeU32(frame)} + DecodeU32(frame + 4)};
  }
  [[nodiscard]] Slice Key(const Entry& e) const noexcept {
    const char* frame = FrameAt(e);
    return {frame + 8, DecodeU32(frame)};
  }
  [[nodiscard]] Slice Value(const Entry& e) const noexcept {
    const char* frame = FrameAt(e);
    return {frame + 8 + DecodeU32(frame), DecodeU32(frame + 4)};
  }

  void Clear() {
    entries_.clear();
    chunks_.clear();
    open_ = 0;
    used_ = kChunkBytes;
    payload_bytes_ = 0;
    min_key_len_ = ~std::size_t{0};
    max_key_len_ = 0;
  }

 private:
  // Room for a record of `bytes` that does not fit the open chunk: a fresh
  // open chunk, or a chunk of its own when it is larger than kChunkBytes.
  char* AllocateSlow(std::size_t bytes, std::uint32_t* ref);
  [[nodiscard]] const char* FrameAt(const Entry& e) const noexcept {
    return chunks_[e.ref >> kChunkShift].get() + (e.ref & (kChunkBytes - 1));
  }
  // Sorts each run of entries with equal (partition, prefix) by full key.
  void SortPrefixTies();

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t open_ = 0;            // the chunk small records fill
  std::size_t used_ = kChunkBytes;  // bytes used in chunks_[open_]
  std::vector<Entry> entries_;
  std::size_t payload_bytes_ = 0;
  std::size_t min_key_len_ = ~std::size_t{0};
  std::size_t max_key_len_ = 0;
};

// MemoryBytes() and so the spill points depend on this size.
static_assert(sizeof(MapOutputBuffer::Entry) == 16);

}  // namespace opmr
