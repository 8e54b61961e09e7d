#include "engine/map_output.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace opmr {

namespace {

// Radix digit d of an entry's (partition, prefix) sort key, least
// significant first: digits 0-7 are the prefix's bytes, 8-11 the
// partition's.
inline std::uint8_t Digit(const MapOutputBuffer::Entry& e, int d) noexcept {
  return static_cast<std::uint8_t>(d < 8 ? e.prefix >> (8 * d)
                                         : e.partition >> (8 * (d - 8)));
}

}  // namespace

char* MapOutputBuffer::AllocateSlow(std::size_t bytes, std::uint32_t* ref) {
  if (chunks_.size() >= (std::size_t{1} << (32 - kChunkShift))) {
    throw std::length_error("MapOutputBuffer: more than 4 GiB of records");
  }
  const std::size_t index = chunks_.size();
  chunks_.push_back(
      std::make_unique_for_overwrite<char[]>(std::max(bytes, kChunkBytes)));
  *ref = static_cast<std::uint32_t>(index << kChunkShift);
  if (bytes <= kChunkBytes) {
    open_ = index;
    used_ = bytes;
  }
  return chunks_[index].get();
}

void MapOutputBuffer::Sort() {
  const std::size_t n = entries_.size();
  if (n < 2) return;

  // Stable LSD radix sort on (partition, prefix), one byte per pass; a
  // byte on which every entry agrees needs no pass.
  std::array<std::array<std::uint32_t, 256>, 12> counts{};
  for (const Entry& e : entries_) {
    for (int d = 0; d < 12; ++d) ++counts[d][Digit(e, d)];
  }
  std::vector<Entry> scratch;
  for (int d = 0; d < 12; ++d) {
    auto& count = counts[d];
    if (count[Digit(entries_[0], d)] == n) continue;
    if (scratch.empty()) scratch.resize(n);
    std::uint32_t offset = 0;
    for (auto& c : count) offset += std::exchange(c, offset);
    for (const Entry& e : entries_) scratch[count[Digit(e, d)]++] = e;
    entries_.swap(scratch);
  }
  // Equal (partition, prefix) means equal keys when every key has one
  // length of at most 8 bytes: then nothing past the prefix needs a look.
  if (min_key_len_ != max_key_len_ || max_key_len_ > 8) SortPrefixTies();
}

void MapOutputBuffer::SortPrefixTies() {
  // Key order inside a run: the bytes past the prefix, then length.
  const auto tail_less = [this](const Entry& a, const Entry& b) {
    const Slice ka = Key(a);
    const Slice kb = Key(b);
    const std::size_t min_len = std::min(ka.size(), kb.size());
    if (min_len > 8) {
      const int c = std::memcmp(ka.data() + 8, kb.data() + 8, min_len - 8);
      if (c != 0) return c < 0;
    }
    return ka.size() < kb.size();
  };
  auto run = entries_.begin();
  while (run != entries_.end()) {
    auto end = run + 1;
    while (end != entries_.end() && end->prefix == run->prefix &&
           end->partition == run->partition) {
      ++end;
    }
    // A run's keys share their first min(8, length) bytes, so they can
    // differ only if some key is longer than 8 bytes or two lengths differ.
    if (end - run > 1) {
      const std::size_t len = Key(*run).size();
      const bool may_differ =
          len > 8 || std::any_of(run + 1, end, [&](const Entry& e) {
            return Key(e).size() != len;
          });
      if (may_differ) std::stable_sort(run, end, tail_less);
    }
    run = end;
  }
}

}  // namespace opmr
