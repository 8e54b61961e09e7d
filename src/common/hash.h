// Hash-function library (paper Fig. 5).
//
// The hash-based runtimes need families of pair-wise independent hash
// functions: the hybrid-hash reducer must re-hash recursively with fresh
// functions per level, and the frequent-items sketches assume independence
// between the partitioning hash and the sketch hash.  We provide:
//
//   * BytesHash     — fast 64-bit mixing hash for raw byte strings
//                     (xxHash-style avalanche; the workhorse partitioner).
//   * MultiplyShift — the classic 2-universal multiply-shift family over
//                     64-bit words, seeded per instance.
//   * TabulationHash— 3-independent simple tabulation over bytes.
//   * HashFamily    — indexed generator of independent functions so each
//                     recursion level / component draws its own member.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "common/slice.h"

namespace opmr {

namespace detail {
constexpr std::uint64_t kMix1 = 0xff51afd7ed558ccdULL;
constexpr std::uint64_t kMix2 = 0xc4ceb9fe1a85ec53ULL;

inline std::uint64_t Mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= kMix1;
  x ^= x >> 33;
  x *= kMix2;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t Load64(const char* p, std::size_t n) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, n);
  return v;
}

// The n < 8 bytes at p as one word, zero-padded: the value of Load64(p, n),
// read with at most three fixed-width loads instead of a variable-length
// copy.  Two overlapping 4-byte loads cover 4..7 bytes; the first, middle
// and last byte cover 1..3.
inline std::uint64_t LoadTail(const char* p, std::size_t n) noexcept {
  if constexpr (std::endian::native != std::endian::little) {
    return Load64(p, n);
  }
  if (n >= 4) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    return lo | (std::uint64_t{hi} << (8 * (n - 4)));
  }
  if (n == 0) return 0;
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return std::uint64_t{u[0]} | (std::uint64_t{u[n / 2]} << (8 * (n / 2))) |
         (std::uint64_t{u[n - 1]} << (8 * (n - 1)));
}
}  // namespace detail

// Seeded byte-string hash with full 64-bit avalanche.  Distinct seeds give
// (empirically) independent functions; we verify low collision correlation
// in the property tests.
inline std::uint64_t BytesHash(Slice s, std::uint64_t seed = 0) noexcept {
  std::uint64_t h = seed ^ (0x9e3779b97f4a7c15ULL + s.size());
  const char* p = s.data();
  std::size_t n = s.size();
  while (n >= 8) {
    h = detail::Mix64(h ^ detail::Load64(p, 8));
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    h = detail::Mix64(h ^ detail::LoadTail(p, n));
  }
  return detail::Mix64(h);
}

// 2-universal multiply-shift family over 64-bit inputs:
//   h_{a,b}(x) = ((a*x + b) >> (64 - out_bits)) for odd a.
class MultiplyShift {
 public:
  MultiplyShift(std::uint64_t a, std::uint64_t b, unsigned out_bits) noexcept
      : a_(a | 1), b_(b), shift_(64u - out_bits) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept {
    return (a_ * x + b_) >> shift_;
  }

 private:
  std::uint64_t a_;
  std::uint64_t b_;
  unsigned shift_;
};

// 3-independent simple tabulation hashing over byte strings.  Tables are
// filled from a seeded SplitMix64 stream.  Strings longer than kMaxLanes
// bytes are first compressed with BytesHash and then tabulated, preserving
// the independence of the outer family.
class TabulationHash {
 public:
  static constexpr std::size_t kMaxLanes = 8;

  explicit TabulationHash(std::uint64_t seed) noexcept {
    std::uint64_t state = seed;
    auto next = [&state]() noexcept {
      state += 0x9e3779b97f4a7c15ULL;
      return detail::Mix64(state);
    };
    for (auto& lane : tables_) {
      for (auto& entry : lane) entry = next();
    }
  }

  [[nodiscard]] std::uint64_t operator()(Slice s) const noexcept {
    std::uint64_t word;
    if (s.size() <= kMaxLanes) {
      word = detail::Load64(s.data(), s.size()) ^
             (static_cast<std::uint64_t>(s.size()) << 56);
    } else {
      word = BytesHash(s);
    }
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < kMaxLanes; ++i) {
      h ^= tables_[i][(word >> (8 * i)) & 0xff];
    }
    return h;
  }

 private:
  std::array<std::array<std::uint64_t, 256>, kMaxLanes> tables_;
};

// Draws independent hash functions by index: member i applies BytesHash with
// a seed derived from (family_seed, i) through a full mix.  Used by the
// hybrid-hash reducer (one member per recursion level) and by sketches.
class HashFamily {
 public:
  explicit HashFamily(std::uint64_t family_seed) noexcept
      : family_seed_(family_seed) {}

  [[nodiscard]] std::uint64_t Hash(std::size_t member, Slice s) const noexcept {
    return BytesHash(s, detail::Mix64(family_seed_ ^ (member * detail::kMix1)));
  }

 private:
  std::uint64_t family_seed_;
};

// Transparent hashing so byte-keyed std::unordered_map containers can be
// probed with a string_view and never allocate per lookup.
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view sv) const noexcept {
    return std::hash<std::string_view>{}(sv);
  }
  [[nodiscard]] std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace opmr
