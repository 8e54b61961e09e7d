// Byte-slice primitives for the OPMR dataflow.
//
// The paper's system (Fig. 5, "byte array based memory management library")
// keeps all key/value data in flat byte arrays to avoid per-record object
// overhead.  `Slice` is the non-owning view type every map/combine/reduce
// function operates on; records never exist as individual heap objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace opmr {

// A non-owning view of a contiguous byte range.  Comparable lexicographically
// (byte order), which is the order Hadoop's sort-merge path uses for raw keys.
class Slice {
 public:
  // Points at an empty literal, never nullptr, so a default Slice is a valid
  // memcpy/memcmp source (as in LevelDB's Slice).
  constexpr Slice() noexcept : data_(""), size_(0) {}
  constexpr Slice(const char* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors string_view ergonomics.
  Slice(const std::string& s) noexcept : data_(s.data()), size_(s.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  constexpr Slice(std::string_view sv) noexcept
      : data_(sv.data()), size_(sv.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Slice(const char* cstr) noexcept : data_(cstr), size_(std::strlen(cstr)) {}

  [[nodiscard]] constexpr const char* data() const noexcept { return data_; }
  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] constexpr char operator[](std::size_t i) const noexcept {
    return data_[i];
  }

  [[nodiscard]] std::string ToString() const { return {data_, size_}; }
  [[nodiscard]] constexpr std::string_view view() const noexcept {
    return {data_, size_};
  }

  // Drops the first `n` bytes (n must be <= size()).
  constexpr void RemovePrefix(std::size_t n) noexcept {
    data_ += n;
    size_ -= n;
  }

  [[nodiscard]] int compare(const Slice& other) const noexcept {
    const std::size_t min_len = size_ < other.size_ ? size_ : other.size_;
    int r = min_len == 0 ? 0 : std::memcmp(data_, other.data_, min_len);
    if (r == 0) {
      if (size_ < other.size_) r = -1;
      else if (size_ > other.size_) r = 1;
    }
    return r;
  }

  friend bool operator==(const Slice& a, const Slice& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator!=(const Slice& a, const Slice& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const Slice& a, const Slice& b) noexcept {
    return a.compare(b) < 0;
  }

 private:
  const char* data_;
  std::size_t size_;
};

// Little-endian fixed-width encode/decode helpers used by every on-disk and
// in-memory record format in the repository.
inline void EncodeU32(char* dst, std::uint32_t v) noexcept {
  std::memcpy(dst, &v, sizeof(v));
}
inline std::uint32_t DecodeU32(const char* src) noexcept {
  std::uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
inline void EncodeU64(char* dst, std::uint64_t v) noexcept {
  std::memcpy(dst, &v, sizeof(v));
}
inline std::uint64_t DecodeU64(const char* src) noexcept {
  std::uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

inline void AppendU32(std::string& dst, std::uint32_t v) {
  dst.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void AppendU64(std::string& dst, std::uint64_t v) {
  dst.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace opmr
