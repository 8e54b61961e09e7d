// The repository's one byte codec: wire messages, changelog records,
// registry worker state and checkpoint images all encode and decode here.
//
// Layout idiom (little-endian): bool, u8 and enums take one byte; i32 and
// u32 four; u64 and double (its IEEE-754 bit pattern) eight; a byte string
// is a u32 length then the bytes; a list is a u32 count then the items.
//
// Decoding goes through ByteReader, a bounds-checked cursor.  Input that is
// truncated, padded, or lies about a count surfaces as DecodeError (a
// std::runtime_error), never as UB and never as an allocation sized by the
// lie.
//
// Field lists.  A type states its layout once, as an overload found by
// argument-dependent lookup in the type's namespace:
//
//   void Fields(Like<Msg> auto& m, auto& io) { io(m.a, m.b, m.c); }
//
// EncodeFields (sizing pass, one reserve, write) and DecodeFields are built
// from that list, so encoder and decoder cannot drift apart.  A field is
// any of the scalars above, std::string, std::pair, std::vector, or a
// type with its own Fields.  An enum field's decoder rejects bytes
// past `LastValue(E{})`, which the enum's namespace declares.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/slice.h"

namespace opmr {

class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Appends `bytes` prefixed with its u32 length.
inline void AppendBytes(std::string& out, std::string_view bytes) {
  AppendU32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

// Bounds-checked cursor over an encoded buffer (which must outlive it).
class ByteReader {
 public:
  explicit ByteReader(std::string_view body) noexcept : body_(body) {}
  // Over a buffer the reader may consume: a byte string that runs to the
  // end of the buffer is taken by moving the buffer, not copied out of it.
  explicit ByteReader(std::string&& owned) noexcept
      : body_(owned), owned_(&owned) {}

  [[nodiscard]] std::uint8_t U8() {
    return static_cast<std::uint8_t>(*Take(1));
  }
  [[nodiscard]] std::uint32_t U32() { return DecodeU32(Take(4)); }
  [[nodiscard]] std::uint64_t U64() { return DecodeU64(Take(8)); }
  [[nodiscard]] std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  // The next `n` bytes.
  [[nodiscard]] std::string Bytes(std::size_t n) { return {Take(n), n}; }
  // A u32 length-prefixed byte string.
  [[nodiscard]] std::string Bytes() {
    const std::uint32_t n = U32();
    if (owned_ == nullptr || n != remaining()) return Bytes(n);
    owned_->erase(0, pos_);
    pos_ = body_.size();
    return std::move(*owned_);
  }

  // Reads an element count (a u32, or a u64 for N = std::uint64_t) and
  // rejects it unless the remaining bytes can hold that many items of at
  // least `min_item_bytes` each, so a caller may reserve() from it.
  template <typename N = std::uint32_t>
  [[nodiscard]] N Count(std::size_t min_item_bytes) {
    N n;
    if constexpr (sizeof(N) == 8) {
      n = U64();
    } else {
      n = U32();
    }
    if (min_item_bytes != 0 && n > remaining() / min_item_bytes) {
      throw DecodeError("count " + std::to_string(n) + " cannot fit in the " +
                        std::to_string(remaining()) + " bytes left");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return body_.size() - pos_;
  }

  // Throws DecodeError unless every byte was consumed.
  void ExpectExhausted(const char* what) const {
    if (remaining() != 0) {
      throw DecodeError(std::string("trailing bytes after ") + what);
    }
  }

 private:
  const char* Take(std::size_t n) {
    if (remaining() < n) throw DecodeError("truncated input");
    const char* p = body_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string_view body_;
  std::size_t pos_ = 0;
  std::string* owned_ = nullptr;
};

// --- Field lists --------------------------------------------------------------

// `Like<T, U>`: T is U or const U, so one Fields overload serves both the
// encoder (const) and the decoder.
template <typename T, typename U>
concept Like = std::same_as<std::remove_const_t<T>, U>;

namespace bytes_detail {

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <typename T>
inline constexpr bool kIsFourBytes =
    std::is_same_v<T, std::int32_t> || std::is_same_v<T, std::uint32_t>;
template <typename T>
inline constexpr bool kIsEightBytes =
    std::is_same_v<T, std::uint64_t> || std::is_same_v<T, double>;

// Sink that only counts, for the sizing pass.
struct ByteCounter {
  std::size_t size = 0;
  void push_back(char) { ++size; }
  void append(const char*, std::size_t n) { size += n; }
};

}  // namespace bytes_detail

// Appends fields to `Out` (std::string, or the sizing pass's counter).
template <typename Out>
class FieldWriter {
 public:
  explicit FieldWriter(Out& out) noexcept : out_(out) {}

  template <typename... Fs>
  void operator()(const Fs&... fields) {
    (Put(fields), ...);
  }

 private:
  template <typename T>
  void Put(const T& v) {
    using namespace bytes_detail;
    if constexpr (std::is_same_v<T, bool>) {
      out_.push_back(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T> ||
                         std::is_same_v<T, std::uint8_t>) {
      static_assert(sizeof(T) == 1);
      out_.push_back(static_cast<char>(v));
    } else if constexpr (kIsFourBytes<T>) {
      Raw(static_cast<std::uint32_t>(v));
    } else if constexpr (kIsEightBytes<T>) {
      Raw(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      Raw(static_cast<std::uint32_t>(v.size()));
      out_.append(v.data(), v.size());
    } else if constexpr (kIsPair<T>) {
      Put(v.first);
      Put(v.second);
    } else if constexpr (kIsVector<T>) {
      Raw(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) Put(item);
    } else {
      Fields(v, *this);
    }
  }

  template <typename U>
  void Raw(U v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  Out& out_;
};

// Bytes `value`'s field list encodes to.
template <typename T>
[[nodiscard]] std::size_t EncodedSize(const T& value) {
  bytes_detail::ByteCounter counter;
  FieldWriter<bytes_detail::ByteCounter> writer(counter);
  writer(value);
  return counter.size;
}

// Reads fields from a ByteReader into the referenced values.
class FieldReader {
 public:
  explicit FieldReader(ByteReader& in) noexcept : in_(in) {}

  template <typename... Fs>
  void operator()(Fs&&... fields) {
    (Get(fields), ...);
  }

 private:
  template <typename T>
  void Get(T& v) {
    using namespace bytes_detail;
    if constexpr (std::is_same_v<T, bool>) {
      v = in_.U8() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      const std::uint8_t b = in_.U8();
      const auto last = static_cast<std::uint8_t>(LastValue(T{}));
      if (b > last) {
        throw DecodeError("enum byte " + std::to_string(b) +
                          " is past the last value " + std::to_string(last));
      }
      v = static_cast<T>(b);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = in_.U8();
    } else if constexpr (kIsFourBytes<T>) {
      v = static_cast<T>(in_.U32());
    } else if constexpr (kIsEightBytes<T>) {
      v = std::bit_cast<T>(in_.U64());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = in_.Bytes();
    } else if constexpr (kIsPair<T>) {
      Get(v.first);
      Get(v.second);
    } else if constexpr (kIsVector<T>) {
      const std::uint32_t n =
          in_.Count(EncodedSize(typename T::value_type{}));
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        Get(v.emplace_back());
      }
    } else {
      Fields(v, *this);
    }
  }

  ByteReader& in_;
};

// Encodes `value`'s field list with a single allocation.
template <typename T>
[[nodiscard]] std::string EncodeFields(const T& value) {
  std::string out;
  out.reserve(EncodedSize(value));
  FieldWriter<std::string> writer(out);
  writer(value);
  return out;
}

// Decodes all of `body` into `value`'s field list; `what` names the value
// in the trailing-bytes error.
template <typename T>
void DecodeFields(std::string_view body, T& value, const char* what) {
  ByteReader in(body);
  FieldReader reader(in);
  reader(value);
  in.ExpectExhausted(what);
}

// As above, consuming `body`: a trailing byte-string field takes its buffer.
template <typename T>
void DecodeFields(std::string&& body, T& value, const char* what) {
  ByteReader in(std::move(body));
  FieldReader reader(in);
  reader(value);
  in.ExpectExhausted(what);
}

}  // namespace opmr
