// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the one checksum
// of the repo: network frames (protocol v5+), checkpoint images (format
// v2+) and serve snapshot announces (protocol v10+).
//
// Two forms: the one-shot Crc32c() over a contiguous buffer, and a
// streaming Init/Update/Final triple so callers can checksum a frame
// header and its payload without concatenating them first —
// Crc32c(buf) == Crc32cFinal(Crc32cUpdate(kCrc32cInit, buf, n)).
// Castagnoli is the polynomial modern CPUs accelerate.  On x86-64
// the SSE4.2 `crc32` instruction is used when the CPU reports it, on
// AArch64 the ARMv8 CRC32 extension; otherwise a table-driven software
// path computes the identical value.  Dispatch is decided once at first
// use, so the per-call cost is a single indirect branch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__aarch64__)
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

namespace opmr {

inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;

namespace detail {

inline const std::array<std::uint32_t, 256>& Crc32cTable() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("sse4.2"))) inline std::uint32_t Crc32cUpdateHw(
    std::uint32_t state, const char* data, std::size_t size) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  std::uint64_t s64 = state;
  while (size >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    s64 = __builtin_ia32_crc32di(s64, word);
    p += 8;
    size -= 8;
  }
  state = static_cast<std::uint32_t>(s64);
#endif
  while (size > 0) {
    state = __builtin_ia32_crc32qi(state, *p);
    ++p;
    --size;
  }
  return state;
}

inline bool Crc32cHwProbe() noexcept {
  return __builtin_cpu_supports("sse4.2") != 0;
}
#elif defined(__aarch64__)
__attribute__((target("+crc"))) inline std::uint32_t Crc32cUpdateHw(
    std::uint32_t state, const char* data, std::size_t size) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  while (size >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    state = __crc32cd(state, word);
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    state = __crc32cb(state, *p);
    ++p;
    --size;
  }
  return state;
}

inline bool Crc32cHwProbe() noexcept {
#if defined(__linux__) && defined(HWCAP_CRC32)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return false;
#endif
}
#else
inline std::uint32_t Crc32cUpdateHw(std::uint32_t state, const char*,
                                    std::size_t) noexcept {
  return state;  // unreachable: Crc32cHwProbe() is false on this target
}

inline bool Crc32cHwProbe() noexcept { return false; }
#endif

}  // namespace detail

// Portable table-driven path; exposed so the equivalence test can compare
// it against the hardware path on machines that have one.
[[nodiscard]] inline std::uint32_t Crc32cUpdateSoftware(
    std::uint32_t state, const char* data, std::size_t size) noexcept {
  const auto& table = detail::Crc32cTable();
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ static_cast<std::uint8_t>(data[i])) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

// True when the running CPU accelerates CRC-32C (decided once).
[[nodiscard]] inline bool Crc32cHardwareAvailable() noexcept {
  static const bool available = detail::Crc32cHwProbe();
  return available;
}

// Hardware path without the dispatch; callers must check
// Crc32cHardwareAvailable() first (the test does).
[[nodiscard]] inline std::uint32_t Crc32cUpdateHardware(
    std::uint32_t state, const char* data, std::size_t size) noexcept {
  return detail::Crc32cUpdateHw(state, data, size);
}

// Advances an in-progress CRC-32C state (seeded with kCrc32cInit) over
// `size` more bytes.  The state is the raw register, NOT a finished
// checksum.
[[nodiscard]] inline std::uint32_t Crc32cUpdate(std::uint32_t state,
                                                const char* data,
                                                std::size_t size) noexcept {
  return Crc32cHardwareAvailable() ? detail::Crc32cUpdateHw(state, data, size)
                                   : Crc32cUpdateSoftware(state, data, size);
}

[[nodiscard]] inline std::uint32_t Crc32cFinal(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

// One-shot checksum of a contiguous buffer.
[[nodiscard]] inline std::uint32_t Crc32c(const char* data,
                                          std::size_t size) noexcept {
  return Crc32cFinal(Crc32cUpdate(kCrc32cInit, data, size));
}

}  // namespace opmr
