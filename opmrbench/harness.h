// Measurement helpers for the OPMR benchmark: sample summaries, the
// metric report and its JSON line, output digests, process resource usage,
// and the build guard that keeps sanitizer and unoptimized binaries from
// producing numbers.
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/slice.h"

namespace opmr::bench {

// Order statistics of one metric's samples.  `tail_pct` is the highest of
// p50/p90/p99/p99.9 that has at least ten samples beyond it (0 when even the
// median has fewer), the tail a sample of this size can support.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;

  static Summary Of(std::vector<double> samples) {
    Summary s;
    s.n = samples.size();
    if (samples.empty()) return s;
    std::sort(samples.begin(), samples.end());
    s.median = Quantile(samples, 0.5);
    s.q1 = Quantile(samples, 0.25);
    s.q3 = Quantile(samples, 0.75);
    for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
      if (static_cast<double>(s.n) * (1.0 - pct / 100.0) >= 10.0) {
        s.tail_pct = pct;
        s.tail = Quantile(samples, pct / 100.0);
      }
    }
    return s;
  }

  // Linear interpolation between closest ranks of a sorted sample.
  static double Quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
  }
};

// The q-quantile of an unsorted sample (0 when empty).
inline double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return Summary::Quantile(samples, q);
}

// The metrics one run reports, in insertion order.  Print() writes one
// human-readable line per metric; JsonLine() is the machine-readable
// result, always the last line of standard output.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    Summary s;
    s.n = samples;
    s.median = s.q1 = s.q3 = value;
    Add(name, s, unit);
  }
  // Reports the median; the quartiles and tail go to the printed table.
  void Add(const std::string& name, const Summary& s, const std::string& unit) {
    metrics_.push_back({name, s.median, unit, s});
  }

  void Print() const {
    for (const auto& m : metrics_) {
      std::printf("  %-28s %14.6f %-5s n=%-6zu", m.name.c_str(), m.value,
                  m.unit.c_str(), m.summary.n);
      if (m.summary.q1 != m.summary.q3) {
        std::printf(" q1=%.6f q3=%.6f", m.summary.q1, m.summary.q3);
      }
      if (m.summary.tail_pct > 50.0) {
        std::printf(" p%g=%.6f", m.summary.tail_pct, m.summary.tail);
      }
      std::printf("\n");
    }
  }

  [[nodiscard]] std::string JsonLine(bool correct, std::uint64_t attempted,
                                     std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Summary summary;
  };
  std::vector<Metric> metrics_;
};

// Order-insensitive digest of a job's output: the multiset of (key, value)
// rows every runtime and transport must agree on (push pipelines interleave
// mapper threads, so row order is scheduling noise).  Each row hashes to 64
// bits (two salted CRC-32Cs) and the hashes are summed, so rows stream
// through without being held or sorted and the harness adds no memory of
// its own to the job's footprint.
class RowDigest {
 public:
  void Add(Slice key, Slice value) {
    const std::uint64_t hi = RowCrc('h', key, value);
    const std::uint64_t lo = RowCrc('l', key, value);
    sum_ += hi << 32 | lo;
    ++rows_;
  }

  [[nodiscard]] std::uint64_t value() const { return sum_ ^ rows_; }

 private:
  static std::uint32_t RowCrc(char salt, Slice key, Slice value) {
    std::uint32_t state = Crc32cUpdate(kCrc32cInit, &salt, 1);
    state = Crc32cUpdate(state, key.data(), key.size());
    state = Crc32cUpdate(state, "\x1f", 1);
    state = Crc32cUpdate(state, value.data(), value.size());
    return Crc32cFinal(state);
  }

  std::uint64_t sum_ = 0;
  std::uint64_t rows_ = 0;
};

// User + system CPU seconds of the whole process so far.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Starts a new resident-set high-water mark at the current resident set, so
// that PeakRssMb() covers only what runs after this call.  Freed heap goes
// back to the kernel first, or the set-up's transient allocations would stay
// in the mark.  Returns false when the kernel refuses the reset.
inline bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;  // 5: reset VmHWM to VmRSS
  return std::fclose(f) == 0 && wrote;
}

// Resident-set high-water mark since the last ResetPeakRss(), in MB
// (0 when /proc/self/status has no VmHWM line).
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// What the binary was built as.  Numbers from a sanitizer or unoptimized
// build are not comparable with anything, so the benchmark refuses to report
// them.
struct BuildInfo {
  std::string build_type;
  bool optimized = false;
  bool sanitized = false;
  unsigned nproc = 0;

  static BuildInfo Current() {
    BuildInfo info;
#ifdef OPMR_BENCH_BUILD_TYPE
    info.build_type = OPMR_BENCH_BUILD_TYPE;
#else
    info.build_type = "unknown";
#endif
#ifdef __OPTIMIZE__
    info.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    (defined(OPMR_BENCH_SANITIZED) && OPMR_BENCH_SANITIZED)
    info.sanitized = true;
#endif
    info.nproc = std::thread::hardware_concurrency();
    return info;
  }

  [[nodiscard]] std::string RefusalReason() const {
    if (sanitized) return "built with a sanitizer";
    if (!optimized) return "built without optimization (" + build_type + ")";
    return {};
  }
};

}  // namespace opmr::bench
