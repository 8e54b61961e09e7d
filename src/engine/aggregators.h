// Ready-made aggregators (the paper's "user function library", Fig. 5) and
// the value codecs they share.  All states are flat byte strings so they
// spill, shuffle and merge without any serialization layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/slice.h"
#include "engine/job.h"

namespace opmr {

inline std::string EncodeValueU64(std::uint64_t v) {
  std::string s(sizeof(v), '\0');
  EncodeU64(s.data(), v);
  return s;
}

inline std::uint64_t DecodeValueU64(Slice s) {
  if (s.size() != sizeof(std::uint64_t)) {
    throw std::runtime_error("DecodeValueU64: bad width");
  }
  return DecodeU64(s.data());
}

// One u64 per state, folded by sum, min or max.  Init checks the width as
// Update and Merge do, so a bad value fails on its key's first sight too.
class U64Aggregator : public Aggregator {
 public:
  explicit U64Aggregator(U64Fold fold) : fold_(fold) {}

  void Init(Slice value, std::string* state) const final {
    *state = EncodeValueU64(DecodeValueU64(value));
  }
  void Update(std::string* state, Slice value) const final {
    const std::uint64_t v = DecodeValueU64(value);
    EncodeU64(state->data(), ApplyU64Fold(fold_, DecodeU64(state->data()), v));
  }
  void Merge(std::string* state, Slice other) const final {
    Update(state, other);
  }
  void Finalize(Slice state, std::string* out) const final {
    out->assign(state.data(), state.size());
  }
  [[nodiscard]] U64Fold u64_fold() const final { return fold_; }

 private:
  U64Fold fold_;
};

// SUM over u64 values; COUNT(*) is SUM over 1s, exactly how the paper's
// page-frequency job emits <url, 1>.
class SumAggregator final : public U64Aggregator {
 public:
  SumAggregator() : U64Aggregator(U64Fold::kSum) {}
};

// MIN / MAX over u64 values.
class MaxAggregator final : public U64Aggregator {
 public:
  MaxAggregator() : U64Aggregator(U64Fold::kMax) {}
};

class MinAggregator final : public U64Aggregator {
 public:
  MinAggregator() : U64Aggregator(U64Fold::kMin) {}
};

// AVG over u64 values: state is (sum, count); final value is sum/count.
class AvgAggregator final : public Aggregator {
 public:
  void Init(Slice value, std::string* state) const override {
    state->resize(16);
    EncodeU64(state->data(), DecodeValueU64(value));
    EncodeU64(state->data() + 8, 1);
  }
  void Update(std::string* state, Slice value) const override {
    EncodeU64(state->data(), DecodeU64(state->data()) + DecodeValueU64(value));
    EncodeU64(state->data() + 8, DecodeU64(state->data() + 8) + 1);
  }
  void Merge(std::string* state, Slice other) const override {
    if (other.size() != 16) throw std::runtime_error("AvgAggregator: bad state");
    EncodeU64(state->data(), DecodeU64(state->data()) + DecodeU64(other.data()));
    EncodeU64(state->data() + 8,
              DecodeU64(state->data() + 8) + DecodeU64(other.data() + 8));
  }
  void Finalize(Slice state, std::string* out) const override {
    const std::uint64_t sum = DecodeU64(state.data());
    const std::uint64_t count = DecodeU64(state.data() + 8);
    *out = EncodeValueU64(count == 0 ? 0 : sum / count);
  }
};

// Session COUNT per key over [u64 timestamp] values: cuts a new session
// whenever the inter-click gap exceeds `gap_seconds`.  The algebraic form
// of the paper's sessionization workload — holistic per-click output needs
// end-of-stream, but the session *count* folds incrementally, which is what
// a live serving plane can answer mid-job.  State layout:
// [u64 sessions][u64 first_ts][u64 last_ts].
//
// Update assumes timestamps arrive non-decreasing (the click-stream
// generator's contract); a late value inside the current session is folded
// without moving the watermark back.  Merge joins two time-disjoint
// segments, fusing the boundary sessions when their gap is within limit.
class SessionCountAggregator final : public Aggregator {
 public:
  explicit SessionCountAggregator(std::uint64_t gap_seconds)
      : gap_(gap_seconds) {
    if (gap_ == 0) {
      throw std::invalid_argument("SessionCountAggregator: gap must be > 0");
    }
  }

  void Init(Slice value, std::string* state) const override {
    const std::uint64_t ts = DecodeValueU64(value);
    state->resize(24);
    EncodeU64(state->data(), 1);        // sessions
    EncodeU64(state->data() + 8, ts);   // first_ts
    EncodeU64(state->data() + 16, ts);  // last_ts
  }

  void Update(std::string* state, Slice value) const override {
    const std::uint64_t ts = DecodeValueU64(value);
    const std::uint64_t last = DecodeU64(state->data() + 16);
    if (ts > last) {
      if (ts - last > gap_) {
        EncodeU64(state->data(), DecodeU64(state->data()) + 1);
      }
      EncodeU64(state->data() + 16, ts);
    }
  }

  void Merge(std::string* state, Slice other) const override {
    if (other.size() != 24 || state->size() != 24) {
      throw std::runtime_error("SessionCountAggregator: bad state");
    }
    // Order the two segments by first click; fuse across the boundary.
    struct Segment {
      std::uint64_t sessions, first, last;
    };
    Segment a{DecodeU64(state->data()), DecodeU64(state->data() + 8),
              DecodeU64(state->data() + 16)};
    Segment b{DecodeU64(other.data()), DecodeU64(other.data() + 8),
              DecodeU64(other.data() + 16)};
    if (b.first < a.first) std::swap(a, b);
    std::uint64_t sessions = a.sessions + b.sessions;
    if (b.first >= a.last && b.first - a.last <= gap_) --sessions;
    EncodeU64(state->data(), sessions);
    EncodeU64(state->data() + 8, a.first);
    EncodeU64(state->data() + 16, std::max(a.last, b.last));
  }

  void Finalize(Slice state, std::string* out) const override {
    if (state.size() != 24) {
      throw std::runtime_error("SessionCountAggregator: bad state");
    }
    *out = EncodeValueU64(DecodeU64(state.data()));
  }

  [[nodiscard]] std::uint64_t gap() const noexcept { return gap_; }

 private:
  std::uint64_t gap_;
};

// --- Top-k -------------------------------------------------------------------
//
// The paper leaves "how to support the combine function for complex
// analytical tasks such as top-k" as an open question (§IV).  Top-k over
// (score, payload) pairs IS algebraic with bounded state: the state is the
// current top-k list, Update inserts one candidate, Merge merges two lists
// and truncates — all O(k).  This enables map-side combining and fully
// incremental top-k answers on the one-pass runtime.

// One candidate value: [u64 score][payload bytes].
inline std::string EncodeScored(std::uint64_t score, Slice payload) {
  std::string out;
  AppendU64(out, score);
  out.append(payload.data(), payload.size());
  return out;
}

struct ScoredEntry {
  std::uint64_t score = 0;
  std::string payload;

  friend bool operator==(const ScoredEntry&, const ScoredEntry&) = default;
};

// State layout: repeated [u64 score][u32 payload_len][payload bytes],
// ordered by descending score (ties broken by ascending payload so states
// are canonical and Merge is associative+commutative up to the tie rule).
inline std::vector<ScoredEntry> DecodeTopKState(Slice state) {
  std::vector<ScoredEntry> entries;
  std::size_t pos = 0;
  while (pos < state.size()) {
    if (pos + 12 > state.size()) {
      throw std::runtime_error("TopK state: truncated entry header");
    }
    ScoredEntry entry;
    entry.score = DecodeU64(state.data() + pos);
    const std::uint32_t len = DecodeU32(state.data() + pos + 8);
    pos += 12;
    if (pos + len > state.size()) {
      throw std::runtime_error("TopK state: truncated payload");
    }
    entry.payload.assign(state.data() + pos, len);
    pos += len;
    entries.push_back(std::move(entry));
  }
  return entries;
}

class TopKAggregator final : public Aggregator {
 public:
  explicit TopKAggregator(std::size_t k) : k_(k) {
    if (k_ == 0) throw std::invalid_argument("TopKAggregator: k must be > 0");
  }

  void Init(Slice value, std::string* state) const override {
    state->clear();
    AppendEntry(state, DecodeScoredValue(value));
  }

  void Update(std::string* state, Slice value) const override {
    InsertEntry(state, DecodeScoredValue(value));
  }

  void Merge(std::string* state, Slice other) const override {
    for (auto& entry : DecodeTopKState(other)) {
      InsertEntry(state, std::move(entry));
    }
  }

  void Finalize(Slice state, std::string* out) const override {
    out->assign(state.data(), state.size());
  }

  [[nodiscard]] std::size_t k() const noexcept { return k_; }

 private:
  static ScoredEntry DecodeScoredValue(Slice value) {
    if (value.size() < 8) {
      throw std::runtime_error("TopKAggregator: bad scored value");
    }
    return {DecodeU64(value.data()),
            std::string(value.data() + 8, value.size() - 8)};
  }

  static void AppendEntry(std::string* state, const ScoredEntry& entry) {
    AppendU64(*state, entry.score);
    AppendU32(*state, static_cast<std::uint32_t>(entry.payload.size()));
    state->append(entry.payload);
  }

  void InsertEntry(std::string* state, ScoredEntry entry) const {
    auto entries = DecodeTopKState(*state);
    const auto pos = std::lower_bound(
        entries.begin(), entries.end(), entry,
        [](const ScoredEntry& a, const ScoredEntry& b) {
          if (a.score != b.score) return a.score > b.score;
          return a.payload < b.payload;
        });
    if (pos != entries.end() && *pos == entry) return;  // exact duplicate
    entries.insert(pos, std::move(entry));
    if (entries.size() > k_) entries.resize(k_);
    state->clear();
    for (const auto& e : entries) AppendEntry(state, e);
  }

  std::size_t k_;
};

// Folds one group's raw values (Init, then Update) or, with
// `values_are_states`, its partial states (a copy, then Merge) into
// `state`; false for an empty group.
inline bool FoldGroup(const Aggregator& agg, ValueIterator& values,
                      bool values_are_states, std::string* state) {
  Slice v;
  if (!values.Next(&v)) return false;
  if (values_are_states) {
    state->assign(v.data(), v.size());
  } else {
    agg.Init(v, state);
  }
  while (values.Next(&v)) {
    if (values_are_states) {
      agg.Merge(state, v);
    } else {
      agg.Update(state, v);
    }
  }
  return true;
}

// The classic combine function derived from an aggregator: one pre-grouped
// (key, values...) group in, one (key, state) out.  The sort-merge
// reducer's spill path uses it.
class DerivedCombiner {
 public:
  explicit DerivedCombiner(const Aggregator* agg) : agg_(agg) {}

  void CombineGroup(Slice key, ValueIterator& values, bool values_are_states,
                    OutputCollector& out) const {
    std::string state;
    if (FoldGroup(*agg_, values, values_are_states, &state)) {
      out.Emit(key, state);
    }
  }

 private:
  const Aggregator* agg_;
};

}  // namespace opmr
