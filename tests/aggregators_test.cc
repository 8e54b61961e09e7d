#include "engine/aggregators.h"

#include <gtest/gtest.h>

#include <vector>

namespace opmr {
namespace {

class VectorValues final : public ValueIterator {
 public:
  explicit VectorValues(std::vector<std::string> values)
      : values_(std::move(values)) {}
  bool Next(Slice* v) override {
    if (pos_ >= values_.size()) return false;
    *v = values_[pos_++];
    return true;
  }

 private:
  std::vector<std::string> values_;
  std::size_t pos_ = 0;
};

class CollectingOutput final : public OutputCollector {
 public:
  void Emit(Slice key, Slice value) override {
    rows.emplace_back(key.ToString(), value.ToString());
  }
  std::vector<std::pair<std::string, std::string>> rows;
};

template <typename Agg>
std::uint64_t FoldU64(const std::vector<std::uint64_t>& values) {
  Agg agg;
  std::string state;
  bool first = true;
  for (auto v : values) {
    if (first) {
      agg.Init(EncodeValueU64(v), &state);
      first = false;
    } else {
      agg.Update(&state, EncodeValueU64(v));
    }
  }
  std::string out;
  agg.Finalize(state, &out);
  return DecodeValueU64(out);
}

TEST(Aggregators, SumFolds) {
  EXPECT_EQ(FoldU64<SumAggregator>({1, 2, 3, 4}), 10u);
  EXPECT_EQ(FoldU64<SumAggregator>({0}), 0u);
}

TEST(Aggregators, U64InitRejectsBadWidthLikeUpdate) {
  const SumAggregator sum;
  const MinAggregator min;
  const MaxAggregator max;
  for (const Aggregator* agg : {static_cast<const Aggregator*>(&sum),
                                static_cast<const Aggregator*>(&min),
                                static_cast<const Aggregator*>(&max)}) {
    std::string state;
    EXPECT_THROW(agg->Init("abcd", &state), std::runtime_error);
    agg->Init(EncodeValueU64(3), &state);
    EXPECT_THROW(agg->Update(&state, "abcd"), std::runtime_error);
    EXPECT_NE(agg->u64_fold(), Aggregator::U64Fold::kNone);
  }
  EXPECT_EQ(AvgAggregator().u64_fold(), Aggregator::U64Fold::kNone);
}

TEST(Aggregators, MaxAndMin) {
  EXPECT_EQ(FoldU64<MaxAggregator>({5, 9, 2}), 9u);
  EXPECT_EQ(FoldU64<MinAggregator>({5, 9, 2}), 2u);
  EXPECT_EQ(FoldU64<MaxAggregator>({7}), 7u);
}

TEST(Aggregators, AvgUsesCompoundState) {
  EXPECT_EQ(FoldU64<AvgAggregator>({2, 4, 6}), 4u);
  EXPECT_EQ(FoldU64<AvgAggregator>({10}), 10u);
  EXPECT_EQ(FoldU64<AvgAggregator>({1, 2}), 1u);  // integer division
}

TEST(Aggregators, MergePartialStates) {
  SumAggregator sum;
  std::string s1, s2;
  sum.Init(EncodeValueU64(10), &s1);
  sum.Update(&s1, EncodeValueU64(5));
  sum.Init(EncodeValueU64(3), &s2);
  sum.Merge(&s1, s2);
  std::string out;
  sum.Finalize(s1, &out);
  EXPECT_EQ(DecodeValueU64(out), 18u);
}

TEST(Aggregators, AvgMergeCombinesSumsAndCounts) {
  AvgAggregator avg;
  std::string s1, s2;
  avg.Init(EncodeValueU64(10), &s1);   // sum 10, count 1
  avg.Update(&s1, EncodeValueU64(20)); // sum 30, count 2
  avg.Init(EncodeValueU64(60), &s2);   // sum 60, count 1
  avg.Merge(&s1, s2);                  // sum 90, count 3
  std::string out;
  avg.Finalize(s1, &out);
  EXPECT_EQ(DecodeValueU64(out), 30u);
}

TEST(Aggregators, AvgRejectsMalformedState) {
  AvgAggregator avg;
  std::string s;
  avg.Init(EncodeValueU64(1), &s);
  EXPECT_THROW(avg.Merge(&s, Slice("short")), std::runtime_error);
}

TEST(Aggregators, DecodeRejectsBadWidth) {
  EXPECT_THROW(DecodeValueU64(Slice("123")), std::runtime_error);
}

TEST(DerivedCombiner, CombinesRawValueGroup) {
  SumAggregator sum;
  DerivedCombiner combiner(&sum);
  VectorValues values({EncodeValueU64(1), EncodeValueU64(2),
                       EncodeValueU64(3)});
  CollectingOutput out;
  combiner.CombineGroup("key", values, /*values_are_states=*/false, out);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].first, "key");
  EXPECT_EQ(DecodeValueU64(out.rows[0].second), 6u);
}

TEST(DerivedCombiner, CombinesStateGroup) {
  SumAggregator sum;
  DerivedCombiner combiner(&sum);
  VectorValues values({EncodeValueU64(40), EncodeValueU64(2)});
  CollectingOutput out;
  combiner.CombineGroup("key", values, /*values_are_states=*/true, out);
  EXPECT_EQ(DecodeValueU64(out.rows[0].second), 42u);
}

TEST(DerivedCombiner, EmptyGroupEmitsNothing) {
  SumAggregator sum;
  DerivedCombiner combiner(&sum);
  VectorValues values({});
  CollectingOutput out;
  combiner.CombineGroup("key", values, false, out);
  EXPECT_TRUE(out.rows.empty());
}

}  // namespace
}  // namespace opmr
