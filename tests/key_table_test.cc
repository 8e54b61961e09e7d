// KeyTable: the per-key table of the hash paths.  The StateTableTest and
// MapCombineTableTest suites cover its use as the incremental state store's
// table and as the map-side combine table; KeyTable.* covers the rest,
// including a differential test against a std::unordered_map model.
#include "engine/key_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/aggregators.h"
#include "engine/map_task.h"

namespace opmr {
namespace {

// --- As the incremental state store's table ---------------------------------

class StateTableTest : public ::testing::Test {
 protected:
  SumAggregator sum_;
};

TEST_F(StateTableTest, FoldInitializesThenUpdates) {
  KeyTable table(&sum_);
  table.Fold("k", EncodeValueU64(2), false);
  const auto i = table.Fold("k", EncodeValueU64(3), false);
  EXPECT_EQ(DecodeU64(table.state(i).data()), 5u);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(StateTableTest, FoldMergesStatesWhenFlagged) {
  KeyTable table(&sum_);
  table.Fold("k", EncodeValueU64(10), true);
  const auto i = table.Fold("k", EncodeValueU64(20), true);
  EXPECT_EQ(DecodeU64(table.state(i).data()), 30u);
}

TEST_F(StateTableTest, ExtractRemovesAndReturnsState) {
  KeyTable table(&sum_);
  table.Fold("gone", EncodeValueU64(7), false);
  std::string state;
  EXPECT_TRUE(table.Extract("gone", &state));
  EXPECT_EQ(DecodeU64(state.data()), 7u);
  EXPECT_EQ(table.Find("gone"), KeyTable::npos);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Extract("gone", &state));
}

TEST_F(StateTableTest, MemoryAccountingRisesAndFallsConsistently) {
  KeyTable table(&sum_);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    table.Fold("key-" + std::to_string(i), EncodeValueU64(1), false);
  }
  const auto full = table.MemoryBytes();
  EXPECT_GT(full, 100u * 8);
  std::string state;
  for (int i = 0; i < 100; ++i) {
    table.Extract("key-" + std::to_string(i), &state);
  }
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

TEST_F(StateTableTest, EarlyEmittedFlagPersistsAcrossFolds) {
  KeyTable table(&sum_);
  const auto i1 = table.Fold("k", EncodeValueU64(1), false);
  table.Mark(i1);
  const auto i2 = table.Fold("k", EncodeValueU64(1), false);
  EXPECT_TRUE(table.marked(i2));
}

TEST_F(StateTableTest, ForEachVisitsEverything) {
  KeyTable table(&sum_);
  Rng rng(1);
  std::map<std::string, std::uint64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const std::string k = "u" + std::to_string(rng.Uniform(200));
    expected[k] += 1;
    table.Fold(k, EncodeValueU64(1), false);
  }
  std::map<std::string, std::uint64_t> actual;
  for (std::size_t i = 0; i < table.size(); ++i) {
    actual[table.key(i).ToString()] = DecodeU64(table.state(i).data());
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(StateTableTest, ClearEmptiesTable) {
  KeyTable table(&sum_);
  table.Fold("a", EncodeValueU64(1), false);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.MemoryBytes(), 0u);
  EXPECT_EQ(table.Find("a"), KeyTable::npos);
}

TEST_F(StateTableTest, RequiresAggregator) {
  EXPECT_THROW(KeyTable(nullptr), std::invalid_argument);
}

// --- As the map-side combine table ------------------------------------------

class MapCombineTableTest : public ::testing::Test {
 protected:
  SumAggregator sum_;
};

TEST_F(MapCombineTableTest, FoldsValuesIntoStates) {
  KeyTable table(&sum_);
  table.Fold(0, "a", EncodeValueU64(2), false);
  table.Fold(0, "a", EncodeValueU64(3), false);
  table.Fold(0, "b", EncodeValueU64(10), false);
  EXPECT_EQ(table.size(), 2u);

  std::map<std::string, std::uint64_t> got;
  for (const auto i : table.ByPartition()) {
    got[table.key(i).ToString()] = DecodeU64(table.state(i).data());
  }
  EXPECT_EQ(got.at("a"), 5u);
  EXPECT_EQ(got.at("b"), 10u);
}

TEST_F(MapCombineTableTest, MergesStatesWhenFlagged) {
  KeyTable table(&sum_);
  table.Fold(0, "k", EncodeValueU64(7), /*value_is_state=*/true);
  table.Fold(0, "k", EncodeValueU64(8), /*value_is_state=*/true);
  EXPECT_EQ(DecodeU64(table.state(table.ByPartition()[0]).data()), 15u);
}

TEST_F(MapCombineTableTest, SameKeyDifferentPartitionsAreDistinct) {
  // With a key-derived partitioner this never happens, but the table must
  // stay correct for any partitioner.
  KeyTable table(&sum_);
  table.Fold(0, "k", EncodeValueU64(1), false);
  table.Fold(1, "k", EncodeValueU64(2), false);
  EXPECT_EQ(table.size(), 2u);
}

TEST_F(MapCombineTableTest, EntriesByPartitionIsGrouped) {
  KeyTable table(&sum_);
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    table.Fold(static_cast<std::uint32_t>(rng.Uniform(7)),
               "k" + std::to_string(rng.Uniform(100)), EncodeValueU64(1),
               false);
  }
  const auto entries = table.ByPartition();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LE(table.partition(entries[i - 1]), table.partition(entries[i]));
  }
}

TEST_F(MapCombineTableTest, GrowsPastInitialCapacity) {
  KeyTable table(&sum_, /*initial_slots=*/8);
  for (int i = 0; i < 10'000; ++i) {
    table.Fold(0, "key-" + std::to_string(i), EncodeValueU64(1), false);
  }
  EXPECT_EQ(table.size(), 10'000u);
  // And every key is still reachable with the right value.
  std::size_t checked = 0;
  for (const auto i : table.ByPartition()) {
    EXPECT_EQ(DecodeU64(table.state(i).data()), 1u);
    ++checked;
  }
  EXPECT_EQ(checked, 10'000u);
}

TEST_F(MapCombineTableTest, MatchesReferenceUnderRandomFolds) {
  KeyTable table(&sum_);
  Rng rng(3);
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> expected;
  for (int i = 0; i < 20'000; ++i) {
    const auto p = static_cast<std::uint32_t>(rng.Uniform(4));
    const std::string k = "u" + std::to_string(rng.Uniform(300));
    const std::uint64_t w = 1 + rng.Uniform(9);
    expected[{p, k}] += w;
    table.Fold(p, k, EncodeValueU64(w), false);
  }
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> actual;
  for (const auto i : table.ByPartition()) {
    actual[{table.partition(i), table.key(i).ToString()}] =
        DecodeU64(table.state(i).data());
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(MapCombineTableTest, HashOverloadAgreesWithConvenience) {
  KeyTable t1(&sum_), t2(&sum_);
  const Slice key("shared-key");
  t1.Fold(2, key, EncodeValueU64(5), false);
  t2.Fold(2, BytesHash(key), key, EncodeValueU64(5), false);
  EXPECT_EQ(t1.state(t1.ByPartition()[0]), t2.state(t2.ByPartition()[0]));
}

TEST_F(MapCombineTableTest, ClearResets) {
  KeyTable table(&sum_);
  table.Fold(0, "x", EncodeValueU64(1), false);
  table.Clear();
  EXPECT_TRUE(table.empty());
  table.Fold(0, "x", EncodeValueU64(3), false);
  EXPECT_EQ(DecodeU64(table.state(table.ByPartition()[0]).data()), 3u);
}

TEST_F(MapCombineTableTest, MemoryGrowsWithKeys) {
  KeyTable table(&sum_);
  const auto before = table.MemoryBytes();
  for (int i = 0; i < 1000; ++i) {
    table.Fold(0, "key-" + std::to_string(i), EncodeValueU64(1), false);
  }
  EXPECT_GT(table.MemoryBytes(), before + 1000);
}

TEST_F(MapCombineTableTest, RequiresAggregatorAndPow2Slots) {
  EXPECT_THROW(KeyTable(nullptr), std::invalid_argument);
  EXPECT_THROW(KeyTable(&sum_, 100), std::invalid_argument);
}

// --- Differential test against a model --------------------------------------

// What the table should hold: entries in the table's iteration order
// (insertion order, with Extract moving the last entry into the hole) and
// an index from (partition, key) to position.  States come from the
// aggregator's virtual calls, so a u64 aggregator's inline path is checked
// against its generic one.
class Model {
 public:
  struct Entry {
    std::uint32_t partition;
    std::string key;
    std::string state;
    bool marked = false;
  };

  explicit Model(const Aggregator* agg) : agg_(agg) {}

  std::size_t Fold(std::uint32_t p, const std::string& key, Slice value,
                   bool value_is_state) {
    auto [it, inserted] = index_.try_emplace(Id(p, key), entries_.size());
    if (inserted) {
      Entry e{p, key, {}};
      if (value_is_state) {
        e.state.assign(value.data(), value.size());
      } else {
        agg_->Init(value, &e.state);
      }
      entries_.push_back(std::move(e));
    } else if (value_is_state) {
      agg_->Merge(&entries_[it->second].state, value);
    } else {
      agg_->Update(&entries_[it->second].state, value);
    }
    return it->second;
  }

  std::size_t Find(std::uint32_t p, const std::string& key) const {
    const auto it = index_.find(Id(p, key));
    return it == index_.end() ? KeyTable::npos : it->second;
  }

  bool Extract(std::uint32_t p, const std::string& key, Entry* out) {
    const auto it = index_.find(Id(p, key));
    if (it == index_.end()) return false;
    const std::size_t i = it->second;
    index_.erase(it);
    *out = std::move(entries_[i]);
    if (i + 1 != entries_.size()) {
      entries_[i] = std::move(entries_.back());
      index_[Id(entries_[i].partition, entries_[i].key)] = i;
    }
    entries_.pop_back();
    return true;
  }

  void Clear() {
    entries_.clear();
    index_.clear();
  }

  std::vector<Entry>& entries() { return entries_; }

 private:
  static std::string Id(std::uint32_t p, const std::string& key) {
    return std::to_string(p) + ':' + key;
  }

  const Aggregator* agg_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

// Keys of length 0..40 over {\0, a, \xff}, half of them sharing one of two
// 8-byte stems.
std::vector<std::string> DifferentialKeys(Rng& rng) {
  const std::string stems[] = {std::string("stem\0abc", 8), "\xff\xff\xff\xff"
                                                            "aaaa"};
  const char alphabet[] = {'\0', 'a', '\xff'};
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    std::string key;
    std::size_t len = rng.Uniform(41);
    if (rng.Uniform(2) == 0 && len >= 8) {
      key = stems[rng.Uniform(2)];
      len -= 8;
    }
    for (std::size_t j = 0; j < len; ++j) key += alphabet[rng.Uniform(3)];
    keys.push_back(std::move(key));
  }
  return keys;
}

void ExpectSameEntries(const KeyTable& table, Model& model) {
  ASSERT_EQ(table.size(), model.entries().size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& e = model.entries()[i];
    ASSERT_EQ(table.key(i), Slice(e.key)) << "entry " << i;
    ASSERT_EQ(table.partition(i), e.partition) << "entry " << i;
    ASSERT_EQ(table.state(i), Slice(e.state)) << "entry " << i;
    ASSERT_EQ(table.marked(i), e.marked) << "entry " << i;
  }
  // Ascending partition, insertion order within one.
  std::vector<std::uint32_t> by_partition(table.size());
  std::iota(by_partition.begin(), by_partition.end(), 0u);
  std::stable_sort(by_partition.begin(), by_partition.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return model.entries()[a].partition <
                            model.entries()[b].partition;
                   });
  EXPECT_EQ(table.ByPartition(), by_partition);
  EXPECT_EQ(table.MemoryBytes() == 0, table.empty());
}

// A fold of a random value (or of its lifted state) into table and model.
std::size_t FoldBoth(KeyTable& table, Model& model, const Aggregator* agg,
                     Rng& rng, std::uint32_t p, std::uint64_t hash,
                     const std::string& key) {
  const bool value_is_state = rng.Uniform(2) == 0;
  const std::string value = EncodeValueU64(rng.Uniform(1000));
  std::string lifted;
  if (value_is_state) agg->Init(value, &lifted);
  const Slice v = value_is_state ? Slice(lifted) : Slice(value);
  const std::size_t i = table.Fold(p, hash, key, v, value_is_state);
  EXPECT_EQ(i, model.Fold(p, key, v, value_is_state));
  return i;
}

// As the state store and the stream workers use the table: partition 0,
// BytesHash(key), and Find and Extract beside the folds.
void RunDifferential(const Aggregator* agg, std::uint64_t seed) {
  Rng rng(seed);
  const auto keys = DifferentialKeys(rng);
  KeyTable table(agg);
  Model model(agg);
  std::string state;
  std::size_t peak = 0;
  for (int op = 0; op < 40'000; ++op) {
    peak = std::max(peak, table.size());
    const std::string& key = keys[rng.Uniform(keys.size())];
    const std::uint64_t r = rng.Uniform(100);
    if (r < 60) {
      const std::size_t i =
          FoldBoth(table, model, agg, rng, 0, BytesHash(key), key);
      ASSERT_FALSE(::testing::Test::HasFailure());
      if (rng.Uniform(8) == 0) {
        table.Mark(i);
        model.entries()[i].marked = true;
      }
    } else if (r < 78) {
      Model::Entry gone;
      bool marked = false;
      const bool found = table.Extract(key, &state, &marked);
      ASSERT_EQ(found, model.Extract(0, key, &gone));
      if (found) {
        EXPECT_EQ(state, gone.state);
        EXPECT_EQ(marked, gone.marked);
      }
    } else if (r < 96) {
      ASSERT_EQ(table.Find(key), model.Find(0, key));
    } else if (r < 99) {
      ExpectSameEntries(table, model);
    } else if (rng.Uniform(20) == 0) {
      table.Clear();
      model.Clear();
      EXPECT_EQ(table.MemoryBytes(), 0u);
    }
  }
  ExpectSameEntries(table, model);
  // 16 slots at first; 256 entries need five growths.
  EXPECT_GT(peak, 256u);

  // Extracting every key empties the table and frees its storage.
  while (!model.entries().empty()) {
    const auto e = model.entries().back();
    Model::Entry gone;
    ASSERT_TRUE(table.Extract(e.key, &state));
    ASSERT_TRUE(model.Extract(0, e.key, &gone));
  }
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

// As the map task uses the table: three partitions, the partition hash
// BytesHash(key, kPartitionSeed), folds, ByPartition and Clear.
void RunPartitionedDifferential(const Aggregator* agg, std::uint64_t seed) {
  Rng rng(seed);
  const auto keys = DifferentialKeys(rng);
  KeyTable table(agg);
  Model model(agg);
  std::size_t peak = 0;
  for (int op = 0; op < 20'000; ++op) {
    peak = std::max(peak, table.size());
    const auto p = static_cast<std::uint32_t>(rng.Uniform(3));
    const std::string& key = keys[rng.Uniform(keys.size())];
    const std::uint64_t r = rng.Uniform(100);
    if (r < 97) {
      FoldBoth(table, model, agg, rng, p, BytesHash(key, kPartitionSeed),
               key);
    } else if (r < 99) {
      ExpectSameEntries(table, model);
    } else if (rng.Uniform(20) == 0) {
      table.Clear();
      model.Clear();
      EXPECT_EQ(table.MemoryBytes(), 0u);
    }
  }
  ExpectSameEntries(table, model);
  EXPECT_GT(peak, 256u);
  table.Clear();
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

TEST(KeyTable, MatchesModelWithInlineU64States) {
  SumAggregator sum;
  RunDifferential(&sum, 11);
  RunPartitionedDifferential(&sum, 14);
  MaxAggregator max;
  RunDifferential(&max, 12);
  RunPartitionedDifferential(&max, 15);
}

TEST(KeyTable, MatchesModelWithGenericStates) {
  AvgAggregator avg;
  RunDifferential(&avg, 13);
  RunPartitionedDifferential(&avg, 16);
}

// Keys extracted while others stay resident (hot-key demotion) leave dead
// bytes in the arena; compaction keeps the arena within twice the live key
// bytes plus a few 64 KiB chunks, and the resident keys stay intact.
TEST(KeyTable, ExtractedKeysAreCompactedAway) {
  SumAggregator sum;
  KeyTable table(&sum);
  for (int i = 0; i < 64; ++i) {
    table.Fold("resident-" + std::to_string(i), EncodeValueU64(i), false);
  }
  std::string state;
  for (int i = 0; i < 50'000; ++i) {
    const std::string key = "transient-key-" + std::to_string(i);
    table.Fold(key, EncodeValueU64(i), false);
    ASSERT_TRUE(table.Extract(key, &state));
    ASSERT_EQ(DecodeValueU64(state), static_cast<std::uint64_t>(i));
  }
  std::size_t live = 0;
  for (std::size_t i = 0; i < table.size(); ++i) live += table.key(i).size();
  EXPECT_LE(table.ArenaBytes(), 2 * live + 3 * (64u << 10));
  ASSERT_EQ(table.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    const std::size_t at = table.Find("resident-" + std::to_string(i));
    ASSERT_NE(at, KeyTable::npos) << i;
    EXPECT_EQ(DecodeValueU64(table.state(at)), static_cast<std::uint64_t>(i));
  }
}

// --- Value lists and accounting ----------------------------------------------

TEST(KeyTable, ValueListsKeepArrivalOrderPerKey) {
  KeyTable table;
  table.Add("b", "1");
  table.Add("a", "2");
  table.Add(Slice("", 0), "3");
  table.Add("b", "4");
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.key(0), Slice("b"));
  EXPECT_EQ(table.key(1), Slice("a"));
  EXPECT_EQ(table.key(2), Slice("", 0));
  ASSERT_EQ(table.values(0).size(), 2u);
  EXPECT_EQ(table.values(0)[0], Slice("1"));
  EXPECT_EQ(table.values(0)[1], Slice("4"));
  EXPECT_EQ(table.Find(Slice("", 0)), 2u);
  std::string state;
  EXPECT_THROW(table.Extract("a", &state), std::logic_error);
  EXPECT_GT(table.MemoryBytes(), 0u);
  table.Clear();
  EXPECT_EQ(table.MemoryBytes(), 0u);
}

TEST(KeyTable, MemoryBytesChargesEntriesKeysAndSlots) {
  SumAggregator sum;
  AvgAggregator avg;
  KeyTable inline_states(&sum, /*initial_slots=*/64);
  KeyTable generic_states(&avg, /*initial_slots=*/64);
  for (int i = 0; i < 10; ++i) {
    const std::string key = "key-" + std::to_string(i);  // 5 bytes
    inline_states.Fold(key, EncodeValueU64(1), false);
    generic_states.Fold(key, EncodeValueU64(1), false);
  }
  // 64 four-byte slots, ten 40-byte entries and 50 key bytes.
  EXPECT_EQ(inline_states.MemoryBytes(), 64u * 4 + 10 * 40 + 50);
  // Plus a std::string per state; 16-byte states live on the heap.
  EXPECT_GE(generic_states.MemoryBytes(),
            inline_states.MemoryBytes() + 10 * (sizeof(std::string) + 17));
}

TEST(KeyTable, FoldRejectsBadWidthOnTheInlinePathWithoutInserting) {
  SumAggregator sum;
  KeyTable table(&sum);
  EXPECT_THROW(table.Fold("k", "abcd", false), std::runtime_error);
  EXPECT_TRUE(table.empty());
  table.Fold("k", EncodeValueU64(1), false);
  EXPECT_THROW(table.Fold("k", "abcd", false), std::runtime_error);
  EXPECT_EQ(DecodeU64(table.state(0).data()), 1u);
}

}  // namespace
}  // namespace opmr
