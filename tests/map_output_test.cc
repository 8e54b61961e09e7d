#include "engine/map_output.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace opmr {
namespace {

TEST(MapOutputBuffer, SortGroupsByPartitionThenKey) {
  MapOutputBuffer buffer;
  buffer.Add(1, "zebra", "1");
  buffer.Add(0, "alpha", "2");
  buffer.Add(1, "apple", "3");
  buffer.Add(0, "zulu", "4");
  buffer.Sort();

  const auto& records = buffer.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].partition, 0u);
  EXPECT_EQ(Slice(records[0].key, records[0].key_len).ToString(), "alpha");
  EXPECT_EQ(records[1].partition, 0u);
  EXPECT_EQ(Slice(records[1].key, records[1].key_len).ToString(), "zulu");
  EXPECT_EQ(records[2].partition, 1u);
  EXPECT_EQ(Slice(records[2].key, records[2].key_len).ToString(), "apple");
  EXPECT_EQ(records[3].partition, 1u);
  EXPECT_EQ(Slice(records[3].key, records[3].key_len).ToString(), "zebra");
}

TEST(MapOutputBuffer, KeyPrefixOrdering) {
  MapOutputBuffer buffer;
  buffer.Add(0, "ab", "");
  buffer.Add(0, "a", "");
  buffer.Add(0, "abc", "");
  buffer.Sort();
  const auto& r = buffer.records();
  EXPECT_EQ(Slice(r[0].key, r[0].key_len).ToString(), "a");
  EXPECT_EQ(Slice(r[1].key, r[1].key_len).ToString(), "ab");
  EXPECT_EQ(Slice(r[2].key, r[2].key_len).ToString(), "abc");
}

TEST(MapOutputBuffer, ValuesTravelWithKeys) {
  // The sort orders by key only; values of equal keys may appear in any
  // order, so compare as multisets of (key, value) pairs.
  MapOutputBuffer buffer;
  Rng rng(1);
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "k" + std::to_string(rng.Uniform(50));
    const std::string v = "v" + std::to_string(i);
    expected.emplace_back(k, v);
    buffer.Add(0, k, v);
  }
  buffer.Sort();
  std::vector<std::pair<std::string, std::string>> actual;
  for (const auto& r : buffer.records()) {
    actual.emplace_back(Slice(r.key, r.key_len).ToString(),
                        Slice(r.value(), r.value_len).ToString());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

// The comparator Sort() used before the 8-byte key prefix: partition,
// then memcmp over the shorter key, then length.
bool MemcmpLess(const MapOutputBuffer::RecordMeta& a,
                const MapOutputBuffer::RecordMeta& b) {
  if (a.partition != b.partition) return a.partition < b.partition;
  const std::size_t min_len = std::min(a.key_len, b.key_len);
  const int c = min_len == 0 ? 0 : std::memcmp(a.key, b.key, min_len);
  if (c != 0) return c < 0;
  return a.key_len < b.key_len;
}

TEST(MapOutputBuffer, PrefixSortMatchesMemcmpSort) {
  // Keys over {\0, 'a', \xff}: empty keys, embedded zero bytes, keys that
  // are prefixes of others, and long keys sharing their first 8 bytes.
  const std::string alphabet("\0a\xff", 3);
  Rng rng(42);
  auto random_bytes = [&](std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(alphabet[rng.Uniform(alphabet.size())]);
    }
    return out;
  };
  std::vector<std::string> stems;
  for (int i = 0; i < 4; ++i) stems.push_back(random_bytes(8));

  MapOutputBuffer buffer;
  for (int i = 0; i < 4'000; ++i) {
    const std::string& stem = stems[rng.Uniform(stems.size())];
    std::string key;
    switch (rng.Uniform(3)) {
      case 0: key = random_bytes(rng.Uniform(11)); break;
      case 1: key = stem + random_bytes(rng.Uniform(5)); break;
      default: key = stem.substr(0, rng.Uniform(9)); break;
    }
    buffer.Add(static_cast<std::uint32_t>(rng.Uniform(3)), key,
               std::to_string(i));
  }
  std::vector<MapOutputBuffer::RecordMeta> expected = buffer.records();
  std::sort(expected.begin(), expected.end(), MemcmpLess);
  buffer.Sort();

  // Both comparators agree on every pair, so std::sort yields the same
  // permutation: equal keys keep the same value order too.
  const auto& actual = buffer.records();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].partition, expected[i].partition) << i;
    ASSERT_EQ(Slice(actual[i].key, actual[i].key_len),
              Slice(expected[i].key, expected[i].key_len))
        << i;
    ASSERT_EQ(Slice(actual[i].value(), actual[i].value_len),
              Slice(expected[i].value(), expected[i].value_len))
        << i;
  }
  EXPECT_TRUE(std::is_sorted(actual.begin(), actual.end(), MemcmpLess));
}

TEST(MapOutputBuffer, KeyPrefixOrdersLikeTheKeys) {
  auto prefix = [](Slice key) {
    return MapOutputBuffer::KeyPrefix(key, key.size());
  };
  EXPECT_EQ(prefix(""), 0u);
  EXPECT_EQ(prefix(Slice("\0", 1)), 0u);  // ties fall back to length
  EXPECT_EQ(prefix("a"), 0x6100000000000000u);
  EXPECT_EQ(prefix("abcdefgh"), prefix("abcdefghZ"));
  EXPECT_LT(prefix("ab"), prefix(Slice("ab\x01", 3)));
  EXPECT_LT(prefix(Slice("a\x7f", 2)), prefix(Slice("a\x80", 2)));
  // With 8 readable bytes the bytes past the key are masked off.
  const char buf[] = "abcdefghij";
  for (std::size_t n = 0; n <= 10; ++n) {
    EXPECT_EQ(MapOutputBuffer::KeyPrefix(Slice(buf, n), sizeof(buf)),
              prefix(Slice(buf, n)))
        << n;
  }
}

TEST(MapOutputBuffer, MemoryAccountingAndClear) {
  MapOutputBuffer buffer;
  EXPECT_TRUE(buffer.Empty());
  buffer.Add(0, "1234", "567890");
  EXPECT_EQ(buffer.NumRecords(), 1u);
  EXPECT_GE(buffer.MemoryBytes(), 10u);
  buffer.Clear();
  EXPECT_TRUE(buffer.Empty());
  EXPECT_LT(buffer.MemoryBytes(), 10u);
}

}  // namespace
}  // namespace opmr
