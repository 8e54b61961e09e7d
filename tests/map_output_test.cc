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

  const auto& entries = buffer.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].partition, 0u);
  EXPECT_EQ(buffer.Key(entries[0]).ToString(), "alpha");
  EXPECT_EQ(entries[1].partition, 0u);
  EXPECT_EQ(buffer.Key(entries[1]).ToString(), "zulu");
  EXPECT_EQ(entries[2].partition, 1u);
  EXPECT_EQ(buffer.Key(entries[2]).ToString(), "apple");
  EXPECT_EQ(entries[3].partition, 1u);
  EXPECT_EQ(buffer.Key(entries[3]).ToString(), "zebra");
}

TEST(MapOutputBuffer, KeyPrefixOrdering) {
  MapOutputBuffer buffer;
  buffer.Add(0, "ab", "");
  buffer.Add(0, "a", "");
  buffer.Add(0, "abc", "");
  buffer.Sort();
  const auto& r = buffer.entries();
  EXPECT_EQ(buffer.Key(r[0]).ToString(), "a");
  EXPECT_EQ(buffer.Key(r[1]).ToString(), "ab");
  EXPECT_EQ(buffer.Key(r[2]).ToString(), "abc");
}

TEST(MapOutputBuffer, ValuesTravelWithKeys) {
  // Every value stays with its key: compare as multisets of (key, value)
  // pairs (the stable-sort tests below pin the order too).
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
  for (const auto& e : buffer.entries()) {
    actual.emplace_back(buffer.Key(e).ToString(), buffer.Value(e).ToString());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

// One buffered record, copied out for a reference sort.
struct Row {
  std::uint32_t partition;
  std::string key;
  std::string value;

  bool operator==(const Row&) const = default;
};

// The comparator Sort() used before the 8-byte key prefix: partition,
// then memcmp over the shorter key, then length.
bool MemcmpLess(const Row& a, const Row& b) {
  if (a.partition != b.partition) return a.partition < b.partition;
  const std::size_t min_len = std::min(a.key.size(), b.key.size());
  const int c = min_len == 0 ? 0 : std::memcmp(a.key.data(), b.key.data(),
                                               min_len);
  if (c != 0) return c < 0;
  return a.key.size() < b.key.size();
}

std::vector<Row> Rows(const MapOutputBuffer& buffer) {
  std::vector<Row> rows;
  for (const auto& e : buffer.entries()) {
    rows.push_back({e.partition, buffer.Key(e).ToString(),
                    buffer.Value(e).ToString()});
  }
  return rows;
}

// Sorts `buffer` and expects exactly std::stable_sort's permutation of its
// rows under MemcmpLess: the same order, and equal keys in insertion order.
void ExpectStableSortOrder(MapOutputBuffer& buffer) {
  std::vector<Row> expected = Rows(buffer);
  std::stable_sort(expected.begin(), expected.end(), MemcmpLess);
  buffer.Sort();
  const std::vector<Row> actual = Rows(buffer);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "position " << i;
  }
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
  // Values number the records, so equal keys must keep value order too.
  ExpectStableSortOrder(buffer);
}

TEST(MapOutputBuffer, RadixSortIsStableAcrossSizesAndPartitions) {
  // Random keys of 0-24 bytes, most sharing one of a few 8-byte stems, over
  // partition ids up to 700 (so the partition's second byte varies), at
  // sizes from empty to 30 000.
  for (const std::size_t n : {0, 1, 2, 100, 255, 256, 257, 5'000, 30'000}) {
    SCOPED_TRACE(n);
    Rng rng(n + 7);
    std::vector<std::string> stems;
    for (int i = 0; i < 6; ++i) {
      std::string stem;
      for (int b = 0; b < 8; ++b) stem.push_back(char('a' + rng.Uniform(3)));
      stems.push_back(stem);
    }
    MapOutputBuffer buffer;
    for (std::size_t i = 0; i < n; ++i) {
      std::string key;
      const std::size_t len = rng.Uniform(25);
      if (rng.Uniform(4) != 0) key = stems[rng.Uniform(stems.size())];
      key.resize(len, 'a');
      for (std::size_t b = 8; b < len; ++b) key[b] = char('a' + rng.Uniform(2));
      buffer.Add(static_cast<std::uint32_t>(rng.Uniform(701)), key,
                 std::to_string(i));
    }
    ExpectStableSortOrder(buffer);
  }
}

TEST(MapOutputBuffer, EqualKeysKeepInsertionOrder) {
  // Fixed-length 7-byte keys (equal prefix means equal key) on the radix
  // path, and 20-byte keys that tie on their prefix.
  for (const std::size_t key_len : {7, 20}) {
    MapOutputBuffer buffer;
    for (int i = 0; i < 3'000; ++i) {
      std::string key = "user" + std::to_string(100 + i % 37);
      key.resize(key_len, 'x');
      buffer.Add(static_cast<std::uint32_t>(i % 3), key, std::to_string(i));
    }
    buffer.Sort();
    const auto& entries = buffer.entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const auto& a = entries[i - 1];
      const auto& b = entries[i];
      if (a.partition == b.partition && buffer.Key(a) == buffer.Key(b)) {
        EXPECT_LT(std::stoi(buffer.Value(a).ToString()),
                  std::stoi(buffer.Value(b).ToString()))
            << "key length " << key_len << ", position " << i;
      }
    }
  }
}

TEST(MapOutputBuffer, RecordLargerThanAChunkSortsAndReadsBack) {
  MapOutputBuffer buffer;
  const std::string big(MapOutputBuffer::kChunkBytes + 100, 'v');
  Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    buffer.Add(static_cast<std::uint32_t>(rng.Uniform(2)),
               "k" + std::to_string(rng.Uniform(50)), std::to_string(i));
    if (i == 300) buffer.Add(1, "k25", big);
  }
  buffer.Add(0, std::string(9, 'k'), big);
  std::size_t bigs = 0;
  for (const auto& e : buffer.entries()) bigs += buffer.Value(e) == big;
  EXPECT_EQ(bigs, 2u);
  ExpectStableSortOrder(buffer);
}

TEST(MapOutputBuffer, FrameIsTheRunFrame) {
  MapOutputBuffer buffer;
  buffer.Add(2, "key", "value!");
  const auto& e = buffer.entries().at(0);
  std::string expected;
  AppendU32(expected, 3);
  AppendU32(expected, 6);
  expected += "keyvalue!";
  EXPECT_EQ(buffer.Frame(e).ToString(), expected);
  EXPECT_EQ(buffer.Key(e).ToString(), "key");
  EXPECT_EQ(buffer.Value(e).ToString(), "value!");
  EXPECT_EQ(e.partition, 2u);
  EXPECT_EQ(e.prefix, MapOutputBuffer::KeyPrefix("key", 3));
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
