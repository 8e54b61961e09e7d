// Hash-function library tests, including the empirical pairwise-independence
// properties the paper's hash techniques rely on.
#include "common/hash.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace opmr {
namespace {

std::vector<std::string> TestKeys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(i * 2654435761u));
  }
  return keys;
}

TEST(BytesHash, DeterministicAcrossCalls) {
  const Slice s("determinism");
  EXPECT_EQ(BytesHash(s), BytesHash(s));
  EXPECT_EQ(BytesHash(s, 42), BytesHash(s, 42));
}

TEST(BytesHash, SeedChangesHash) {
  const Slice s("some key");
  EXPECT_NE(BytesHash(s, 1), BytesHash(s, 2));
}

TEST(BytesHash, EmptyAndShortInputsDiffer) {
  std::set<std::uint64_t> seen;
  seen.insert(BytesHash(Slice()));
  seen.insert(BytesHash(Slice("a")));
  seen.insert(BytesHash(Slice("b")));
  seen.insert(BytesHash(Slice("ab")));
  seen.insert(BytesHash(Slice("ba")));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(BytesHash, NoCollisionsOnDistinctKeys) {
  const auto keys = TestKeys(100'000);
  std::set<std::uint64_t> hashes;
  for (const auto& k : keys) hashes.insert(BytesHash(k));
  // 64-bit hash over 1e5 keys: any collision indicates brokenness.
  EXPECT_EQ(hashes.size(), keys.size());
}

TEST(BytesHash, BucketsAreBalanced) {
  const auto keys = TestKeys(64'000);
  constexpr int kBuckets = 64;
  std::vector<int> counts(kBuckets, 0);
  for (const auto& k : keys) ++counts[BytesHash(k) % kBuckets];
  // Expected 1000 per bucket; Poisson σ≈32, allow 6σ.
  for (int c : counts) {
    EXPECT_GT(c, 1000 - 200);
    EXPECT_LT(c, 1000 + 200);
  }
}

// BytesHash as it read its tail before LoadTail: one variable-length copy.
std::uint64_t CopyTailBytesHash(Slice s, std::uint64_t seed) {
  std::uint64_t h = seed ^ (0x9e3779b97f4a7c15ULL + s.size());
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) h = detail::Mix64(h ^ detail::Load64(p, 8));
  if (n > 0) h = detail::Mix64(h ^ detail::Load64(p, n));
  return detail::Mix64(h);
}

TEST(BytesHash, TailLoadsMatchTheVariableLengthCopy) {
  Rng rng(5);
  char buf[48];
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 24; ++n) {
      const Slice s(buf + offset, n);
      if (n < 8) {
        EXPECT_EQ(detail::LoadTail(s.data(), n), detail::Load64(s.data(), n))
            << "offset " << offset << " length " << n;
      }
      EXPECT_EQ(BytesHash(s), CopyTailBytesHash(s, 0))
          << "offset " << offset << " length " << n;
      EXPECT_EQ(BytesHash(s, 0x9d5f), CopyTailBytesHash(s, 0x9d5f));
    }
  }
}

// Partition ids, spill files and sketches all derive from these values;
// they must never move silently.
TEST(BytesHash, GoldenValues) {
  EXPECT_EQ(BytesHash(Slice()), 0x9ca066f1a4ab2eeaULL);
  EXPECT_EQ(BytesHash("a"), 0xaf40120bbd949bf2ULL);
  EXPECT_EQ(BytesHash("u000001"), 0xed0de459fed80d67ULL);
  EXPECT_EQ(BytesHash("u1000204"), 0x6c641d383a52f7ceULL);
  EXPECT_EQ(BytesHash("http://example.com/page/42"), 0x307d97455792cb96ULL);
  EXPECT_EQ(BytesHash("u000001", 0x9d5f), 0x310d56cdcdc5a83fULL);
  EXPECT_EQ(BytesHash(Slice("ab\0cd", 5), 7), 0x3192b0dbccc6cfe8ULL);
}

TEST(BytesHash, LongKeysHashBlockwise) {
  std::string big(10'000, 'q');
  std::string big2 = big;
  big2[7777] = 'r';
  EXPECT_NE(BytesHash(big), BytesHash(big2));
}

TEST(MultiplyShift, MapsIntoRange) {
  MultiplyShift h(0x9e3779b97f4a7c15ULL, 12345, /*out_bits=*/10);
  for (std::uint64_t x = 0; x < 4096; ++x) {
    EXPECT_LT(h(x), 1024u);
  }
}

TEST(MultiplyShift, EmpiricalPairwiseCollisionBound) {
  // 2-universal: Pr[h(x)=h(y)] <= 1/m over random (a,b).  Estimate over
  // many function draws for a fixed pair.
  Rng rng(7);
  constexpr unsigned kBits = 8;  // m=256
  constexpr int kDraws = 20'000;
  int collisions = 0;
  for (int i = 0; i < kDraws; ++i) {
    MultiplyShift h(rng.Next(), rng.Next(), kBits);
    if (h(123456789) == h(987654321)) ++collisions;
  }
  const double rate = static_cast<double>(collisions) / kDraws;
  EXPECT_LT(rate, 2.5 / 256);  // within ~2.5x of the 1/m bound
}

TEST(TabulationHash, DeterministicPerSeed) {
  TabulationHash h1(1), h1b(1), h2(2);
  const Slice key("tabulate");
  EXPECT_EQ(h1(key), h1b(key));
  EXPECT_NE(h1(key), h2(key));
}

TEST(TabulationHash, ShortKeysOfDifferentLengthsDiffer) {
  TabulationHash h(9);
  // "a" vs "a\0" style length extensions must not collide systematically.
  const char a1[] = {'a'};
  const char a2[] = {'a', '\0'};
  EXPECT_NE(h(Slice(a1, 1)), h(Slice(a2, 2)));
}

TEST(TabulationHash, BalancedBuckets) {
  TabulationHash h(3);
  const auto keys = TestKeys(32'000);
  constexpr int kBuckets = 32;
  std::vector<int> counts(kBuckets, 0);
  for (const auto& k : keys) ++counts[h(k) % kBuckets];
  for (int c : counts) {
    EXPECT_GT(c, 1000 - 200);
    EXPECT_LT(c, 1000 + 200);
  }
}

TEST(HashFamily, MembersAreIndependentPartitioners) {
  // The hybrid-hash reducer re-partitions a colliding bucket with the next
  // family member; keys that collide under member 0 must spread under
  // member 1.
  const HashFamily family(0xfeedULL);
  const auto keys = TestKeys(50'000);
  constexpr int kBuckets = 16;

  std::vector<std::string> bucket0;
  for (const auto& k : keys) {
    if (family.Hash(0, k) % kBuckets == 3) bucket0.push_back(k);
  }
  ASSERT_GT(bucket0.size(), 1000u);

  std::vector<int> counts(kBuckets, 0);
  for (const auto& k : bucket0) ++counts[family.Hash(1, k) % kBuckets];
  const double expected = static_cast<double>(bucket0.size()) / kBuckets;
  for (int c : counts) {
    EXPECT_GT(c, expected * 0.6);
    EXPECT_LT(c, expected * 1.4);
  }
}

TEST(HashFamily, DifferentMembersDisagree) {
  const HashFamily family(1);
  int disagreements = 0;
  const auto keys = TestKeys(1000);
  for (const auto& k : keys) {
    if (family.Hash(0, k) != family.Hash(1, k)) ++disagreements;
  }
  EXPECT_EQ(disagreements, 1000);
}

TEST(TransparentStringHash, ViewAndStringAgree) {
  TransparentStringHash h;
  const std::string s = "lookup-key";
  EXPECT_EQ(h(s), h(std::string_view(s)));
}

}  // namespace
}  // namespace opmr
