#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/opmr.h"
#include "engine/aggregators.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"
#include "workloads/webdocs.h"

namespace opmr {
namespace {

class CollectingOutput final : public OutputCollector {
 public:
  void Emit(Slice key, Slice value) override {
    rows.emplace_back(key.ToString(), value.ToString());
  }
  std::vector<std::pair<std::string, std::string>> rows;
};

class WorkloadsTest : public ::testing::Test {
 protected:
  WorkloadsTest() : platform_({.num_nodes = 2, .block_bytes = 256u << 10}) {}

  std::vector<std::string> ReadAll(const std::string& name) {
    std::vector<std::string> out;
    for (const auto& block : platform_.dfs().ListBlocks(name)) {
      auto reader = platform_.dfs().OpenBlock(block);
      Slice record;
      while (reader->Next(&record)) out.push_back(record.ToString());
    }
    return out;
  }

  Platform platform_;
};

TEST_F(WorkloadsTest, ClickTextRecordsParse) {
  ClickStreamOptions gen;
  gen.num_records = 1'000;
  GenerateClickStream(platform_.dfs(), "clicks", gen);
  const auto records = ReadAll("clicks");
  ASSERT_EQ(records.size(), 1'000u);
  std::uint64_t last_ts = 0;
  for (const auto& line : records) {
    const auto click = ParseClick(line, ClickFormat::kText);
    EXPECT_GE(click.timestamp, last_ts) << "timestamps must be non-decreasing";
    last_ts = click.timestamp;
    EXPECT_LT(click.user, gen.num_users);
    EXPECT_LT(click.url, gen.num_urls);
  }
}

TEST_F(WorkloadsTest, ClickBinaryFormatRoundTrips) {
  ClickStreamOptions gen;
  gen.num_records = 500;
  gen.format = ClickFormat::kBinary;
  gen.seed = 777;
  GenerateClickStream(platform_.dfs(), "bin", gen);

  gen.format = ClickFormat::kText;
  GenerateClickStream(platform_.dfs(), "txt", gen);

  const auto bin = ReadAll("bin");
  const auto txt = ReadAll("txt");
  ASSERT_EQ(bin.size(), txt.size());
  for (std::size_t i = 0; i < bin.size(); ++i) {
    ASSERT_EQ(bin[i].size(), kBinaryClickBytes);
    const auto b = ParseClick(bin[i], ClickFormat::kBinary);
    const auto t = ParseClick(txt[i], ClickFormat::kText);
    EXPECT_EQ(b.timestamp, t.timestamp);
    EXPECT_EQ(b.user, t.user);
    EXPECT_EQ(b.url, t.url);
  }
}

TEST_F(WorkloadsTest, GeneratorIsDeterministicPerSeed) {
  ClickStreamOptions gen;
  gen.num_records = 300;
  gen.seed = 31;
  GenerateClickStream(platform_.dfs(), "a", gen);
  GenerateClickStream(platform_.dfs(), "b", gen);
  gen.seed = 32;
  GenerateClickStream(platform_.dfs(), "c", gen);
  EXPECT_EQ(ReadAll("a"), ReadAll("b"));
  EXPECT_NE(ReadAll("a"), ReadAll("c"));
}

TEST_F(WorkloadsTest, UserSkewShowsInClickCounts) {
  ClickStreamOptions gen;
  gen.num_records = 20'000;
  gen.num_users = 1'000;
  gen.user_theta = 1.2;
  GenerateClickStream(platform_.dfs(), "skewed", gen);
  std::map<std::uint32_t, int> counts;
  for (const auto& line : ReadAll("skewed")) {
    ++counts[ParseClick(line, ClickFormat::kText).user];
  }
  // Rank 0 should dwarf a mid-tail user.
  EXPECT_GT(counts[0], 20 * std::max(1, counts[500]));
}

TEST_F(WorkloadsTest, TailMixtureAddsSingletonUsers) {
  ClickStreamOptions gen;
  gen.num_records = 50'000;
  gen.num_users = 100;
  gen.tail_fraction = 0.1;
  gen.tail_universe = 1'000'000;
  GenerateClickStream(platform_.dfs(), "tail", gen);
  std::set<std::uint32_t> head_users, tail_users;
  for (const auto& line : ReadAll("tail")) {
    const auto user = ParseClick(line, ClickFormat::kText).user;
    (user < gen.num_users ? head_users : tail_users).insert(user);
  }
  EXPECT_FALSE(tail_users.empty());
  // ~5000 tail clicks over 1M ids: almost all distinct.
  EXPECT_GT(tail_users.size(), 4'000u);
  EXPECT_LE(head_users.size(), 100u);
}

TEST_F(WorkloadsTest, WebDocsHaveDocIdAndWords) {
  WebDocsOptions gen;
  gen.num_docs = 200;
  gen.mean_doc_words = 40;
  GenerateWebDocs(platform_.dfs(), "docs", gen);
  const auto docs = ReadAll("docs");
  ASSERT_EQ(docs.size(), 200u);
  for (const auto& line : docs) {
    const auto tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos);
    EXPECT_EQ(line[0], 'd');
    EXPECT_GT(line.size(), tab + 1) << "document has no words";
  }
}

TEST_F(WorkloadsTest, KeyFormattersAreFixedWidth) {
  EXPECT_EQ(UserKey(7), "u000007");
  EXPECT_EQ(UserKey(123456), "u123456");
  EXPECT_EQ(UrlKey(42), "/page/00042.html");
  EXPECT_EQ(WordKey(3), "w000003");
}

TEST_F(WorkloadsTest, ParseClickRejectsGarbage) {
  EXPECT_THROW(ParseClick(Slice("not a click"), ClickFormat::kText),
               std::runtime_error);
  EXPECT_THROW(ParseClick(Slice("123"), ClickFormat::kText),
               std::runtime_error);
  EXPECT_THROW(ParseClick(Slice("short"), ClickFormat::kBinary),
               std::runtime_error);
}

TEST_F(WorkloadsTest, SessionizationMapEmitsUserKeyedClicks) {
  const auto spec = SessionizationJob("in", "out", 4);
  CollectingOutput out;
  spec.map("894000123\tu000042\t/page/00007.html", out);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].first, "u000042");
  EXPECT_EQ(DecodeU64(out.rows[0].second.data()), 894000123u);
  EXPECT_EQ(out.rows[0].second.substr(8), "/page/00007.html");
}

TEST_F(WorkloadsTest, SessionizationReduceCutsSessionsAtGap) {
  const auto spec = SessionizationJob("in", "out", 4, ClickFormat::kText,
                                      /*session_gap=*/100);
  // Build three clicks: two within the gap, one far beyond it.
  class Values final : public ValueIterator {
   public:
    bool Next(Slice* v) override {
      if (i_ >= 3) return false;
      payloads_[i_].clear();
      AppendU64(payloads_[i_], ts_[i_]);
      payloads_[i_] += "/u";
      *v = payloads_[i_];
      ++i_;
      return true;
    }

   private:
    std::uint64_t ts_[3] = {1'000, 1'050, 5'000};
    std::string payloads_[3];
    int i_ = 0;
  } values;

  CollectingOutput out;
  spec.reduce("u1", values, out);
  ASSERT_EQ(out.rows.size(), 3u);
  EXPECT_EQ(out.rows[0].second.substr(0, 2), "s0");
  EXPECT_EQ(out.rows[1].second.substr(0, 2), "s0");
  EXPECT_EQ(out.rows[2].second.substr(0, 2), "s1") << "gap must cut session";
}

TEST_F(WorkloadsTest, SessionizationReduceGoldenRows) {
  // Pins the "s<session>\t<ts>\t<url>" rows: tied timestamps, a gap of
  // exactly session_gap (same session) and of session_gap + 1 (new
  // session), a long url, a binary url payload and a 20-digit timestamp.
  const auto spec = SessionizationJob("in", "out", 4, ClickFormat::kText,
                                      /*session_gap=*/100);
  const std::string binary("\0\xff\x01\x02", 4);
  const std::vector<std::pair<std::uint64_t, std::string>> clicks = {
      {1'000, "/a"},
      {1'100, "/page/00042.html?ref=newsletter"},
      {1'000, "/tie"},
      {1'201, binary},
      {5'000, ""},
      {18'446'744'073'709'551'615u, "/max"},
  };
  class Values final : public ValueIterator {
   public:
    explicit Values(
        const std::vector<std::pair<std::uint64_t, std::string>>& clicks) {
      for (const auto& [ts, url] : clicks) {
        std::string payload;
        AppendU64(payload, ts);
        payloads_.push_back(payload + url);
      }
    }
    bool Next(Slice* v) override {
      if (i_ >= payloads_.size()) return false;
      *v = payloads_[i_++];
      return true;
    }

   private:
    std::vector<std::string> payloads_;
    std::size_t i_ = 0;
  } values(clicks);

  CollectingOutput out;
  spec.reduce("u1000204", values, out);
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"u1000204", "s0\t1000\t/a"},
      {"u1000204", "s0\t1000\t/tie"},
      {"u1000204", "s0\t1100\t/page/00042.html?ref=newsletter"},
      {"u1000204", "s1\t1201\t" + binary},
      {"u1000204", "s2\t5000\t"},
      {"u1000204", "s3\t18446744073709551615\t/max"},
  };
  EXPECT_EQ(out.rows, golden);
}

TEST_F(WorkloadsTest, InvertedIndexMapTracksPositions) {
  const auto spec = InvertedIndexJob("in", "out", 2);
  CollectingOutput out;
  spec.map("d001\tfoo bar foo", out);
  ASSERT_EQ(out.rows.size(), 3u);
  EXPECT_EQ(out.rows[0], std::make_pair(std::string("foo"),
                                        std::string("d001:0")));
  EXPECT_EQ(out.rows[1], std::make_pair(std::string("bar"),
                                        std::string("d001:1")));
  EXPECT_EQ(out.rows[2], std::make_pair(std::string("foo"),
                                        std::string("d001:2")));
}

TEST_F(WorkloadsTest, WordCountMapSkipsEmptyTokens) {
  const auto spec = WordCountJob("in", "out", 2);
  CollectingOutput out;
  spec.map("d1\ta  b", out);  // double space: no empty token
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0].first, "a");
  EXPECT_EQ(out.rows[1].first, "b");
}

TEST_F(WorkloadsTest, CountJobsEmitOne) {
  CollectingOutput out;
  PageFrequencyJob("i", "o", 2).map("1\tu000001\t/page/00002.html", out);
  PerUserCountJob("i", "o", 2).map("1\tu000001\t/page/00002.html", out);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0].first, "/page/00002.html");
  EXPECT_EQ(out.rows[1].first, "u000001");
  EXPECT_EQ(DecodeValueU64(out.rows[0].second), 1u);
}

}  // namespace
}  // namespace opmr
