#include <gtest/gtest.h>

#include "common/config.h"
#include "common/format.h"
#include "common/progress.h"

namespace opmr {
namespace {

Config ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  args.insert(args.begin(), "prog");
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return Config::FromArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValuePairs) {
  const auto cfg = ParseArgs({"records=100", "--name=alpha", "-x=2.5"});
  EXPECT_EQ(cfg.GetInt("records", 0), 100);
  EXPECT_EQ(cfg.GetString("name", ""), "alpha");
  EXPECT_DOUBLE_EQ(cfg.GetDouble("x", 0), 2.5);
}

TEST(Config, BareFlagIsTrue) {
  const auto cfg = ParseArgs({"--verbose"});
  EXPECT_TRUE(cfg.GetBool("verbose", false));
}

TEST(Config, DefaultsWhenAbsent) {
  const auto cfg = ParseArgs({});
  EXPECT_EQ(cfg.GetInt("missing", 7), 7);
  EXPECT_EQ(cfg.GetString("missing", "d"), "d");
  EXPECT_FALSE(cfg.GetBool("missing", false));
  EXPECT_FALSE(cfg.Get("missing").has_value());
}

TEST(Config, BoolVariants) {
  const auto cfg = ParseArgs({"a=true", "b=1", "c=yes", "d=no", "e=false"});
  EXPECT_TRUE(cfg.GetBool("a", false));
  EXPECT_TRUE(cfg.GetBool("b", false));
  EXPECT_TRUE(cfg.GetBool("c", false));
  EXPECT_FALSE(cfg.GetBool("d", true));
  EXPECT_FALSE(cfg.GetBool("e", true));
}

TEST(Config, LaterValueWins) {
  const auto cfg = ParseArgs({"k=1", "k=2"});
  EXPECT_EQ(cfg.GetInt("k", 0), 2);
}

TEST(Config, UnreadKeysNamesEveryKeyNoGetterRead) {
  const auto cfg = ParseArgs({"records=100", "--sock-buf-bytes=4096",
                              "--verbose", "typo=1", "dump-output=o.tsv"});
  EXPECT_EQ(cfg.GetInt("records", 0), 100);
  EXPECT_TRUE(cfg.Get("verbose").has_value());
  // Reading a key nobody set leaves nothing behind to report.
  EXPECT_FALSE(cfg.GetBool("compress", false));
  EXPECT_EQ(cfg.UnreadKeys(), (std::vector<std::string>{
                                  "dump-output", "sock-buf-bytes", "typo"}));
  EXPECT_EQ(cfg.GetString("dump-output", ""), "o.tsv");
  EXPECT_DOUBLE_EQ(cfg.GetDouble("typo", 0), 1.0);
  EXPECT_EQ(cfg.UnreadKeys(), std::vector<std::string>{"sock-buf-bytes"});
}

TEST(Format, HumanBytesUnits) {
  EXPECT_EQ(HumanBytes(0), "0 B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(64.0 * (1 << 20)), "64.00 MB");
  EXPECT_EQ(HumanBytes(269e9), "251 GB");  // paper's GB ~ decimal
}

TEST(Format, HumanSecondsBands) {
  EXPECT_EQ(HumanSeconds(0.002), "2.0 ms");
  EXPECT_EQ(HumanSeconds(2.5), "2.5 s");
  EXPECT_EQ(HumanSeconds(4560), "76 min.");
}

TEST(Format, Percent) {
  EXPECT_EQ(Percent(0.105), "10.5%");
  EXPECT_EQ(Percent(2.5), "250.0%");
}

TEST(Format, TextTableAlignsColumns) {
  TextTable t;
  t.AddRow({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer-name", "22"});
  const std::string out = t.ToString();
  // Header underlined, all rows present.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Column 2 starts at the same offset in the header and in every row:
  // width of "longer-name" (11) plus 2 spaces of padding = column 13.
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("a            1"), std::string::npos);
  EXPECT_NE(out.find("longer-name  22"), std::string::npos);
}

TEST(Progress, ReportsAndAggregates) {
  ProgressReporter progress(4);
  EXPECT_DOUBLE_EQ(progress.OverallProgress(), 0.0);
  progress.Report(0, 1.0);
  progress.Report(1, 0.5);
  EXPECT_NEAR(progress.TaskProgress(0), 1.0, 1e-6);
  EXPECT_NEAR(progress.TaskProgress(1), 0.5, 1e-6);
  EXPECT_NEAR(progress.OverallProgress(), 0.375, 1e-6);
}

TEST(Progress, ClampsOverflow) {
  ProgressReporter progress(1);
  progress.Report(0, 7.3);
  EXPECT_NEAR(progress.TaskProgress(0), 1.0, 1e-6);
}

TEST(Progress, EmptyIsComplete) {
  ProgressReporter progress(0);
  EXPECT_DOUBLE_EQ(progress.OverallProgress(), 1.0);
}

}  // namespace
}  // namespace opmr
