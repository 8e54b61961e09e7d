// Secondary sort (grouping_prefix) tests: partition/group integrity,
// in-group value ordering, and the sessionization variant's agreement with
// the classic job.
#include <gtest/gtest.h>

#include <map>

#include "core/opmr.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

TEST(SecondarySort, ValuesArriveInFullKeyOrder) {
  Platform platform({.num_nodes = 2, .block_bytes = 128u << 10});
  // Records "group:order" — map builds composite keys <group><order>.
  auto writer = platform.dfs().Create("in");
  Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "g%03llu:%05llu",
                  static_cast<unsigned long long>(rng.Uniform(40)),
                  static_cast<unsigned long long>(rng.Uniform(100'000)));
    writer->Append(Slice(buf, 10));
  }
  writer->Close();

  JobSpec spec;
  spec.name = "ss_order";
  spec.input_file = "in";
  spec.output_file = "out";
  spec.num_reducers = 3;
  spec.grouping_prefix = 4;  // "gNNN"
  spec.map = [](Slice record, OutputCollector& out) {
    // key = gNNN + order digits; value = order digits.
    std::string key(record.data(), 4);
    key.append(record.data() + 5, 5);
    out.Emit(key, Slice(record.data() + 5, 5));
  };
  spec.reduce = [](Slice first_key, ValueIterator& values,
                   OutputCollector& out) {
    // Assert non-decreasing order inside the group; emit the count.
    std::string last;
    std::uint64_t n = 0;
    Slice v;
    while (values.Next(&v)) {
      EXPECT_LE(last, v.ToString()) << "values not ordered within group";
      last = v.ToString();
      ++n;
    }
    out.Emit(Slice(first_key.data(), 4), std::to_string(n));
  };

  platform.Run(spec, HadoopOptions());
  std::uint64_t total = 0;
  std::map<std::string, int> group_rows;
  for (const auto& [group, count] : platform.ReadOutput("out", 3)) {
    ++group_rows[group];
    total += std::stoull(count);
  }
  EXPECT_EQ(total, 5'000u);
  for (const auto& [group, rows] : group_rows) {
    EXPECT_EQ(rows, 1) << "group " << group << " split across reducers";
  }
}

TEST(SecondarySort, ValidatedAgainstHashRuntimesAndAggregators) {
  Platform platform({.num_nodes = 1, .block_bytes = 128u << 10});
  platform.dfs().Create("in")->Close();

  JobSpec spec = PerUserCountJob("in", "out", 1);  // aggregator job
  spec.grouping_prefix = 3;
  EXPECT_THROW(platform.Run(spec, HadoopOptions()), std::invalid_argument);

  JobSpec holistic = SessionizationSecondarySortJob("in", "out2", 1);
  EXPECT_THROW(platform.Run(holistic, HashOnePassOptions()),
               std::invalid_argument);
}

TEST(SecondarySort, SessionizationVariantsAgree) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 20'000;
  gen.num_users = 800;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  platform.Run(SessionizationJob("clicks", "classic", 3), HadoopOptions());
  platform.Run(SessionizationSecondarySortJob("clicks", "ss", 3),
               HadoopOptions());

  // Identical (user -> multiset of session entries); emission order within
  // a user may differ only in ties, so compare sorted lists.
  auto collect = [&](const std::string& prefix) {
    std::map<std::string, std::multiset<std::string>> out;
    for (const auto& [user, entry] : platform.ReadOutput(prefix, 3)) {
      out[user].insert(entry);
    }
    return out;
  };
  EXPECT_EQ(collect("classic"), collect("ss"));
}

TEST(SecondarySort, SessionizationVariantsAgreeOnLongUserIds) {
  // Tail visitors get ids >= 1,000,000, so user fields are 7 or 8 bytes
  // ("u000042", "u1000204"); no two users may share a group.
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 20'000;
  gen.num_users = 100;
  gen.tail_fraction = 0.5;
  gen.tail_universe = 2'000'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  platform.Run(SessionizationJob("clicks", "classic", 3), HadoopOptions());
  platform.Run(SessionizationSecondarySortJob("clicks", "ss", 3),
               HadoopOptions());

  auto collect = [&](const std::string& prefix) {
    std::map<std::string, std::multiset<std::string>> out;
    for (const auto& [user, entry] : platform.ReadOutput(prefix, 3)) {
      out[user].insert(entry);
    }
    return out;
  };
  const auto classic = collect("classic");
  std::size_t long_ids = 0;
  for (const auto& [user, entries] : classic) long_ids += user.size() > 7;
  ASSERT_GT(long_ids, 1'000u);
  EXPECT_EQ(collect("ss"), classic);
}

TEST(SecondarySort, SurvivesTinyBuffersAndMerges) {
  Platform platform({.num_nodes = 2, .block_bytes = 128u << 10});
  ClickStreamOptions gen;
  gen.num_records = 15'000;
  gen.num_users = 400;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  JobOptions tight = HadoopOptions();
  tight.map_buffer_bytes = 8u << 10;     // many map-side spills
  tight.reduce_buffer_bytes = 8u << 10;  // many reduce-side runs
  tight.merge_factor = 2;                // maximal multi-pass merging
  platform.Run(SessionizationSecondarySortJob("clicks", "ss_tight", 3),
               tight);
  platform.Run(SessionizationJob("clicks", "classic2", 3), HadoopOptions());

  auto collect = [&](const std::string& prefix) {
    std::map<std::string, std::multiset<std::string>> out;
    for (const auto& [user, entry] : platform.ReadOutput(prefix, 3)) {
      out[user].insert(entry);
    }
    return out;
  };
  EXPECT_EQ(collect("ss_tight"), collect("classic2"));
}

}  // namespace
}  // namespace opmr
