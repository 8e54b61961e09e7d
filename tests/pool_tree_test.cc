// Fair-share pool tests: pool config parsing, the PoolTree's weighted
// usage/weight pick (3:1 convergence, hierarchy, determinism), quota
// roll-up, and the JobScheduler holding a capped pool's next job in the
// queue.
#include "sched/pool_tree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/opmr.h"
#include "sched/scheduler.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using sched::ParsePoolConfig;
using sched::PoolTree;

// ---------------------------------------------------------------------------
// Pool config parsing and the fair-share tree
// ---------------------------------------------------------------------------

TEST(PoolConfig, ParsesEveryForm) {
  auto p = ParsePoolConfig("tenants");
  EXPECT_EQ(p.name, "tenants");
  EXPECT_EQ(p.parent, "");
  EXPECT_DOUBLE_EQ(p.weight, 1.0);
  EXPECT_EQ(p.max_running_jobs, 0);

  p = ParsePoolConfig("alpha:3.5");
  EXPECT_EQ(p.name, "alpha");
  EXPECT_DOUBLE_EQ(p.weight, 3.5);

  p = ParsePoolConfig("tenants/alpha:2:4");
  EXPECT_EQ(p.parent, "tenants");
  EXPECT_EQ(p.name, "alpha");
  EXPECT_DOUBLE_EQ(p.weight, 2.0);
  EXPECT_EQ(p.max_running_jobs, 4);

  EXPECT_THROW((void)ParsePoolConfig(""), std::invalid_argument);
  EXPECT_THROW((void)ParsePoolConfig("a:zero"), std::invalid_argument);
  EXPECT_THROW((void)ParsePoolConfig("a:-1"), std::invalid_argument);
  EXPECT_THROW((void)ParsePoolConfig("a:1:-2"), std::invalid_argument);
}

TEST(PoolTreeTest, RejectsBadTrees) {
  EXPECT_THROW(PoolTree({{"a", "nope", 1.0, 0}}), std::invalid_argument);
  EXPECT_THROW(PoolTree({{"a", "", 1.0, 0}, {"a", "", 1.0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(PoolTree({{"a", "", 0.0, 0}}), std::invalid_argument);
  EXPECT_THROW(PoolTree({{"", "", 1.0, 0}}), std::invalid_argument);
}

TEST(PoolTreeTest, WeightsConvergeToThreeToOneWithinTenPercent) {
  // Two always-backlogged tenants with weights 3:1: the grant split over a
  // long contended run must land within 10% of 3:1 — the acceptance bar.
  PoolTree tree({{"alpha", "", 3.0, 0}, {"beta", "", 1.0, 0}});
  tree.JoinJob(1, "alpha");
  tree.JoinJob(2, "beta");
  const std::vector<PoolTree::Waiter> waiters = {{1, 0}, {2, 1}};
  int alpha_grants = 0;
  constexpr int kGrants = 400;
  for (int i = 0; i < kGrants; ++i) {
    const int winner = tree.Pick(waiters);
    ASSERT_TRUE(winner == 1 || winner == 2);
    if (winner == 1) ++alpha_grants;
    tree.OnGrant(winner);  // held, never released: steady-state backlog
  }
  const double share = static_cast<double>(alpha_grants) / kGrants;
  EXPECT_NEAR(share, 0.75, 0.075) << alpha_grants << " of " << kGrants;

  const auto stats = tree.Stats();
  ASSERT_EQ(stats.size(), 3u);  // root + two tenants
  EXPECT_EQ(stats[0].name, "(root)");
  EXPECT_EQ(stats[0].total_grants, kGrants);  // usage rolls up to the root
  EXPECT_EQ(stats[1].total_grants + stats[2].total_grants, kGrants);
}

TEST(PoolTreeTest, HierarchySubdividesWithoutAffectingSiblings) {
  // org gets weight 3 vs solo's 1; inside org, a and b split 1:1.  The
  // descent charges org's subtree as one unit, so a+b together still get
  // ~3/4 of the grants.
  PoolTree tree({{"org", "", 3.0, 0},
                 {"a", "org", 1.0, 0},
                 {"b", "org", 1.0, 0},
                 {"solo", "", 1.0, 0}});
  tree.JoinJob(1, "a");
  tree.JoinJob(2, "b");
  tree.JoinJob(3, "solo");
  const std::vector<PoolTree::Waiter> waiters = {{1, 0}, {2, 1}, {3, 2}};
  int org_grants = 0;
  int a_grants = 0;
  constexpr int kGrants = 400;
  for (int i = 0; i < kGrants; ++i) {
    const int winner = tree.Pick(waiters);
    if (winner == 1 || winner == 2) ++org_grants;
    if (winner == 1) ++a_grants;
    tree.OnGrant(winner);
  }
  EXPECT_NEAR(static_cast<double>(org_grants) / kGrants, 0.75, 0.075);
  EXPECT_NEAR(static_cast<double>(a_grants) / org_grants, 0.5, 0.1);
}

TEST(PoolTreeTest, PickIsDeterministicAndPrefersEarliestWaiterInPool) {
  PoolTree tree({{"p", "", 1.0, 0}});
  tree.JoinJob(5, "p");
  tree.JoinJob(4, "p");
  // Same pool: the admission ordinal decides, not the job id.
  EXPECT_EQ(tree.Pick({{5, 7}, {4, 9}}), 5);
  EXPECT_EQ(tree.Pick({{5, 7}, {4, 9}}), 5);  // pure: no hidden state
  // Jobs that never joined charge the root's implicit direct pool, which
  // sorts before any named child on a usage tie.
  EXPECT_EQ(tree.Pick({{5, 7}, {99, 1}}), 99);
  EXPECT_EQ(tree.Pick({}), -1);
}

TEST(PoolTreeTest, QuotaRollsUpTheAncestorChain) {
  PoolTree tree({{"org", "", 1.0, 2}, {"a", "org", 1.0, 0}});
  EXPECT_FALSE(tree.AtJobQuota("a"));
  tree.OnJobStart("a");
  EXPECT_FALSE(tree.AtJobQuota("a"));
  tree.OnJobStart("org");  // a sibling job inside the same org subtree
  // a itself is uncapped, but the org ancestor is at its 2-job cap.
  EXPECT_TRUE(tree.AtJobQuota("a"));
  tree.OnJobFinish("org");
  EXPECT_FALSE(tree.AtJobQuota("a"));
}

// ---------------------------------------------------------------------------
// JobScheduler integration
// ---------------------------------------------------------------------------

// Four nodes with 64 KB blocks: several map tasks per job, so the two
// jobs' slot grants contend.
PlatformOptions SmallBlocks() {
  PlatformOptions options;
  options.num_nodes = 4;
  options.block_bytes = 64u << 10;
  return options;
}

class PlacementSchedulerTest : public ::testing::Test {
 protected:
  PlacementSchedulerTest() : platform_(SmallBlocks()) {
    ClickStreamOptions gen;
    gen.num_records = 20'000;
    gen.num_users = 800;
    GenerateClickStream(platform_.dfs(), "clicks", gen);
  }

  Platform platform_;
};

TEST_F(PlacementSchedulerTest, QuotaDefersSecondJobAndCountsReason) {
  sched::SchedulerOptions sopts;
  sopts.num_nodes = 4;
  sopts.pools = {{"capped", "", 1.0, 1}};  // one running job at a time
  sched::JobScheduler scheduler(&platform_.dfs(), &platform_.files(), sopts);
  for (int i = 0; i < 2; ++i) {
    sched::JobRequest request;
    request.id = "q" + std::to_string(i);
    request.spec =
        PerUserCountJob("clicks", "q" + std::to_string(i) + ".out", 2);
    request.options = HashOnePassOptions();
    request.pool = "capped";
    scheduler.Submit(std::move(request));
  }
  const auto reports = scheduler.Drain();
  for (const auto& report : reports) {
    EXPECT_FALSE(report.failed) << report.error;
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.peak_concurrent, 1);  // the cap serialized them
  EXPECT_GE(stats.quota_deferrals, 1);
  EXPECT_EQ(stats.placement_deferrals,
            stats.no_map_worker_deferrals + stats.no_reduce_worker_deferrals +
                stats.quota_deferrals);
  ASSERT_EQ(stats.pools.size(), 2u);  // root + capped
  EXPECT_GT(stats.pools[1].total_grants, 0);

  // Naming a pool that was never declared is an admission error.
  sched::JobRequest bad;
  bad.id = "ghost";
  bad.spec = PerUserCountJob("clicks", "ghost.out", 2);
  bad.options = HashOnePassOptions();
  bad.pool = "undeclared";
  EXPECT_THROW(scheduler.Submit(std::move(bad)), sched::AdmissionError);
}

}  // namespace
}  // namespace opmr
