// PoolTree: hierarchical fair-share pools over one slot economy.
//
// Tenants (or workload classes) are arranged in a tree of named pools,
// each with a weight relative to its siblings and an optional cap on
// concurrently running jobs.  Jobs join a pool at dispatch; every slot
// grant charges usage up the pool's ancestor chain.  When a slot frees,
// the contended pick descends from the root: at each level the child
// subtree with eligible waiters that minimizes usage/weight wins, ties
// broken by pool name (lexicographically smallest), and within the chosen
// pool the earliest-admitted waiter wins.  Every input to the pick is an
// exact integer count, so the decision is a deterministic function of the
// grant history — the property the pool tests pin.
//
// The YTsaurus scheduler_pool_server is the blueprint: weights shape
// steady-state shares (two always-backlogged tenants with weights 3:1
// converge to a 3:1 slot split), quotas bound tenant concurrency, and the
// hierarchy lets an organization subdivide its share without affecting
// siblings.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace opmr::sched {

struct PoolConfig {
  std::string name;          // unique, non-empty ("" names the root)
  std::string parent;        // "" = child of the root
  double weight = 1.0;       // share relative to siblings (> 0)
  int max_running_jobs = 0;  // admission quota; 0 = unlimited
};

// Parses "name:weight[:max_jobs]" with an optional "parent/" prefix on the
// name (the CLI's --pool flag and the spool's pool= key share it).  Throws
// std::invalid_argument naming the offending field.
[[nodiscard]] PoolConfig ParsePoolConfig(const std::string& text);

class PoolTree {
 public:
  // A waiter in a contended pick: the job id and its admission ordinal
  // (the within-pool FIFO key).
  struct Waiter {
    int job = -1;
    std::int64_t seq = 0;
  };

  struct PoolStats {
    std::string name;
    double weight = 1.0;
    int running_jobs = 0;
    std::int64_t slots_held = 0;    // live usage (subtree total)
    std::int64_t total_grants = 0;  // cumulative slot grants (subtree total)
  };

  // Builds the tree.  Unknown parents, duplicate names, empty names, and
  // non-positive weights throw std::invalid_argument.  Parents must be
  // declared before children.
  explicit PoolTree(const std::vector<PoolConfig>& pools);

  // Job membership.  Joining an unknown pool name throws; jobs that never
  // join charge the root directly (the "" pool).
  void JoinJob(int job, const std::string& pool);
  void LeaveJob(int job);

  // Slot accounting: a grant charges one slot of usage from the job's pool
  // up to the root; a release refunds it.
  void OnGrant(int job);
  void OnRelease(int job);

  // Admission-quota accounting (the scheduler's dispatch gate).
  [[nodiscard]] bool AtJobQuota(const std::string& pool) const;
  void OnJobStart(const std::string& pool);
  void OnJobFinish(const std::string& pool);

  // The fair-share pick described above.  Returns the winning job id, or
  // -1 when `waiters` is empty.  Waiters whose jobs never joined charge
  // the root.
  [[nodiscard]] int Pick(const std::vector<Waiter>& waiters) const;

  // Per-pool usage in declaration order (root first) — the bench's
  // fair-share evidence.
  [[nodiscard]] std::vector<PoolStats> Stats() const;

  [[nodiscard]] bool HasPool(const std::string& name) const;

 private:
  struct Node {
    std::string name;
    int parent = -1;
    std::vector<int> children;  // sorted by child name (tie-break order)
    double weight = 1.0;
    int max_running_jobs = 0;
    int running_jobs = 0;          // this pool only
    std::int64_t usage = 0;        // subtree slots held
    std::int64_t total_grants = 0; // subtree cumulative grants
  };

  [[nodiscard]] int IndexOf(const std::string& name) const;  // -1 = unknown
  [[nodiscard]] int NodeOfJobLocked(int job) const;

  mutable std::mutex mu_;
  std::vector<Node> nodes_;             // [0] is the root
  std::map<std::string, int> by_name_;  // name -> node index
  std::map<int, int> job_pool_;         // job id -> node index
};

}  // namespace opmr::sched
