// SlotPool: the global resource pool the multi-job scheduler leases from —
// map slots, reduce slots, and a memory budget shared by every admitted
// job.  Executors acquire slots at operation granularity through their
// SchedHooks; a blocked Acquire parks on a condition variable until the
// pool has a free slot AND the policy ranks the caller's job best among
// the waiters of that slot kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <map>
#include <mutex>

#include "sched/policy.h"

namespace opmr::sched {

class SlotPool {
 public:
  enum class SlotKind { kMap = 0, kReduce = 1 };

  struct Stats {
    std::int64_t map_grants = 0;
    std::int64_t reduce_grants = 0;
    std::int64_t waits = 0;        // acquires that had to block
    double wait_seconds = 0.0;     // total time spent blocked
    int peak_map_in_use = 0;
    int peak_reduce_in_use = 0;
  };

  SlotPool(int map_slots, int reduce_slots, std::size_t memory_budget_bytes,
           SchedPolicy policy);

  // Jobs register with an initial remaining-operations estimate (map tasks
  // + reducers); progress hooks keep it current so kSrw ranks on live
  // state.  Unknown jobs acquire under a fresh registration, so the pool
  // is usable standalone in tests.
  void RegisterJob(int job, std::int64_t remaining_ops);
  void UnregisterJob(int job);
  void ReportProgress(int job, std::int64_t remaining_ops);

  // Blocks until a slot of `kind` is granted to `job`.  Every Acquire must
  // be balanced by exactly one Release of the same kind.
  void Acquire(int job, SlotKind kind);
  void Release(int job, SlotKind kind);

  // Admission-side memory gate (non-blocking): false when the budget
  // cannot cover `bytes` right now.
  [[nodiscard]] bool TryReserveMemory(std::size_t bytes);
  void ReleaseMemory(std::size_t bytes);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] SchedPolicy policy() const noexcept { return policy_; }

 private:
  struct JobState {
    std::int64_t seq = 0;            // admission order (tie-break)
    std::int64_t remaining_ops = 0;  // kSrw rank
    int held = 0;                    // slots of both kinds held (kFair rank)
    int waiting[2] = {0, 0};         // per-kind blocked acquires
  };

  // mu_ held.  Registers `job` if unknown and returns its state.
  JobState& StateLocked(int job);
  // mu_ held.  The job id the policy ranks best among `kind` waiters, or
  // -1 when nobody waits.
  [[nodiscard]] int BestWaiterLocked(SlotKind kind) const;
  [[nodiscard]] bool RanksBefore(const JobState& a,
                                 const JobState& b) const noexcept;

  const SchedPolicy policy_;
  const int capacity_[2];
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int free_[2];
  std::size_t memory_free_;
  std::int64_t next_seq_ = 0;
  std::map<int, JobState> jobs_;
  Stats stats_;
};

}  // namespace opmr::sched
