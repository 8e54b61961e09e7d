#include "sched/slot_pool.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace opmr::sched {

SlotPool::SlotPool(int map_slots, int reduce_slots,
                   std::size_t memory_budget_bytes, SchedPolicy policy)
    : policy_(policy),
      capacity_{map_slots, reduce_slots},
      free_{map_slots, reduce_slots},
      memory_free_(memory_budget_bytes) {
  if (map_slots < 1 || reduce_slots < 1) {
    throw std::invalid_argument("SlotPool: need at least one slot per kind");
  }
}

SlotPool::JobState& SlotPool::StateLocked(int job) {
  auto [it, inserted] = jobs_.try_emplace(job);
  if (inserted) it->second.seq = next_seq_++;
  return it->second;
}

void SlotPool::RegisterJob(int job, std::int64_t remaining_ops) {
  std::scoped_lock lock(mu_);
  StateLocked(job).remaining_ops = remaining_ops;
}

void SlotPool::UnregisterJob(int job) {
  {
    std::scoped_lock lock(mu_);
    jobs_.erase(job);
  }
  cv_.notify_all();
}

void SlotPool::ReportProgress(int job, std::int64_t remaining_ops) {
  {
    std::scoped_lock lock(mu_);
    StateLocked(job).remaining_ops = remaining_ops;
  }
  // Remaining-work ranks changed; blocked kSrw waiters must re-evaluate.
  cv_.notify_all();
}

bool SlotPool::RanksBefore(const JobState& a,
                           const JobState& b) const noexcept {
  switch (policy_) {
    case SchedPolicy::kFifo:
      break;
    case SchedPolicy::kFair:
      if (a.held != b.held) return a.held < b.held;
      break;
    case SchedPolicy::kSrw:
      if (a.remaining_ops != b.remaining_ops) {
        return a.remaining_ops < b.remaining_ops;
      }
      break;
  }
  return a.seq < b.seq;
}

int SlotPool::BestWaiterLocked(SlotKind kind) const {
  const int k = static_cast<int>(kind);
  int best = -1;
  const JobState* best_state = nullptr;
  for (const auto& [id, state] : jobs_) {
    if (state.waiting[k] == 0) continue;
    if (best_state == nullptr || RanksBefore(state, *best_state)) {
      best = id;
      best_state = &state;
    }
  }
  return best;
}

void SlotPool::Acquire(int job, SlotKind kind) {
  const int k = static_cast<int>(kind);
  std::unique_lock lock(mu_);
  StateLocked(job).waiting[k] += 1;
  const auto ready = [&] {
    return free_[k] > 0 && BestWaiterLocked(kind) == job;
  };
  if (!ready()) {
    ++stats_.waits;
    const auto begin = std::chrono::steady_clock::now();
    cv_.wait(lock, ready);
    stats_.wait_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
  }
  JobState& state = StateLocked(job);
  state.waiting[k] -= 1;
  state.held += 1;
  free_[k] -= 1;
  const int in_use = capacity_[k] - free_[k];
  if (kind == SlotKind::kMap) {
    ++stats_.map_grants;
    stats_.peak_map_in_use = std::max(stats_.peak_map_in_use, in_use);
  } else {
    ++stats_.reduce_grants;
    stats_.peak_reduce_in_use = std::max(stats_.peak_reduce_in_use, in_use);
  }
  lock.unlock();
  // A grant changes the kFair ranking (this job now holds one more slot),
  // so other waiters re-evaluate who is next.
  cv_.notify_all();
}

void SlotPool::Release(int job, SlotKind kind) {
  const int k = static_cast<int>(kind);
  {
    std::scoped_lock lock(mu_);
    free_[k] += 1;
    if (auto it = jobs_.find(job); it != jobs_.end()) it->second.held -= 1;
  }
  cv_.notify_all();
}

bool SlotPool::TryReserveMemory(std::size_t bytes) {
  std::scoped_lock lock(mu_);
  if (bytes > memory_free_) return false;
  memory_free_ -= bytes;
  return true;
}

void SlotPool::ReleaseMemory(std::size_t bytes) {
  {
    std::scoped_lock lock(mu_);
    memory_free_ += bytes;
  }
  cv_.notify_all();
}

SlotPool::Stats SlotPool::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace opmr::sched
