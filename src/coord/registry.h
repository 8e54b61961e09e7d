// WorkerRegistry: the coordinator's authoritative worker-group view.
//
// Pure membership bookkeeping — no sockets, no threads, no clocks.  Every
// mutation takes the caller's notion of "now" in seconds, so the failure
// detector built on top (ExpireLeases) is a deterministic function of the
// heartbeat history: replaying the same (event, timestamp) sequence yields
// the same evictions in the same order.  That determinism is what makes
// the seeded heartbeat-loss chaos tests reproducible.
//
// Lifecycle of one worker id:
//
//   Register   -> generation 1, alive              (epoch bump, broadcast)
//   Heartbeat  -> lease renewed iff generation matches the registry's
//   ExpireLeases(now) with now - last_heartbeat > lease
//              -> alive = false                    (epoch bump, broadcast)
//   Register again -> generation 2, alive          (the rejoin path)
//
// A heartbeat carrying a stale generation is rejected: the worker was
// evicted and must re-register before its lease can be renewed again.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.h"

namespace opmr::coord {

struct WorkerInfo {
  std::string id;
  std::string endpoint;  // advertised host:port
  net::WireRole role = net::WireRole::kMap;
  std::uint64_t generation = 0;
  double last_heartbeat_s = 0.0;
  bool alive = false;
};

class WorkerRegistry {
 public:
  // Adds (or re-adds) a worker; returns its new generation (1-based,
  // bumped on every re-register).  Bumps the epoch.
  std::uint64_t Register(const std::string& id, const std::string& endpoint,
                         net::WireRole role, double now_s);

  // Renews the lease iff `generation` matches the current registration and
  // the worker is alive.  Returns false for unknown / evicted / stale.
  bool Heartbeat(const std::string& id, std::uint64_t generation,
                 double now_s);

  // The deterministic failure detector: marks every live worker whose last
  // heartbeat is older than `lease_s` as dead and returns their ids in
  // registration order.  Bumps the epoch iff anything changed.
  std::vector<std::string> ExpireLeases(double now_s, double lease_s);

  // Membership view for broadcasting (entries in registration order).
  [[nodiscard]] net::MembershipMsg Snapshot() const;

  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::size_t LiveCount(net::WireRole role) const;
  [[nodiscard]] bool Lookup(const std::string& id, WorkerInfo* out) const;

 private:
  mutable std::mutex mu_;
  std::vector<WorkerInfo> workers_;  // registration order, ids unique
  std::uint64_t epoch_ = 0;
};

}  // namespace opmr::coord
