#include "coord/registry.h"

#include <algorithm>

namespace opmr::coord {

std::uint64_t WorkerRegistry::Register(const std::string& id,
                                       const std::string& endpoint,
                                       net::WireRole role, double now_s) {
  std::scoped_lock lock(mu_);
  ++epoch_;
  for (WorkerInfo& w : workers_) {
    if (w.id != id) continue;
    w.endpoint = endpoint;
    w.role = role;
    ++w.generation;
    w.last_heartbeat_s = now_s;
    w.alive = true;
    return w.generation;
  }
  WorkerInfo w;
  w.id = id;
  w.endpoint = endpoint;
  w.role = role;
  w.generation = 1;
  w.last_heartbeat_s = now_s;
  w.alive = true;
  workers_.push_back(std::move(w));
  return 1;
}

bool WorkerRegistry::Heartbeat(const std::string& id, std::uint64_t generation,
                               double now_s) {
  std::scoped_lock lock(mu_);
  for (WorkerInfo& w : workers_) {
    if (w.id != id) continue;
    if (!w.alive || w.generation != generation) return false;
    w.last_heartbeat_s = std::max(w.last_heartbeat_s, now_s);
    return true;
  }
  return false;
}

std::vector<std::string> WorkerRegistry::ExpireLeases(double now_s,
                                                      double lease_s) {
  std::scoped_lock lock(mu_);
  std::vector<std::string> expired;
  for (WorkerInfo& w : workers_) {
    if (w.alive && now_s - w.last_heartbeat_s > lease_s) {
      w.alive = false;
      expired.push_back(w.id);
    }
  }
  if (!expired.empty()) ++epoch_;
  return expired;
}

net::MembershipMsg WorkerRegistry::Snapshot() const {
  std::scoped_lock lock(mu_);
  net::MembershipMsg msg;
  msg.epoch = epoch_;
  msg.entries.reserve(workers_.size());
  for (const WorkerInfo& w : workers_) {
    net::MembershipMsg::Entry e;
    e.worker = w.id;
    e.endpoint = w.endpoint;
    e.role = w.role;
    e.generation = w.generation;
    e.alive = w.alive;
    msg.entries.push_back(std::move(e));
  }
  return msg;
}

std::uint64_t WorkerRegistry::epoch() const {
  std::scoped_lock lock(mu_);
  return epoch_;
}

std::size_t WorkerRegistry::LiveCount(net::WireRole role) const {
  std::scoped_lock lock(mu_);
  std::size_t n = 0;
  for (const WorkerInfo& w : workers_) {
    if (w.alive && w.role == role) ++n;
  }
  return n;
}

bool WorkerRegistry::Lookup(const std::string& id, WorkerInfo* out) const {
  std::scoped_lock lock(mu_);
  for (const WorkerInfo& w : workers_) {
    if (w.id == id) {
      if (out != nullptr) *out = w;
      return true;
    }
  }
  return false;
}

}  // namespace opmr::coord
