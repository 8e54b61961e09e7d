#include "coord/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace opmr::coord {

Coordinator::Coordinator(net::Transport* transport, MetricRegistry* metrics,
                         Options options)
    : transport_(transport),
      options_(std::move(options)),
      registers_(metrics->Get("coord.registers")),
      auth_failures_(metrics->Get("coord.auth_failures")) {
  transport_->Listen([this](net::Connection* from, net::Frame frame) {
    HandleFrame(from, std::move(frame));
  });
}

void Coordinator::HandleFrame(net::Connection* from, net::Frame frame) {
  if (frame.type != net::FrameType::kRegister) return;  // not ours; ignore
  net::RegisterMsg msg;
  try {
    msg = net::RegisterMsg::Parse(frame);
  } catch (const net::WireError&) {
    return;  // corrupt payload on a CRC-clean frame: the next announce wins
  }
  if (!options_.secret.empty() &&
      !net::ConstantTimeEquals(options_.secret, msg.auth)) {
    auth_failures_->Increment();
    net::AbortMsg abort;
    abort.reason = "coordinator: authentication failed for worker '" +
                   msg.worker + "'";
    try {
      from->Send(abort.ToFrame());
    } catch (const net::TransportError&) {
    }
    return;
  }
  registers_->Increment();

  std::scoped_lock lock(mu_);
  net::MembershipMsg::Entry entry{msg.worker, msg.endpoint, msg.role};
  auto it = std::find_if(workers_.begin(), workers_.end(),
                         [&](const auto& w) { return w.worker == msg.worker; });
  const bool changed = it == workers_.end() || *it != entry;
  if (it == workers_.end()) {
    workers_.push_back(std::move(entry));
  } else {
    *it = std::move(entry);
  }
  net::Connection*& conn = member_conns_[msg.worker];
  const bool new_conn = conn != from;
  conn = from;
  if (!changed && !new_conn) return;  // a plain re-announce

  std::vector<net::Connection*> targets;
  if (changed) {
    ++epoch_;
    for (const auto& [id, c] : member_conns_) targets.push_back(c);
  } else {
    targets.push_back(from);  // a reconnect: bring the sender up to date
  }
  const net::Frame view = SnapshotLocked().ToFrame();
  for (net::Connection* c : targets) {
    try {
      c->Send(view);
    } catch (const net::TransportError&) {
      // A dead worker stays listed; its next announce, if any, will come
      // on a fresh connection.
    }
  }
  cv_.notify_all();
}

net::MembershipMsg Coordinator::SnapshotLocked() const {
  net::MembershipMsg msg;
  msg.epoch = epoch_;
  msg.entries = workers_;
  return msg;
}

std::size_t Coordinator::CountLocked(net::WireRole role) const {
  return static_cast<std::size_t>(
      std::count_if(workers_.begin(), workers_.end(),
                    [role](const auto& w) { return w.role == role; }));
}

net::MembershipMsg Coordinator::Snapshot() const {
  std::scoped_lock lock(mu_);
  return SnapshotLocked();
}

bool Coordinator::WaitForWorkers(net::WireRole role, std::size_t n,
                                 double timeout_s) {
  std::unique_lock lock(mu_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return CountLocked(role) >= n; });
}

}  // namespace opmr::coord
