// Coordinator: the cluster's rendezvous point.
//
// Workers announce themselves with Register frames (id, advertised
// endpoint, role) and re-send them on a timer.  The coordinator keeps one
// entry per id and broadcasts a Membership view to every registered worker
// whenever the view changes.  A map worker reads its reducer's endpoint
// from that view and then runs its job without the coordinator.  A shared
// secret authenticates Register frames: a mismatch is answered with Abort
// and the worker never enters the view.
//
// There is no failure detector.  A mapper that really died is noticed by
// the reduce side's shuffle idle timeout, and a reducer-side crash is
// recovered by the shuffle's ack-window replay.  A coordinator restarted
// on the same port relearns every worker from its next announce.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/counters.h"
#include "net/transport.h"
#include "net/wire.h"

namespace opmr::coord {

class Coordinator {
 public:
  struct Options {
    std::string secret;  // empty = authentication disabled
  };

  // `transport` must already be bound (server mode); the coordinator
  // Listen()s on it.  Does not take ownership; the caller shuts the
  // transport down before destroying the coordinator.
  Coordinator(net::Transport* transport, MetricRegistry* metrics,
              Options options);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Blocks until at least `n` workers of `role` have registered and the
  // view listing them has been broadcast.  Returns false on timeout.
  bool WaitForWorkers(net::WireRole role, std::size_t n, double timeout_s);

  // The current view (entries in registration order).
  [[nodiscard]] net::MembershipMsg Snapshot() const;

 private:
  void HandleFrame(net::Connection* from, net::Frame frame);
  // Requires mu_.
  [[nodiscard]] net::MembershipMsg SnapshotLocked() const;
  [[nodiscard]] std::size_t CountLocked(net::WireRole role) const;

  net::Transport* transport_;
  Options options_;

  Counter* registers_ = nullptr;
  Counter* auth_failures_ = nullptr;

  // Held across a broadcast, so views go out in epoch order and a waiter
  // never sees a count whose view has not been sent.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<net::MembershipMsg::Entry> workers_;  // ids unique
  std::uint64_t epoch_ = 0;
  std::map<std::string, net::Connection*> member_conns_;
};

}  // namespace opmr::coord
