// Coordinator: the cluster's membership endpoint.
//
// Serves Register / Heartbeat frames over a bound server Transport,
// maintains the WorkerRegistry, and broadcasts a Membership view to every
// registered worker whenever the view changes (register, re-register,
// lease expiry).  A shared secret authenticates Register frames: a
// mismatch is answered with Abort and the worker never enters the
// registry.
//
// Failure detection is one lease stage: a worker whose heartbeats stop
// for longer than the lease is marked dead and the next Membership
// broadcast lists it so.  Nothing is torn down — a worker that was merely
// partitioned (or had heartbeats suppressed by a fault plan) re-registers
// under a new generation and on_worker_returned fires.  A mapper that
// really died is noticed by the reduce side's shuffle idle timeout, and
// frames it sent but never saw acked are re-sent by ReplayUnacked.
//
// The registry itself is deterministic (see registry.h); the sweeper
// thread only supplies wall-clock "now" values.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "coord/registry.h"
#include "metrics/counters.h"
#include "net/transport.h"

namespace opmr::coord {

class Coordinator {
 public:
  struct Options {
    std::string secret;            // empty = authentication disabled
    double lease_s = 2.0;          // heartbeat lease before a worker is dead
    double sweep_interval_ms = 50; // failure-detector poll cadence
    // Fired from the transport's handler thread when a Register arrives
    // for an id the registry holds as dead (worker id is the argument).
    std::function<void(const std::string&)> on_worker_returned;
  };

  // `transport` must already be bound (server mode); the coordinator
  // Listen()s on it and starts the sweeper.  Does not take ownership.
  Coordinator(net::Transport* transport, MetricRegistry* metrics,
              Options options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Stops the sweeper.  The transport is the caller's to shut down.
  void Stop();

  [[nodiscard]] WorkerRegistry& registry() { return registry_; }

  // Blocks until at least `n` live workers of `role` are registered.
  // Returns false on timeout.
  bool WaitForWorkers(net::WireRole role, std::size_t n, double timeout_s);

 private:
  void HandleFrame(net::Connection* from, net::Frame frame);
  void BroadcastMembership();
  // The failure detector: every sweep_interval_ms, expires stale leases
  // and broadcasts the new view if any expired.
  void SweeperLoop();

  net::Transport* transport_;
  Options options_;
  WorkerRegistry registry_;

  Counter* registers_ = nullptr;
  Counter* heartbeats_ = nullptr;
  Counter* stale_heartbeats_ = nullptr;
  Counter* expirations_ = nullptr;
  Counter* auth_failures_ = nullptr;
  Counter* workers_returned_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::map<std::string, net::Connection*> member_conns_;
  std::thread sweeper_;
};

}  // namespace opmr::coord
