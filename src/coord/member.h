// CoordClient: a worker's membership agent.
//
// Owns the client connection to the coordinator, performs the
// authenticated Register handshake, renews the lease from a background
// heartbeat thread, and maintains the latest Membership view for the rest
// of the process to consult (shuffle endpoint discovery).
//
// Both outbound paths run through the process-global NetFaultHook:
// OnRegisterSend can swallow a registration (registry_partition faults)
// and OnHeartbeatSend can starve the lease (heartbeat_loss faults).  When
// the coordinator evicts this worker — observed either in a Membership
// broadcast or in the view echoed back after a stale heartbeat — the
// client re-registers under a fresh generation and then fires the
// on_evicted callback exactly once per eviction.  That callback is where
// ClusterExecutor hangs ShuffleClient::ReplayUnacked(), turning a
// membership flap into an ack-window replay instead of a failed job.
//
// The coordinator is not on the data path: once a map worker has found
// its reducer in the view, a job runs to the end without it.  So a lost
// coordinator must cost nothing either, least of all at Stop().  Every
// dial is one attempt and every send one transmission; the Join loop and
// the heartbeat tick are the only retry loops, and a failed send drops the
// connection for the next tick to redial.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics/counters.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "net/wire.h"

namespace opmr::coord {

class CoordError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CoordClient {
 public:
  struct Options {
    std::string coordinator;  // host:port of the coordinator endpoint
    std::string worker_id;    // stable unique id for this worker process
    std::string endpoint;     // advertised host:port this worker serves on
    net::WireRole role = net::WireRole::kMap;
    std::string secret;       // shared secret for Register auth
    double heartbeat_interval_ms = 200;
    double register_retry_ms = 100;  // backoff between Register attempts
  };

  CoordClient(MetricRegistry* metrics, Options options);
  ~CoordClient();

  CoordClient(const CoordClient&) = delete;
  CoordClient& operator=(const CoordClient&) = delete;

  // Joins the group: connects, registers (retrying through the fault
  // gate), and blocks until the coordinator's Membership confirms this
  // worker alive.  Throws CoordError on auth rejection or timeout.
  // Starts the heartbeat thread on success.
  void Join(double timeout_s);

  // Stops heartbeats and closes the coordinator connection.
  void Stop();

  // Callback fired (from the heartbeat thread, outside any CoordClient
  // lock) after each successful post-eviction re-registration.
  void SetOnEvicted(std::function<void()> cb);

  [[nodiscard]] net::MembershipMsg View() const;
  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] bool failed() const;
  [[nodiscard]] std::string error() const;

  // Blocks until the view holds >= n live workers of `role`; fills `out`
  // (sorted by worker id) when provided.  False on timeout.
  bool WaitForRole(net::WireRole role, std::size_t n, double timeout_s,
                   std::vector<net::MembershipMsg::Entry>* out = nullptr);

 private:
  void HandleReply(net::Connection* from, net::Frame frame);
  void HeartbeatLoop();
  // Sends one Register through the OnRegisterSend gate.
  void SendRegisterOnce(int attempt);
  // Sends `frame` on the coordinator connection, dialing once first when
  // there is none; a failed send drops the connection.  False when the
  // coordinator is unreachable.  Only called from the Join thread before
  // the heartbeat thread starts, or from the heartbeat thread after.
  bool SendToCoordinator(const net::Frame& frame);
  void Disconnect();

  Options options_;
  MetricRegistry* metrics_;
  Counter* heartbeats_sent_ = nullptr;
  Counter* heartbeats_suppressed_ = nullptr;
  Counter* registers_sent_ = nullptr;
  Counter* registers_suppressed_ = nullptr;
  Counter* evictions_ = nullptr;

  std::unique_ptr<net::TcpTransport> transport_;
  std::shared_ptr<net::Connection> conn_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool stopping_ = false;
  bool failed_ = false;
  std::string error_;
  net::MembershipMsg view_;
  std::uint64_t generation_ = 0;   // 0 = not yet confirmed registered
  std::uint64_t heartbeat_seq_ = 0;  // ordinal within the current generation
  bool evicted_ = false;           // view says we are dead; must re-register
  int rejoin_attempt_ = 0;
  bool notify_evicted_ = false;    // rejoin confirmed; fire on_evicted
  std::uint64_t eviction_count_ = 0;
  std::function<void()> on_evicted_;
  std::thread heartbeat_thread_;
};

}  // namespace opmr::coord
