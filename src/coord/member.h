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
// HA mode: `endpoints` lists every replica of a replicated coordinator.
// On leader loss (consecutive heartbeat send failures) or a kLeaderClaim
// redirect from a standby, the client rotates to the next endpoint,
// reconnects, and re-registers under the same worker id.  The replicated
// registry still holds its record, so the new leader bumps the generation
// (continuity, never a reset to 1), no eviction fires, and in-flight
// shuffle ack windows replay exactly as on any reconnect.  Membership
// views carry the sender's leadership epoch; views from a deposed leader
// (lower epoch) are dropped — the fencing half of the election protocol.
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
    // HA endpoint list (every replica, any order).  Empty falls back to
    // {coordinator}; the client starts on the first entry and rotates on
    // failure or redirect.
    std::vector<std::string> endpoints;
    std::string worker_id;    // stable unique id for this worker process
    std::string endpoint;     // advertised host:port this worker serves on
    net::WireRole role = net::WireRole::kMap;
    std::string secret;       // shared secret for Register auth
    double heartbeat_interval_ms = 200;
    double register_retry_ms = 100;  // backoff between Register attempts
    int register_attempts = 100;     // bound on initial-join attempts
    // Consecutive heartbeat send failures before rotating endpoints (only
    // meaningful with > 1 endpoint).
    int failover_threshold = 2;
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
  // Completed endpoint failovers (re-registration confirmed by the new
  // leader).  Evictions are counted separately — a failover keeps the
  // worker's registry record alive throughout.
  [[nodiscard]] std::uint64_t failovers() const;
  // Highest leadership epoch observed in any Membership view (0 when
  // talking to an unreplicated coordinator).
  [[nodiscard]] std::uint64_t leader_epoch() const;
  [[nodiscard]] std::string current_endpoint() const;
  [[nodiscard]] bool failed() const;
  [[nodiscard]] std::string error() const;

  // Blocks until the view holds >= n live workers of `role`; fills `out`
  // (sorted by worker id) when provided.  False on timeout.
  bool WaitForRole(net::WireRole role, std::size_t n, double timeout_s,
                   std::vector<net::MembershipMsg::Entry>* out = nullptr);

 private:
  enum class SendResult { kSent, kSuppressed, kUnreachable };

  void HandleReply(net::Connection* from, net::Frame frame);
  void HeartbeatLoop();
  // Sends one Register through the OnRegisterSend gate.
  SendResult SendRegisterOnce(int attempt);
  // Tears down the current transport and dials `target` (empty = the next
  // endpoint in the rotation).  Only called from the Join thread before
  // the heartbeat thread starts, or from the heartbeat thread after.
  // Returns false when the dial failed (conn_ left empty).
  bool RotateTransport(const std::string& target);

  Options options_;
  MetricRegistry* metrics_;
  Counter* heartbeats_sent_ = nullptr;
  Counter* heartbeats_suppressed_ = nullptr;
  Counter* registers_sent_ = nullptr;
  Counter* registers_suppressed_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* failovers_ = nullptr;
  Counter* fenced_views_ = nullptr;

  std::vector<std::string> endpoints_;
  std::size_t active_ = 0;  // index into endpoints_ (Join/heartbeat thread)
  std::unique_ptr<net::TcpTransport> transport_;
  std::shared_ptr<net::Connection> conn_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool stopping_ = false;
  bool failed_ = false;
  std::string error_;
  net::MembershipMsg view_;
  std::string current_endpoint_;
  std::uint64_t generation_ = 0;   // 0 = not yet confirmed registered
  std::uint64_t heartbeat_seq_ = 0;  // ordinal within the current generation
  std::uint64_t leader_epoch_seen_ = 0;
  bool evicted_ = false;           // view says we are dead; must re-register
  int rejoin_attempt_ = 0;
  bool notify_evicted_ = false;    // rejoin confirmed; fire on_evicted
  std::uint64_t eviction_count_ = 0;
  // Failover machinery.
  bool pending_switch_ = false;    // rotate endpoints at the next tick
  std::string switch_target_;      // redirect destination ("" = rotate)
  // Endpoint we just abandoned for send failures.  A standby that has not
  // yet noticed the leader's death redirects us straight back to it;
  // dialing a dead endpoint costs the full connect backoff, so redirects
  // naming this endpoint are ignored until a registration is confirmed.
  std::string avoid_endpoint_;
  bool rejoining_ = false;         // re-register against the new leader
  int hb_failures_ = 0;            // consecutive heartbeat send failures
  std::uint64_t failover_count_ = 0;
  std::function<void()> on_evicted_;
  std::thread heartbeat_thread_;
};

}  // namespace opmr::coord
