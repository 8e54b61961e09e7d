// CoordClient: a worker's side of the rendezvous.
//
// Owns the client connection to the coordinator, announces this worker
// (an authenticated Register carrying its endpoint and role) and keeps
// the latest Membership view for the rest of the process to consult
// (shuffle endpoint discovery).  One announce thread re-sends Register
// every register_retry_ms from Join() until Stop(), so a coordinator
// restarted mid-job relearns the worker within an announce period or two.
//
// Announces run through the process-global NetFaultHook: OnRegisterSend
// can swallow one (registry_partition faults).
//
// The coordinator is not on the data path: once a map worker has found
// its reducer in the view, a job runs to the end without it.  So a lost
// coordinator must cost nothing either, least of all at Stop().  Every
// dial is one attempt and every send one transmission; the announce tick
// is the only retry loop.  A failed send drops the connection for the next
// tick to redial, and a coordinator that closed the connection is redialed
// by the next send.
#pragma once

#include <condition_variable>
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
    double register_retry_ms = 100;  // the announce period
  };

  CoordClient(MetricRegistry* metrics, Options options);
  ~CoordClient();

  CoordClient(const CoordClient&) = delete;
  CoordClient& operator=(const CoordClient&) = delete;

  // Starts the announce thread and blocks until the coordinator's view
  // lists this worker.  Throws CoordError on auth rejection or timeout
  // (and stops announcing).
  void Join(double timeout_s);

  // Stops announcing and closes the coordinator connection.
  void Stop();

  [[nodiscard]] net::MembershipMsg View() const;
  [[nodiscard]] bool failed() const;
  [[nodiscard]] std::string error() const;

  // Blocks until the view holds >= n workers of `role`; fills `out`
  // (sorted by worker id) when provided.  False on timeout.
  bool WaitForRole(net::WireRole role, std::size_t n, double timeout_s,
                   std::vector<net::MembershipMsg::Entry>* out = nullptr);

 private:
  void HandleReply(net::Connection* from, net::Frame frame);
  void AnnounceLoop();
  // Sends one Register through the OnRegisterSend gate.
  void SendRegisterOnce(int attempt);
  // Sends `frame` on the coordinator connection, dialing once first when
  // there is none; a failed send drops the connection.  False when the
  // coordinator is unreachable.  Only called from the announce thread.
  bool SendToCoordinator(const net::Frame& frame);
  void Disconnect();
  [[nodiscard]] bool ListedLocked() const;

  Options options_;
  MetricRegistry* metrics_;
  Counter* registers_sent_ = nullptr;
  Counter* registers_suppressed_ = nullptr;

  std::unique_ptr<net::TcpTransport> transport_;
  std::shared_ptr<net::Connection> conn_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool stopping_ = false;
  bool failed_ = false;
  std::string error_;
  net::MembershipMsg view_;
  // Set on every dial and whenever the coordinator closes the connection:
  // a restarted coordinator numbers its views afresh, so the first view on
  // a new connection is taken whatever its epoch.
  bool new_conn_ = true;
  std::thread announce_thread_;
};

}  // namespace opmr::coord
