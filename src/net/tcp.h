// TcpTransport: localhost socket transport, thread-per-connection.
//
// Two construction modes:
//
//   * Server / full: TcpTransport(metrics) + Bind().  Bind() creates the
//     listening socket (bind + listen) without spawning any thread, so a
//     CLI parent can Bind() BEFORE fork() — the child's connect() then
//     succeeds even if the parent has not started accepting yet (the
//     backlog holds it).  Listen() starts the accept/reader threads.
//     Connect() dials the transport's own endpoint (single-process mode).
//   * Client: TcpTransport(metrics, "127.0.0.1:port").  Connect() dials
//     the remote endpoint; Listen()/Bind() are invalid.
//
// The client connection consults the process-global NetFaultHook before
// each send: a dropped send tears the connection down BEFORE any byte of
// the frame reaches the wire, reconnects (resending the Hello preamble set
// via SetConnectPreamble), and retransmits — so injected connection drops
// exercise the retry path without ever duplicating delivered data.  Real
// send errors (peer reset) retry the same way, up to a bounded number of
// attempts.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/counters.h"
#include "net/transport.h"

namespace opmr::net {

class TcpServerConnection;
class TcpClientConnection;

class TcpTransport final : public Transport {
 public:
  struct Options {
    int connect_attempts = 20;       // dial retries (server may lag behind)
    double connect_backoff_ms = 25;  // linear backoff between dial attempts
    int send_attempts = 4;           // transmissions per frame before giving up
    // Server-mode addressing.  Defaults preserve the historical localhost
    // behavior; cluster mode binds "0.0.0.0" and advertises a reachable
    // address.  advertise_address feeds endpoint() (and the single-process
    // self-dial); empty means the bind address, or loopback when bound any.
    std::string bind_address = "127.0.0.1";
    int bind_port = 0;  // 0 = ephemeral
    std::string advertise_address;
  };

  explicit TcpTransport(MetricRegistry* metrics);
  TcpTransport(MetricRegistry* metrics, Options options);
  TcpTransport(MetricRegistry* metrics, std::string endpoint);
  TcpTransport(MetricRegistry* metrics, std::string endpoint, Options options);
  ~TcpTransport() override;

  // Server mode: bind 127.0.0.1 on an ephemeral port and start the listen
  // backlog.  Safe to call before fork(); idempotent.
  void Bind();

  void Listen(FrameHandler handler) override;
  std::shared_ptr<Connection> Connect(FrameHandler on_reply) override;
  [[nodiscard]] std::string endpoint() const override;
  void Shutdown() override;

  // Frame resent first on every client reconnect (the Hello re-introduction).
  void SetConnectPreamble(Frame preamble) override;

  // Frames resent after the preamble on every client reconnect (the
  // shuffle client's delivered-but-unacked window).
  void SetReconnectReplay(std::function<std::vector<Frame>()> replay) override;

 private:
  friend class TcpServerConnection;
  friend class TcpClientConnection;

  // Requires mu_.  The host part of endpoint(): advertise_address when
  // set, else the bind address (loopback when bound to the wildcard).
  [[nodiscard]] std::string AdvertisedHostLocked() const;

  MetricRegistry* metrics_;
  Options options_;

  Counter* frames_sent_ = nullptr;
  Counter* frames_received_ = nullptr;
  Counter* bytes_sent_ = nullptr;
  Counter* bytes_received_ = nullptr;
  Counter* retransmits_ = nullptr;
  Counter* reconnects_ = nullptr;
  Counter* stall_nanos_ = nullptr;
  Counter* send_syscalls_ = nullptr;
  Counter* recv_syscalls_ = nullptr;

  mutable std::mutex mu_;
  std::string remote_endpoint_;  // client mode; empty in server mode
  int listen_fd_ = -1;
  int port_ = 0;
  bool shutdown_ = false;
  FrameHandler handler_;
  std::thread accept_thread_;
  std::vector<std::shared_ptr<TcpServerConnection>> server_connections_;
  std::vector<std::shared_ptr<TcpClientConnection>> client_connections_;
  Frame preamble_;
  bool has_preamble_ = false;
  std::function<std::vector<Frame>()> reconnect_replay_;
};

}  // namespace opmr::net
