#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "net/frame.h"

namespace opmr::net {

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// The shuffle writes whole frames, so Nagle's algorithm only adds delay.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Writes the whole buffer; returns false on any socket error.  Each
// successful send(2) is charged to `syscalls` (when non-null) — the
// per-frame kernel-crossing count the ablation bench reports.
bool WriteAll(int fd, const std::string& data, Counter* syscalls = nullptr) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (syscalls != nullptr) syscalls->Increment();
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct Endpoint {
  std::string host;
  int port = 0;
};

Endpoint ParseEndpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon + 1 == text.size()) {
    throw TransportError("tcp: malformed endpoint '" + text + "'");
  }
  Endpoint ep;
  ep.host = text.substr(0, colon);
  ep.port = std::stoi(text.substr(colon + 1));
  return ep;
}

int DialOnce(const Endpoint& ep) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("tcp: bad address '" + ep.host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  SetNoDelay(fd);
  return fd;
}

}  // namespace

// --- Server-side connection --------------------------------------------------

class TcpServerConnection final : public Connection {
 public:
  TcpServerConnection(TcpTransport* owner, int fd) : owner_(owner), fd_(fd) {}

  void Start(FrameHandler handler) {
    reader_ = std::thread([this, handler = std::move(handler)] {
      {
        std::scoped_lock lock(write_mu_);
        reader_tid_ = std::this_thread::get_id();
      }
      FrameDecoder decoder;
      char buf[1 << 16];
      for (;;) {
        if (SocketClosed()) break;  // a handler closed us from this thread
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          break;  // EOF or error: peer is gone (or we are shutting down)
        }
        owner_->recv_syscalls_->Increment();
        owner_->bytes_received_->Add(n);
        decoder.Feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        DecodeStatus status;
        while ((status = decoder.Next(&frame)) == DecodeStatus::kOk) {
          owner_->frames_received_->Increment();
          handler(this, std::move(frame));
          if (SocketClosed()) break;  // don't drain past our own close
        }
        if (SocketClosed()) break;
        if (status != DecodeStatus::kNeedMore) {
          // Corrupt stream: the framing invariant is gone, drop the
          // connection (the client will reconnect and retransmit).
          break;
        }
      }
      CloseFd();
    });
  }

  void Send(const Frame& frame) override {
    const std::string bytes = EncodeFrame(frame);
    std::scoped_lock lock(write_mu_);
    if (closed_ || !WriteAll(fd_, bytes, owner_->send_syscalls_)) {
      closed_ = true;
      throw TransportError("tcp: peer connection lost");
    }
    owner_->frames_sent_->Increment();
    owner_->bytes_sent_->Add(static_cast<std::int64_t>(bytes.size()));
  }

  // External close only shutdown()s the socket: that wakes the reader out
  // of its blocked read(), and the reader — the sole thread allowed to
  // close() the fd while it is alive — releases it on the way out.  A
  // close() here would race the reader's read() on the same descriptor.
  //
  // When the caller IS the reader (a frame handler killing its own
  // connection, e.g. an injected peer crash), no concurrent read() can
  // exist, so the fd dies right here.  That close turns the peer's very
  // next write into an RST instead of leaving a half-open socket whose
  // kernel keeps ACKing writes until the reader unwinds — a window in
  // which a busy sender can finish its whole stream "successfully",
  // never see a failure, and therefore never replay what was dropped.
  void Close() override {
    std::scoped_lock lock(write_mu_);
    if (std::this_thread::get_id() == reader_tid_) {
      if (!socket_closed_) {
        ::close(fd_);
        socket_closed_ = true;
      }
    } else if (!shutdown_done_ && !socket_closed_) {
      ::shutdown(fd_, SHUT_RDWR);
      shutdown_done_ = true;
    }
    closed_ = true;
  }

  void Join() {
    if (reader_.joinable()) reader_.join();
  }

  ~TcpServerConnection() override {
    Close();
    Join();
    CloseFd();  // reader already closed it unless Start() was never called
  }

 private:
  void CloseFd() {
    std::scoped_lock lock(write_mu_);
    if (!socket_closed_) {
      ::close(fd_);
      socket_closed_ = true;
    }
    closed_ = true;
  }

  [[nodiscard]] bool SocketClosed() {
    std::scoped_lock lock(write_mu_);
    return socket_closed_;
  }

  TcpTransport* owner_;
  int fd_;
  std::mutex write_mu_;
  bool closed_ = false;
  bool shutdown_done_ = false;
  bool socket_closed_ = false;
  std::thread::id reader_tid_;
  std::thread reader_;
};

// --- Client-side connection --------------------------------------------------

class TcpClientConnection final : public Connection {
 public:
  TcpClientConnection(TcpTransport* owner, Endpoint endpoint,
                      FrameHandler on_reply)
      : owner_(owner),
        endpoint_(std::move(endpoint)),
        on_reply_(std::move(on_reply)) {
    std::scoped_lock lock(send_mu_);
    DialLocked();
    StartReaderLocked();
  }

  void Send(const Frame& frame) override {
    const std::string bytes = EncodeFrame(frame);
    std::scoped_lock lock(send_mu_);
    if (closing_) throw TransportError("tcp: connection closed");
    const std::uint64_t seq = ++send_seq_;
    for (int attempt = 1;; ++attempt) {
      if (NetFaultHook* hook = GetNetFaultHook()) {
        const std::int64_t t0 = NowNanos();
        const bool drop = hook->OnFrameSend(seq, attempt);
        owner_->stall_nanos_->Add(NowNanos() - t0);
        if (drop) {
          // Injected connection drop: tear down BEFORE any byte of this
          // frame hits the wire, then retransmit on a fresh connection.
          owner_->retransmits_->Increment();
          ReconnectLocked();
          continue;
        }
      }
      if (WriteAll(fd_, bytes, owner_->send_syscalls_)) {
        owner_->frames_sent_->Increment();
        owner_->bytes_sent_->Add(static_cast<std::int64_t>(bytes.size()));
        return;
      }
      if (attempt >= owner_->options_.send_attempts) {
        throw TransportError("tcp: send failed after " +
                             std::to_string(attempt) + " attempts");
      }
      owner_->retransmits_->Increment();
      ReconnectLocked();
    }
  }

  void Close() override {
    std::unique_lock lock(send_mu_);
    if (closing_) return;
    closing_ = true;
    const int fd = fd_;
    fd_ = -1;
    std::thread reader = std::move(reader_);
    // Half-close: FIN our side but keep reading until the server closes
    // its end.  An abrupt close() with unread inbound bytes (credits are
    // always in flight) turns into an RST, and an RST discards frames the
    // server has received but not yet read — losing data we already count
    // as delivered.
    if (fd >= 0) ::shutdown(fd, SHUT_WR);
    lock.unlock();
    if (reader.joinable()) reader.join();
    if (fd >= 0) ::close(fd);
  }

  ~TcpClientConnection() override { Close(); }

 private:
  // All Locked methods require send_mu_.
  void DialLocked() {
    for (int attempt = 1;; ++attempt) {
      fd_ = DialOnce(endpoint_);
      if (fd_ >= 0) return;
      if (attempt >= owner_->options_.connect_attempts) {
        throw TransportError("tcp: cannot connect to " + endpoint_.host + ":" +
                             std::to_string(endpoint_.port));
      }
      SleepMs(owner_->options_.connect_backoff_ms * attempt);
    }
  }

  void StartReaderLocked() {
    reader_ = std::thread([this, fd = fd_] {
      FrameDecoder decoder;
      char buf[1 << 16];
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return;  // EOF: server closed, or this generation was torn down
        }
        owner_->recv_syscalls_->Increment();
        owner_->bytes_received_->Add(n);
        decoder.Feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        DecodeStatus status;
        while ((status = decoder.Next(&frame)) == DecodeStatus::kOk) {
          owner_->frames_received_->Increment();
          on_reply_(this, std::move(frame));
        }
        if (status != DecodeStatus::kNeedMore) return;
      }
    });
  }

  void ReconnectLocked() {
    const std::int64_t t0 = NowNanos();
    // Same graceful half-close as Close(): everything written before the
    // dropped frame is part of the delivered prefix the retransmit
    // protocol relies on, so it must not be torn out of the server's
    // receive buffer by an RST.
    ::shutdown(fd_, SHUT_WR);
    if (reader_.joinable()) reader_.join();
    ::close(fd_);
    DialLocked();
    StartReaderLocked();
    owner_->reconnects_->Increment();
    // Re-introduce ourselves: the server treats each connection as a fresh
    // stream, so the Hello preamble must lead it.
    Frame preamble;
    bool has_preamble = false;
    std::function<std::vector<Frame>()> replay;
    {
      std::scoped_lock lock(owner_->mu_);
      has_preamble = owner_->has_preamble_;
      preamble = owner_->preamble_;
      replay = owner_->reconnect_replay_;
    }
    if (has_preamble) {
      const std::string bytes = EncodeFrame(preamble);
      if (!WriteAll(fd_, bytes, owner_->send_syscalls_)) {
        throw TransportError("tcp: reconnect handshake failed");
      }
      owner_->frames_sent_->Increment();
      owner_->bytes_sent_->Add(static_cast<std::int64_t>(bytes.size()));
    }
    if (replay) {
      // Ack-window replay: everything delivered on the dead connection but
      // not yet acknowledged goes out again, ahead of the frame whose send
      // triggered this reconnect.  The receiver's applied-seq watermark
      // absorbs any copies that did survive.
      for (const Frame& frame : replay()) {
        const std::string bytes = EncodeFrame(frame);
        if (!WriteAll(fd_, bytes, owner_->send_syscalls_)) {
          throw TransportError("tcp: reconnect replay failed");
        }
        owner_->frames_sent_->Increment();
        owner_->bytes_sent_->Add(static_cast<std::int64_t>(bytes.size()));
      }
    }
    owner_->stall_nanos_->Add(NowNanos() - t0);
  }

  TcpTransport* owner_;
  Endpoint endpoint_;
  FrameHandler on_reply_;
  std::mutex send_mu_;
  int fd_ = -1;
  bool closing_ = false;
  std::uint64_t send_seq_ = 0;
  std::thread reader_;
};

// --- TcpTransport ------------------------------------------------------------

TcpTransport::TcpTransport(MetricRegistry* metrics)
    : TcpTransport(metrics, Options{}) {}

TcpTransport::TcpTransport(MetricRegistry* metrics, std::string endpoint)
    : TcpTransport(metrics, std::move(endpoint), Options{}) {}

TcpTransport::TcpTransport(MetricRegistry* metrics, Options options)
    : metrics_(metrics),
      options_(options),
      frames_sent_(metrics->Get(kNetFramesSent)),
      frames_received_(metrics->Get(kNetFramesReceived)),
      bytes_sent_(metrics->Get(kNetBytesSent)),
      bytes_received_(metrics->Get(kNetBytesReceived)),
      retransmits_(metrics->Get(kNetRetransmits)),
      reconnects_(metrics->Get(kNetReconnects)),
      stall_nanos_(metrics->Get(kNetStallNanos)),
      send_syscalls_(metrics->Get(kNetSendSyscalls)),
      recv_syscalls_(metrics->Get(kNetRecvSyscalls)) {}

TcpTransport::TcpTransport(MetricRegistry* metrics, std::string endpoint,
                           Options options)
    : TcpTransport(metrics, options) {
  remote_endpoint_ = std::move(endpoint);
}

TcpTransport::~TcpTransport() { Shutdown(); }

void TcpTransport::Bind() {
  std::scoped_lock lock(mu_);
  if (!remote_endpoint_.empty()) {
    throw TransportError("tcp: Bind on a client-mode transport");
  }
  if (listen_fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("tcp: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (options_.bind_address == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                         &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("tcp: bad bind address '" + options_.bind_address +
                         "'");
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.bind_port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw TransportError("tcp: bind/listen failed on " +
                         options_.bind_address + ":" +
                         std::to_string(options_.bind_port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw TransportError("tcp: getsockname failed");
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
}

void TcpTransport::Listen(FrameHandler handler) {
  {
    std::scoped_lock lock(mu_);
    if (!remote_endpoint_.empty()) {
      throw TransportError("tcp: Listen on a client-mode transport");
    }
    if (accept_thread_.joinable()) {
      throw TransportError("tcp: Listen called twice");
    }
    handler_ = std::move(handler);
  }
  Bind();
  // The accept loop gets its own copy of the fd: Shutdown() nulls the member
  // under mu_, which this thread must never read unlocked.  Shutdown() still
  // owns closing it, after shutdown(2) has woken accept() and join returned.
  const int lfd = [this] {
    std::scoped_lock lock(mu_);
    return listen_fd_;
  }();
  accept_thread_ = std::thread([this, lfd] {
    for (;;) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener shut down
      }
      SetNoDelay(fd);
      auto conn = std::make_shared<TcpServerConnection>(this, fd);
      FrameHandler handler;
      {
        std::scoped_lock lock(mu_);
        if (shutdown_) {
          ::close(fd);
          return;
        }
        server_connections_.push_back(conn);
        handler = handler_;
      }
      conn->Start(handler);
    }
  });
}

std::shared_ptr<Connection> TcpTransport::Connect(FrameHandler on_reply) {
  Endpoint ep;
  {
    std::scoped_lock lock(mu_);
    if (!remote_endpoint_.empty()) {
      ep = ParseEndpoint(remote_endpoint_);
    } else if (listen_fd_ >= 0) {
      ep = Endpoint{AdvertisedHostLocked(), port_};  // self-dial
    } else {
      throw TransportError("tcp: Connect before Bind and without endpoint");
    }
  }
  auto conn =
      std::make_shared<TcpClientConnection>(this, ep, std::move(on_reply));
  std::scoped_lock lock(mu_);
  client_connections_.push_back(conn);
  return conn;
}

std::string TcpTransport::endpoint() const {
  std::scoped_lock lock(mu_);
  if (!remote_endpoint_.empty()) return remote_endpoint_;
  return AdvertisedHostLocked() + ":" + std::to_string(port_);
}

std::string TcpTransport::AdvertisedHostLocked() const {
  if (!options_.advertise_address.empty()) return options_.advertise_address;
  // A wildcard bind is not dialable; fall back to loopback, which matches
  // the historical single-host behavior.
  if (options_.bind_address == "0.0.0.0") return "127.0.0.1";
  return options_.bind_address;
}

void TcpTransport::SetConnectPreamble(Frame preamble) {
  std::scoped_lock lock(mu_);
  preamble_ = std::move(preamble);
  has_preamble_ = true;
}

void TcpTransport::SetReconnectReplay(
    std::function<std::vector<Frame>()> replay) {
  std::scoped_lock lock(mu_);
  reconnect_replay_ = std::move(replay);
}

void TcpTransport::Shutdown() {
  std::vector<std::shared_ptr<TcpServerConnection>> servers;
  std::vector<std::shared_ptr<TcpClientConnection>> clients;
  int listen_fd = -1;
  {
    std::scoped_lock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    servers.swap(server_connections_);
    clients.swap(client_connections_);
    listen_fd = listen_fd_;
    listen_fd_ = -1;
  }
  // shutdown(2) acts on the socket, which a forked child shares with its
  // parent, not on this process's descriptor.  Only use it to wake our own
  // accept thread; a child releasing its inherited copy just closes it and
  // leaves the parent's listener intact.
  if (listen_fd >= 0 && accept_thread_.joinable()) {
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  for (auto& conn : clients) conn->Close();
  for (auto& conn : servers) {
    conn->Close();
    conn->Join();
  }
}

}  // namespace opmr::net
