// Transport: how shuffle frames move between a map worker group and the
// reduce group.
//
// Two implementations (paper Fig. 5's "data movement" substrate):
//
//   * LoopbackTransport — in-process, synchronous delivery.  The default;
//     preserves the single-process engine behavior (and cost model) the
//     rest of the repo was measured with.
//   * TcpTransport — localhost sockets, thread-per-connection.  Used by
//     the CLI's --transport=tcp mode, which runs the map and reduce worker
//     groups as separate OS processes.
//
// A Transport is either listening (the reduce side calls Listen and
// receives frames from every accepted connection) or dialing (the map side
// calls Connect and gets a Connection to Send on; reply frames arrive on
// the connect-time handler).  Connections are bidirectional and ordered;
// delivery is at-most-once per send attempt, with the TCP client
// retransmitting over a fresh connection when a send is dropped (injected
// conn_drop faults tear the connection down *before* any byte of the frame
// reaches the wire, so a retransmit can never duplicate delivered data).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.h"

namespace opmr::net {

class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Connection {
 public:
  virtual ~Connection() = default;

  // Sends one frame.  Thread-safe; may block on back-pressure from the OS.
  // Throws TransportError when the peer is unreachable after retries.
  virtual void Send(const Frame& frame) = 0;

  // Unused by the engine; kept only because opmrbench/trace.h overrides it.
  virtual bool SendFileFrame(FrameType type, const std::string& payload_prefix,
                             const std::string& path, std::uint64_t offset,
                             std::uint64_t length) {
    (void)type; (void)payload_prefix; (void)path; (void)offset; (void)length;
    return false;
  }

  // Half-closes the connection; buffered outbound bytes are flushed first.
  virtual void Close() = 0;
};

// Invoked once per received frame.  `from` is valid for the duration of
// the call and for as long as the connection stays open; handlers may
// Send on it (replies) from any thread.
using FrameHandler =
    std::function<void(Connection* from, Frame frame)>;

class Transport {
 public:
  virtual ~Transport() = default;

  // Server side: start delivering inbound frames to `handler`.
  virtual void Listen(FrameHandler handler) = 0;

  // Client side: open a connection; frames the peer sends back arrive on
  // `on_reply`.
  virtual std::shared_ptr<Connection> Connect(FrameHandler on_reply) = 0;

  // Printable peer address ("loopback" or "127.0.0.1:<port>").
  [[nodiscard]] virtual std::string endpoint() const = 0;

  // Stops accepting, closes every connection, joins I/O threads.
  virtual void Shutdown() = 0;

  // Frame automatically resent first whenever a client connection is
  // re-established after a drop (the Hello re-introduction).  Transports
  // without reconnection (loopback) ignore it.
  virtual void SetConnectPreamble(Frame preamble) { (void)preamble; }

  // Callback invoked right after the preamble on every client reconnect;
  // the frames it returns are resent in order before the frame that
  // triggered the reconnect.  This is the ack-window replay seam: the
  // shuffle client returns its delivered-but-unacked frames so a peer
  // crash loses nothing.  Transports without reconnection ignore it.
  virtual void SetReconnectReplay(
      std::function<std::vector<Frame>()> replay) { (void)replay; }
};

// --- Fault-injection seam ----------------------------------------------------

// Consulted by TcpTransport's client before each frame send.  `frame_seq`
// is the 1-based per-connection send ordinal, `attempt` the 1-based
// transmission attempt of that frame.  Returning true drops the send: the
// connection is torn down and the frame retransmitted on a fresh one.
// Implementations may sleep (injected network stalls).  The loopback
// transport never consults the hook — there is no wire to fail.
class NetFaultHook {
 public:
  virtual ~NetFaultHook() = default;
  virtual bool OnFrameSend(std::uint64_t frame_seq, int attempt) = 0;

  // Consulted by CoordClient before each heartbeat send.  `ordinal` is the
  // 1-based heartbeat number within the worker's current registration
  // `generation`.  Returning true suppresses the heartbeat (the lease is
  // silently not renewed), which is how heartbeat_loss faults starve the
  // failure detector.
  virtual bool OnHeartbeatSend(const std::string& worker,
                               std::uint64_t ordinal, int generation) {
    (void)worker; (void)ordinal; (void)generation;
    return false;
  }

  // Consulted by CoordClient before each Register send (`attempt` is
  // 1-based).  Returning true drops the registration — a simulated
  // network partition between worker and coordinator.
  virtual bool OnRegisterSend(const std::string& worker, int attempt) {
    (void)worker; (void)attempt;
    return false;
  }

  // Consulted by the shuffle server before APPLYING a received sequenced
  // frame (`receive_attempt` is the 1-based count of times this worker's
  // frame `seq` has been received).  Returning true discards the frame
  // after delivery and kills the connection — the peer_crash fault: the
  // bytes reached the reducer host but died unapplied, so only an
  // ack-window replay can recover them.
  virtual bool OnServerFrameApply(std::uint64_t seq, int receive_attempt) {
    (void)seq; (void)receive_attempt;
    return false;
  }
};

// Installs (or, with nullptr, removes) the process-global hook.  The
// caller keeps ownership and must uninstall before destroying the hook.
void SetNetFaultHook(NetFaultHook* hook);
[[nodiscard]] NetFaultHook* GetNetFaultHook() noexcept;

// --- Wire metric names -------------------------------------------------------
// Charged into the owning MetricRegistry by both transports; a job reads
// them from its counter delta through JobResult::Bytes.

inline constexpr const char* kNetBytesSent = "net.bytes_sent";
inline constexpr const char* kNetBytesReceived = "net.bytes_received";
inline constexpr const char* kNetFramesSent = "net.frames_sent";
inline constexpr const char* kNetFramesReceived = "net.frames_received";
inline constexpr const char* kNetRetransmits = "net.retransmits";
inline constexpr const char* kNetReconnects = "net.reconnects";
inline constexpr const char* kNetStallNanos = "net.stall_nanos";
// Kernel-crossing counts for the data path: every send(2) and every read(2)
// that moved frame bytes.  The ratio syscalls/frames is the per-frame
// overhead of the socket path.
inline constexpr const char* kNetSendSyscalls = "net.send_syscalls";
inline constexpr const char* kNetRecvSyscalls = "net.recv_syscalls";

}  // namespace opmr::net
