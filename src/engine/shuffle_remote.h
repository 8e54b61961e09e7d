// Remote shuffle endpoints: the map-side client and reduce-side server
// that carry ShuffleMapEndpoint calls over a net::Transport connection.
//
// The client serialises every RegisterFile / RegisterSegment / TryPush /
// MapTaskDone call into typed wire frames; the server deserialises them
// back into calls on the in-process ShuffleService.  Back-pressure is a
// credit protocol that mirrors the service's bounded per-reducer queues:
// the client starts with `push_queue_chunks` credits per reducer, spends
// one per pushed chunk, and earns one back when the server observes the
// reducer consume a chunk for the first time.  A reducer that terminally
// fails is announced with a Gone frame so the mapper group fails fast
// (paper Table III) instead of pushing into a dead queue.
//
// Delivery is exactly-once via per-chunk sequence acks: every data frame
// carries a client-assigned 1-based seq, the client keeps a way to rebuild
// each frame in a replay window until the server's cumulative Ack covers
// it (a reference to the payload's file on disk, never the payload), and the
// server applies frames strictly in seq order against a per-worker
// watermark (dups re-acked and skipped, gaps discarded unacked).  When a
// reducer-side crash kills the connection after delivery but before
// apply, the client's reconnect replays exactly the unacked window — the
// job survives instead of failing, and only the idle-timeout watchdog is
// left as a last-resort fallback.
//
// The server accepts any number of mapper-group connections (cluster
// mode): each Hello binds a worker id — authenticated against the shared
// secret when one is configured — and credits are routed back to the
// worker that pushed the consumed chunk.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/shuffle.h"
#include "metrics/counters.h"
#include "net/transport.h"
#include "net/wire.h"
#include "storage/file_manager.h"
#include "storage/io.h"

namespace opmr {

// Ack-protocol metric names (client side; the server folds a remote
// client's values in from its Bye frame, like the other wire metrics).
inline constexpr const char* kShuffleAckReplays = "shuffle.ack_replays";
inline constexpr const char* kShuffleAckReplayedFrames =
    "shuffle.ack_replayed_frames";
inline constexpr const char* kShuffleDupFrames = "shuffle.dup_frames";

// Map-side endpoint: one instance (and one Transport connection) per map
// worker group.  Thread-safe — map worker threads share it.
class ShuffleClient final : public ShuffleMapEndpoint {
 public:
  struct Options {
    std::string job;
    int num_map_tasks = 0;
    int num_reducers = 0;
    // Initial credits per reducer; must equal the server-side
    // ShuffleService's push_queue_chunks for back-pressure parity.
    std::size_t push_queue_chunks = 0;
    // Both worker groups see the same filesystem: register segments as
    // path descriptors (SegmentRef) instead of shipping bytes inline.
    bool shared_fs = true;
    // Cluster-mode identity carried in Hello: the registered worker id
    // this connection belongs to (empty in the single-client local
    // modes) and the shared shuffle secret (empty = no auth).
    std::string worker;
    std::string auth;
    // Finish() waits this long for the replay window to drain before
    // forcing one replay and sending Bye regardless.
    double ack_drain_s = 5.0;
  };

  ShuffleClient(net::Transport* transport, MetricRegistry* metrics,
                Options options);

  void RegisterFile(const MapOutputFile& file) override;
  void RegisterSegment(int map_task, const std::filesystem::path& path,
                       int reducer, const Segment& segment,
                       bool sorted) override;
  PushResult TryPush(int reducer, ShuffleItem chunk) override;
  void MapTaskDone(int map_task, std::uint64_t input_records,
                   std::uint64_t output_records) override;

  // Resends every delivered-but-unacked frame.  Safe (the server's seq
  // watermark absorbs duplicates) and idempotent; fired by the membership
  // layer after an eviction/rejoin, when the reduce side may have lost
  // this client's tail.
  void ReplayUnacked();

  // Frames still awaiting acknowledgement (0 once the server applied
  // everything).
  [[nodiscard]] std::size_t UnackedFrames() const;

  // Orderly close: waits (bounded) for the ack window to drain, then
  // sends Bye with this side's wire counters.  Idempotent.
  void Finish();

  // Failure close: relays the failure so the reduce group can abort
  // instead of waiting out its idle timeout.  Idempotent with Finish.
  void SendAbort(const std::string& reason);

 private:
  // Builds the frame for a given seq.  Must return the same bytes on every
  // call with the same seq.
  using FrameBuilder = std::function<net::Frame(std::uint64_t seq)>;

  // One delivered-but-unacked frame.  The window holds no payloads: a data
  // frame's builder re-reads the immutable map output file when a replay
  // needs the bytes again.
  struct WindowEntry {
    std::uint64_t seq = 0;
    FrameBuilder rebuild;

    [[nodiscard]] net::Frame Materialize() const { return rebuild(seq); }
  };

  void HandleReply(net::Connection* from, net::Frame frame);
  void SendSegment(int map_task, const std::filesystem::path& path,
                   int reducer, const Segment& segment, bool sorted);
  // Assigns the next seq, parks `rebuild` in the replay window, and sends
  // the frame `first` builds for that seq (the same bytes `rebuild` would
  // produce).  Serialised under seq_mu_, so the window is always
  // seq-contiguous.
  void SendSequenced(const FrameBuilder& first, FrameBuilder rebuild);
  // Throws if the server announced job abort.
  void CheckAborted();

  net::Transport* transport_;
  MetricRegistry* metrics_;
  Options options_;
  std::shared_ptr<net::Connection> conn_;
  Counter* ack_replays_ = nullptr;
  Counter* ack_replayed_frames_ = nullptr;

  // Lock order: seq_mu_ then mu_.  seq_mu_ serialises seq assignment with
  // the send itself (frames must hit the wire in seq order) and is never
  // taken by the reply path; mu_ guards the window/credit state and is
  // never held across a Send — a blocked send can be joining the reader
  // thread, which needs mu_ to deliver Acks.
  std::mutex seq_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::size_t> credits_;
  std::vector<bool> gone_;
  bool aborted_ = false;
  std::string abort_reason_;
  bool closed_ = false;
  std::uint64_t next_seq_ = 0;
  // Sent frames awaiting acknowledgement, in seq order.
  std::deque<WindowEntry> window_;
};

// Reduce-side endpoint: applies inbound frames to the job's ShuffleService
// and replies with Ack / Credit / Gone frames.
class ShuffleServer {
 public:
  ShuffleServer(net::Transport* transport, ShuffleService* shuffle,
                FileManager* files, MetricRegistry* metrics,
                bool merge_client_wire_stats);
  ~ShuffleServer();

  ShuffleServer(const ShuffleServer&) = delete;
  ShuffleServer& operator=(const ShuffleServer&) = delete;

  // Shared secret Hello frames must carry.  Set before Start(); empty
  // (default) disables authentication.
  void SetAuthSecret(std::string secret) { secret_ = std::move(secret); }

  // Installs the consume/gone probes on the ShuffleService and starts
  // listening on the transport.
  void Start();

  // Map-side stats accumulated from MapDone frames.
  [[nodiscard]] std::uint64_t map_input_records() const;
  [[nodiscard]] std::uint64_t map_output_records() const;

  // Blocks (bounded) until every connected client's Bye has been applied,
  // so the job report assembled right after reduce completion includes the
  // client-side wire counters.  The race is structural: a fast reduce tail
  // can beat the Bye by a few milliseconds.  Returns once all Byes arrived or the timeout expires
  // (crashed clients never send one).
  void WaitClientsFinished(double timeout_s);

 private:
  // Per mapper-group client, keyed by the Hello worker id ("" in the
  // single-client local modes).
  struct ClientState {
    net::Connection* conn = nullptr;
    // Spill file receiving this client's inline SegmentData payloads.
    std::unique_ptr<SequentialWriter> spill;
    // Highest seq applied for this worker; dups at or below are skipped
    // and re-acked, gaps above +1 discarded unacked.
    std::uint64_t applied_upto = 0;
    // Receive-attempt counts per seq, tracked only while a fault hook is
    // installed (peer_crash budgets receive attempts).
    std::map<std::uint64_t, int> recv_attempts;
  };

  void HandleFrame(net::Connection* from, net::Frame frame);
  // Pre-apply admission for a sequenced frame: dedup/gap check and the
  // peer_crash fault gate.  Returns true when the caller should apply the
  // frame (and then advance the watermark via AckApplied).
  bool AdmitSequenced(net::Connection* from, std::uint64_t seq);
  // Advances the sender's applied watermark past `seq` and sends the
  // cumulative Ack.
  void AckApplied(net::Connection* from, std::uint64_t seq);
  void RecordTaskOwner(net::Connection* from, int map_task);
  void SendTo(net::Connection* conn, const net::Frame& frame);
  // The connection bound to the worker that owns `map_task` (credit
  // routing); null when unknown.
  net::Connection* TaskOwnerConn(int map_task);
  void Broadcast(const net::Frame& frame);

  net::Transport* transport_;
  ShuffleService* shuffle_;
  FileManager* files_;
  MetricRegistry* metrics_;
  const bool merge_client_wire_stats_;
  Counter* dup_frames_ = nullptr;
  Counter* auth_failures_ = nullptr;
  std::string secret_;

  mutable std::mutex mu_;
  std::condition_variable bye_cv_;
  std::size_t byes_received_ = 0;
  std::map<std::string, ClientState> clients_;
  std::map<net::Connection*, std::string> conn_worker_;
  std::map<int, std::string> task_owner_;  // map task -> worker id
  std::uint64_t map_input_records_ = 0;
  std::uint64_t map_output_records_ = 0;
};

}  // namespace opmr
