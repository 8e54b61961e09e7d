// Typed shuffle-protocol messages carried in frame payloads.
//
// Each message's byte layout is one field list in wire.cc, encoded and
// decoded by the shared codec in common/bytes.h.  A payload that passed the
// frame CRC but is semantically truncated, padded or lying (or a CRC
// collision) surfaces as a WireError, never as UB.
//
// Protocol sketch (one mapper-group connection per job):
//
//   client (map side)                server (reduce side)
//   ----------------------------------------------------------
//   Hello{version, job, reducers} ->
//   Chunk / SegmentRef / SegmentData ->     ... applied to ShuffleService
//   MapDone{task, stats}           ->
//                                  <- Credit{reducer, n}   (back-pressure)
//                                  <- Gone{reducer}        (fail-fast)
//                                  <- Abort{reason}
//   Bye{wire stats} or Abort       ->
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "net/frame.h"

namespace opmr::net {

using WireError = DecodeError;

// Hello carries it; a peer speaking any other version is refused.
inline constexpr std::uint32_t kProtocolVersion = 10;

// Constant-time string equality for shared-secret checks (Register /
// Hello auth).  An early-exit comparison leaks, through response timing,
// how long a prefix of the guess matched; this one always walks every byte
// of `guess` and folds the differences into one accumulator.  The length
// comparison is not hidden — frame sizes reveal it anyway.
[[nodiscard]] bool ConstantTimeEquals(const std::string& secret,
                                      const std::string& guess) noexcept;

// Worker roles carried on the wire (Register / Membership).  Kept apart
// from the engine's WorkerRole so src/net stays dependency-free.
enum class WireRole : std::uint8_t {
  kMap = 0,
  kReduce = 1,
};
constexpr WireRole LastValue(WireRole) { return WireRole::kReduce; }

// Parse throws WireError unless `version` is kProtocolVersion.
struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::string job;
  std::int32_t num_map_tasks = 0;
  std::int32_t num_reducers = 0;
  // Cluster-mode identity: which registered worker this connection belongs
  // to (empty for the single-client local modes) and the shared secret the
  // serving side authenticates against (empty = no auth configured).
  std::string worker;
  std::string auth;

  bool operator==(const HelloMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static HelloMsg Parse(const Frame& frame);
};

// Every data frame (Chunk / SegmentRef / SegmentData / MapDone) carries a
// per-sender sequence number `seq`, 1-based and monotonic across
// reconnects.  The receiver applies frames idempotently (a seq at or below
// its cumulative applied watermark is skipped) and acknowledges with Ack
// frames, so a sender can replay its delivered-but-unacked window after a
// peer crash without ever duplicating applied data.  seq == 0 marks an
// unsequenced frame (applied unconditionally, never acked).
struct ChunkMsg {
  std::int32_t map_task = -1;
  std::int32_t reducer = -1;
  bool sorted = false;
  std::uint64_t records = 0;
  std::uint64_t seq = 0;
  std::string bytes;

  bool operator==(const ChunkMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static ChunkMsg Parse(const Frame& frame);
  // Takes the frame's payload buffer for `bytes` instead of copying it.
  static ChunkMsg Parse(Frame&& frame);
};

// Descriptor-only registration: valid when both peers see the same
// filesystem (loopback transport / same-host worker groups).
struct SegmentRefMsg {
  std::int32_t map_task = -1;
  std::int32_t reducer = -1;
  bool sorted = false;
  std::uint64_t records = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t seq = 0;
  std::string path;

  bool operator==(const SegmentRefMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static SegmentRefMsg Parse(const Frame& frame);
};

// Segment payload shipped inline: the receiver lands it in its own spill
// file and registers the local copy (remote peers, no shared filesystem).
struct SegmentDataMsg {
  std::int32_t map_task = -1;
  std::int32_t reducer = -1;
  bool sorted = false;
  std::uint64_t records = 0;
  std::uint64_t seq = 0;
  std::string bytes;

  bool operator==(const SegmentDataMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static SegmentDataMsg Parse(const Frame& frame);
};

struct MapDoneMsg {
  std::int32_t map_task = -1;
  std::uint64_t input_records = 0;
  std::uint64_t output_records = 0;
  std::uint64_t seq = 0;

  bool operator==(const MapDoneMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static MapDoneMsg Parse(const Frame& frame);
};

struct CreditMsg {
  std::int32_t reducer = -1;
  std::uint32_t credits = 1;

  bool operator==(const CreditMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static CreditMsg Parse(const Frame& frame);
};

// Cumulative receipt acknowledgement: every sequenced data frame with
// seq <= `upto` has been applied by the receiver, so the sender may prune
// its replay window up to that point.
struct AckMsg {
  std::uint64_t upto = 0;

  bool operator==(const AckMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static AckMsg Parse(const Frame& frame);
};

struct GoneMsg {
  std::int32_t reducer = -1;

  bool operator==(const GoneMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static GoneMsg Parse(const Frame& frame);
};

struct AbortMsg {
  std::string reason;

  bool operator==(const AbortMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static AbortMsg Parse(const Frame& frame);
};

// Orderly close.  Carries the sender's wire counters so a job report
// assembled on the receiving side can include client-only events
// (retransmits, reconnects, injected stall time).
struct ByeMsg {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t stall_nanos = 0;
  std::uint64_t ack_replays = 0;          // ack-window replay events
  std::uint64_t ack_replayed_frames = 0;  // frames resent by those replays

  bool operator==(const ByeMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static ByeMsg Parse(const Frame& frame);
};

// --- Coordination-plane messages (src/coord) ---------------------------------

// Worker → coordinator: join (or rejoin) the worker-group registry.  The
// coordinator authenticates `auth` against its shared secret, assigns a
// fresh generation, and answers — to everyone registered — with a
// Membership broadcast.
struct RegisterMsg {
  std::string worker;    // stable worker id (unique per process)
  std::string endpoint;  // advertised host:port the worker serves on
  WireRole role = WireRole::kMap;
  std::string auth;      // shared secret (empty = no auth configured)

  bool operator==(const RegisterMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static RegisterMsg Parse(const Frame& frame);
};

// Worker → coordinator: lease renewal.  `generation` must match the
// registry's current generation for the worker (a stale generation means
// the worker was evicted and re-registered elsewhere); `seq` is the
// 1-based heartbeat ordinal within the generation.
struct HeartbeatMsg {
  std::string worker;
  std::uint64_t generation = 0;
  std::uint64_t seq = 0;

  bool operator==(const HeartbeatMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static HeartbeatMsg Parse(const Frame& frame);
};

// Coordinator → workers: the registry view.  Broadcast on every change
// (register, re-register, lease expiry).  `epoch` increments with each
// change, so receivers can ignore stale views.
struct MembershipMsg {
  struct Entry {
    std::string worker;
    std::string endpoint;
    WireRole role = WireRole::kMap;
    std::uint64_t generation = 0;
    bool alive = true;

    bool operator==(const Entry&) const = default;
  };

  std::uint64_t epoch = 0;
  std::vector<Entry> entries;

  bool operator==(const MembershipMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static MembershipMsg Parse(const Frame& frame);
};

// --- Serving-plane messages (src/serve) --------------------------------------
//
// Protocol sketch (publisher = job side, frontend = replica side):
//
//   frontend                          publisher
//   ----------------------------------------------------------
//   Hello{job}                     ->          (subscribe; preamble on
//                                               reconnect re-subscribes)
//                                  <- SnapshotAnnounce{version, ...}
//   SnapshotFetch{version}         ->
//                                  <- SnapshotFetch{version, reply, bytes}
//
//   client                            frontend
//   ----------------------------------------------------------
//   Query{id, tenant, op, ...}     ->
//                                  <- QueryResult{id, status, rows, ...}

// Publisher → subscribed frontends: snapshot `version` of `job` is
// committed and fetchable.  `watermark` is the ingest sequence the image
// reflects; `bytes`/`crc` let a replica pre-validate the fetched image.
struct SnapshotAnnounceMsg {
  std::string job;
  std::uint64_t version = 0;
  std::uint64_t watermark = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;

  bool operator==(const SnapshotAnnounceMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static SnapshotAnnounceMsg Parse(const Frame& frame);
};

// Request (reply == false, bytes empty) and response (reply == true) share
// the frame type.  An empty `bytes` in a reply means the version is gone
// (pruned past retention) — a real serialized image is never empty.
struct SnapshotFetchMsg {
  std::string job;
  std::uint64_t version = 0;
  bool reply = false;
  std::uint32_t crc = 0;
  std::string bytes;

  bool operator==(const SnapshotFetchMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static SnapshotFetchMsg Parse(const Frame& frame);
};

enum class QueryOp : std::uint8_t {
  kPoint = 0,  // exact-key lookup
  kTopK = 1,   // highest aggregates first
  kScan = 2,   // key range [key, end_key), capped at `limit`
};
constexpr QueryOp LastValue(QueryOp) { return QueryOp::kScan; }

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kNotFound = 1,    // point query, key absent from the view
  kStale = 2,       // replica lag exceeds the effective staleness budget
  kThrottled = 3,   // tenant token bucket empty
  kBadRequest = 4,  // malformed op / missing key
};
constexpr QueryStatus LastValue(QueryStatus) {
  return QueryStatus::kBadRequest;
}

[[nodiscard]] const char* QueryStatusName(QueryStatus status) noexcept;

// Client → frontend.  `staleness_budget` tightens (never loosens) the
// tenant's configured budget; ~0 keeps the tenant default.
struct QueryMsg {
  std::uint64_t id = 0;  // client-chosen correlation id, echoed back
  std::string tenant;
  QueryOp op = QueryOp::kPoint;
  std::string key;
  std::string end_key;
  std::uint32_t limit = 0;
  std::uint64_t staleness_budget = ~0ull;

  bool operator==(const QueryMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static QueryMsg Parse(const Frame& frame);
};

// Frontend → client.  `version`/`watermark` identify the view the answer
// came from; `lag` is announced watermark minus served watermark, so a
// client can see exactly how stale its answer is.
struct QueryResultMsg {
  std::uint64_t id = 0;
  QueryStatus status = QueryStatus::kOk;
  std::uint64_t version = 0;
  std::uint64_t watermark = 0;
  std::uint64_t lag = 0;
  std::vector<std::pair<std::string, std::string>> rows;
  std::string error;

  bool operator==(const QueryResultMsg&) const = default;
  [[nodiscard]] Frame ToFrame() const;
  static QueryResultMsg Parse(const Frame& frame);
};

}  // namespace opmr::net
