#include "replica/replica.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "net/wire.h"

namespace opmr::coord {

// A registry snapshot entry's state bytes (the entry key is the worker id).
// In WorkerInfo's namespace so the codec's argument-dependent lookup finds
// it.
static void Fields(Like<WorkerInfo> auto& w, auto& io) {
  io(w.endpoint, w.role, w.generation, w.last_heartbeat_s, w.alive);
}

}  // namespace opmr::coord

namespace opmr::replica {

namespace {

// True wall time, NOT the steady clock: these timestamps are written into
// replicated records and compared against a *different host's* clock after
// failover (SweepNow on the new leader).  steady_clock's epoch is per-host
// boot time, so cross-host comparison of steady stamps would either mass-
// expire every worker or never expire dead ones.
double NowWallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Registry snapshots are checkpoints of this pseudo-job; the worker slot
// carries the replica id.  Distinct from any real job's namespace the same
// way the serve plane's "<job>.serve" suffix is.
constexpr const char* kReplicaSnapshotJob = "coord.replica";

}  // namespace

std::vector<std::string> ApplyRecord(coord::WorkerRegistry* registry,
                                     const LogRecord& record) {
  switch (record.type) {
    case LogRecordType::kRegister:
      registry->Register(record.worker, record.endpoint,
                         static_cast<net::WireRole>(record.role),
                         record.now_s);
      return {};
    case LogRecordType::kHeartbeat:
      registry->Heartbeat(record.worker, record.generation, record.now_s);
      return {};
    case LogRecordType::kExpire:
      return registry->ExpireLeases(record.now_s, record.lease_s);
    case LogRecordType::kLost:
      return {};  // observability marker; no registry effect
  }
  return {};
}

CheckpointImage ImageFromRegistry(const coord::WorkerRegistry& registry,
                                  std::uint64_t applied_index,
                                  std::uint64_t leader_epoch) {
  CheckpointImage image;
  image.watermark = applied_index;
  image.feeds.emplace_back(0u, registry.epoch());
  image.feeds.emplace_back(1u, leader_epoch);
  for (const coord::WorkerInfo& w : registry.Dump()) {
    CheckpointImage::TableEntry e;
    e.key = w.id;
    e.state = EncodeFields(w);
    image.entries.push_back(std::move(e));
  }
  return image;
}

void RestoreRegistryFromImage(const CheckpointImage& image,
                              coord::WorkerRegistry* registry,
                              std::uint64_t* leader_epoch) {
  std::uint64_t registry_epoch = 0;
  for (const auto& [feed, value] : image.feeds) {
    if (feed == 0) registry_epoch = value;
    if (feed == 1 && leader_epoch != nullptr) {
      *leader_epoch = std::max(*leader_epoch, value);
    }
  }
  std::vector<coord::WorkerInfo> workers;
  workers.reserve(image.entries.size());
  for (const CheckpointImage::TableEntry& e : image.entries) {
    coord::WorkerInfo& w = workers.emplace_back();
    w.id = e.key;
    DecodeFields(e.state, w, "worker state");
  }
  registry->Restore(std::move(workers), registry_epoch);
}

CoordinatorReplica::CoordinatorReplica(net::Transport* transport,
                                       MetricRegistry* metrics,
                                       Options options)
    : transport_(transport),
      metrics_(metrics),
      options_(std::move(options)),
      elections_(metrics->Get("replica.elections")),
      stepdowns_(metrics->Get("replica.stepdowns")),
      log_appends_(metrics->Get("replica.log_appends")),
      records_applied_(metrics->Get("replica.records_applied")),
      snapshots_written_(metrics->Get("replica.snapshots_written")),
      snapshots_installed_(metrics->Get("replica.snapshots_installed")),
      stale_frames_(metrics->Get("replica.stale_frames")),
      redirects_(metrics->Get("replica.redirects")),
      registers_(metrics->Get("coord.registers")),
      heartbeats_(metrics->Get("coord.heartbeats")),
      stale_heartbeats_(metrics->Get("coord.stale_heartbeats")),
      auth_failures_(metrics->Get("coord.auth_failures")),
      workers_lost_(metrics->Get("coord.workers_lost")),
      workers_returned_(metrics->Get("coord.workers_returned")) {
  on_worker_lost_ = options_.on_worker_lost;
  on_worker_returned_ = options_.on_worker_returned;
  on_leadership_ = options_.on_leadership;

  changelog_ =
      std::make_unique<Changelog>(options_.changelog_dir, options_.replica_id);
  CheckpointOptions ckpt_options;
  ckpt_options.dir = options_.changelog_dir.string();
  snapshots_ = std::make_unique<CheckpointManager>(
      options_.changelog_dir, kReplicaSnapshotJob,
      static_cast<int>(options_.replica_id), ckpt_options, metrics_);
  Recover();

  for (const Peer& p : options_.peers) {
    PeerLink link;
    link.peer = p;
    // Dead peers must fail fast: one dial attempt per tick, not the
    // data-path's patient 20 — election latency rides on this.
    net::TcpTransport::Options topt;
    topt.connect_attempts = 1;
    topt.connect_backoff_ms = 5;
    topt.send_attempts = 1;
    link.transport =
        std::make_unique<net::TcpTransport>(metrics_, p.endpoint, topt);
    links_.emplace(p.id, std::move(link));
  }

  start_steady_s_ = NowSteady();
  last_sweep_steady_s_ = start_steady_s_;
  transport_->Listen([this](net::Connection* from, net::Frame frame) {
    HandleFrame(from, std::move(frame));
  });
  ticker_ = std::thread([this] { TickerLoop(); });
}

CoordinatorReplica::~CoordinatorReplica() { Stop(); }

void CoordinatorReplica::Stop() {
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  for (auto& [id, link] : links_) {
    if (link.conn) link.conn->Close();
    if (link.transport) link.transport->Shutdown();
  }
}

double CoordinatorReplica::NowSteady() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CoordinatorReplica::Recover() {
  // Newest valid snapshot first, then the changelog suffix past its
  // watermark.  Both are local artifacts; if the group moved on while we
  // were down, the leader's SnapshotOffer supersedes all of this.
  if (auto image = snapshots_->LoadLatest()) {
    RestoreRegistryFromImage(*image, &registry_, &epoch_);
    applied_index_ = image->watermark;
    last_snapshot_index_ = image->watermark;
  }
  changelog_->Replay([this](std::uint64_t index, const LogRecord& rec) {
    if (index <= applied_index_) return;  // covered by the snapshot
    ApplyRecord(&registry_, rec);
    applied_index_ = index;
  });
}

bool CoordinatorReplica::is_leader() const {
  std::scoped_lock lock(mu_);
  return is_leader_;
}

std::uint64_t CoordinatorReplica::leader_epoch() const {
  std::scoped_lock lock(mu_);
  return epoch_;
}

std::uint32_t CoordinatorReplica::known_leader() const {
  std::scoped_lock lock(mu_);
  return leader_id_;
}

std::uint64_t CoordinatorReplica::applied_index() const {
  std::scoped_lock lock(mu_);
  return applied_index_;
}

std::uint64_t CoordinatorReplica::elections() const {
  std::scoped_lock lock(mu_);
  return election_count_;
}

bool CoordinatorReplica::WaitForLeadership(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock lock(mu_);
  return cv_.wait_until(lock, deadline, [this] { return is_leader_; });
}

bool CoordinatorReplica::WaitForLeader(double timeout_s,
                                       std::uint64_t min_epoch) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock lock(mu_);
  return cv_.wait_until(lock, deadline, [this, min_epoch] {
    return leader_id_ != 0 && epoch_ >= min_epoch;
  });
}

bool CoordinatorReplica::WaitForWorkers(net::WireRole role, std::size_t n,
                                        double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock lock(mu_);
  for (;;) {
    if (registry_.LiveCount(role) >= n) return true;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return registry_.LiveCount(role) >= n;
    }
  }
}

void CoordinatorReplica::SetOnWorkerLost(
    std::function<void(const std::string&)> cb) {
  std::scoped_lock lock(cb_mu_);
  on_worker_lost_ = std::move(cb);
}

// --- Frame dispatch ----------------------------------------------------------

void CoordinatorReplica::HandleFrame(net::Connection* from, net::Frame frame) {
  try {
    switch (frame.type) {
      case net::FrameType::kRegister:
        HandleRegister(from, frame);
        return;
      case net::FrameType::kHeartbeat:
        HandleHeartbeat(from, frame);
        return;
      case net::FrameType::kVote:
      case net::FrameType::kLeaderClaim:
      case net::FrameType::kLogAppend:
      case net::FrameType::kSnapshotOffer:
      case net::FrameType::kLogAck:
        HandlePeerFrame(0, from, frame);
        return;
      default:
        return;  // not a coordination frame; ignore
    }
  } catch (const std::exception&) {
    // Drop the frame, never the process: this runs on the transport's
    // reader thread, where an escaped exception is std::terminate.  That
    // covers WireError (semantically corrupt payload on a CRC-clean
    // frame) and runtime_errors from the changelog/snapshot disk paths —
    // the sender retries, the next broadcast supersedes, or the leader's
    // lag detector re-seeds us.
  }
}

void CoordinatorReplica::AdoptEpochLocked(std::uint64_t epoch) {
  if (epoch <= epoch_) return;
  epoch_ = epoch;
  if (is_leader_ && epoch_ > claim_epoch_) {
    // Someone claimed a newer term while we thought we led: fence
    // ourselves immediately; the election tick re-evaluates from scratch.
    StepDownLocked();
  }
}

void CoordinatorReplica::HandlePeerFrame(std::uint32_t from_id_hint,
                                         net::Connection* from,
                                         const net::Frame& frame) {
  (void)from_id_hint;
  switch (frame.type) {
    case net::FrameType::kVote: {
      const auto msg = net::VoteMsg::Parse(frame);
      if (!PeerAuthOk(msg.auth)) {
        auth_failures_->Increment();
        return;
      }
      std::function<void(bool, std::uint64_t)> cb;
      std::uint64_t cb_epoch = 0;
      {
        std::scoped_lock lock(mu_);
        auto it = links_.find(msg.replica);
        if (it != links_.end()) it->second.last_heard_s = NowSteady();
        const bool was_leader = is_leader_;
        AdoptEpochLocked(msg.epoch);
        if (was_leader && !is_leader_) {
          std::scoped_lock cb_lock(cb_mu_);
          cb = on_leadership_;
          cb_epoch = epoch_;
        }
      }
      cv_.notify_all();
      if (cb) cb(false, cb_epoch);
      return;
    }
    case net::FrameType::kLeaderClaim: {
      const auto msg = net::LeaderClaimMsg::Parse(frame);
      if (!PeerAuthOk(msg.auth)) {
        auth_failures_->Increment();
        return;
      }
      std::function<void(bool, std::uint64_t)> cb;
      std::uint64_t cb_epoch = 0;
      {
        std::scoped_lock lock(mu_);
        if (msg.epoch < epoch_) {
          stale_frames_->Increment();
          return;
        }
        auto it = links_.find(msg.replica);
        if (it != links_.end()) it->second.last_heard_s = NowSteady();
        const bool was_leader = is_leader_;
        AdoptEpochLocked(msg.epoch);
        if (msg.epoch == epoch_) {
          leader_id_ = msg.replica;
          leader_endpoint_ = msg.endpoint;
          if (is_leader_ && msg.replica != options_.replica_id) {
            StepDownLocked();
          }
        }
        if (was_leader && !is_leader_) {
          std::scoped_lock cb_lock(cb_mu_);
          cb = on_leadership_;
          cb_epoch = epoch_;
        }
      }
      cv_.notify_all();
      if (cb) cb(false, cb_epoch);
      return;
    }
    case net::FrameType::kLogAppend: {
      const auto msg = net::LogAppendMsg::Parse(frame);
      if (!PeerAuthOk(msg.auth)) {
        auth_failures_->Increment();
        return;
      }
      net::LogAckMsg ack;
      ack.replica = options_.replica_id;
      ack.auth = options_.secret;
      {
        std::scoped_lock lock(mu_);
        if (msg.epoch < epoch_) {
          stale_frames_->Increment();
        } else {
          AdoptEpochLocked(msg.epoch);
          if (!is_leader_ && msg.index == applied_index_ + 1) {
            // A record that cannot be decoded (truncated payload, unknown
            // type — a CRC-clean lie) or persisted is dropped like a gap,
            // not allowed to escape the reader thread: the ack below
            // reports the unchanged applied index and the leader's lag
            // detector re-seeds us with a snapshot.
            try {
              LogRecord rec = LogRecord::DecodePayload(
                  static_cast<LogRecordType>(msg.record_type), msg.record);
              changelog_->Append(msg.index, rec);
              ApplyRecord(&registry_, rec);
              applied_index_ = msg.index;
              records_applied_->Increment();
              MaybeSnapshotLocked();
            } catch (const std::exception&) {
              stale_frames_->Increment();
            }
          }
          // A gap (or a duplicate) falls through: the cumulative ack below
          // tells the leader where we really are.
        }
        ack.epoch = epoch_;
        ack.index = applied_index_;
      }
      cv_.notify_all();
      try {
        from->Send(ack.ToFrame());
      } catch (const net::TransportError&) {
      }
      return;
    }
    case net::FrameType::kSnapshotOffer: {
      const auto msg = net::SnapshotOfferMsg::Parse(frame);
      if (!PeerAuthOk(msg.auth)) {
        auth_failures_->Increment();
        return;
      }
      net::LogAckMsg ack;
      ack.replica = options_.replica_id;
      ack.auth = options_.secret;
      {
        std::scoped_lock lock(mu_);
        if (msg.epoch < epoch_) {
          stale_frames_->Increment();
        } else if (Crc32(msg.bytes.data(), msg.bytes.size()) != msg.crc) {
          stale_frames_->Increment();  // corrupt in flight; leader retries
        } else if (!is_leader_ && msg.index >= applied_index_) {
          CheckpointImage image;
          try {
            image = ParseCheckpointImage(msg.bytes);
          } catch (const std::runtime_error&) {
            image.watermark = ~0ull;  // poison: skip install below
          }
          if (image.watermark == msg.index) {
            // Persist the image BEFORE touching any state, mirroring
            // MaybeSnapshotLocked's order.  Committing the rotation first
            // and then failing the write would leave the disk holding an
            // OLD snapshot plus a log whose first index jumps past it —
            // a restart would silently replay that gapped suffix onto the
            // stale base and could later elect a divergent leader.  If
            // the disk can't take the image, decline the whole install:
            // the ack reports the old applied index and the leader keeps
            // re-offering.
            bool durable = true;
            try {
              CheckpointImage to_write = image;
              snapshots_->Write(&to_write);
            } catch (const std::runtime_error&) {
              durable = false;
            }
            if (durable) {
              changelog_->Reset();  // the image covers everything so far
              AdoptEpochLocked(msg.epoch);
              RestoreRegistryFromImage(image, &registry_, &epoch_);
              applied_index_ = msg.index;
              last_snapshot_index_ = msg.index;
              snapshots_installed_->Increment();
            }
          }
        }
        ack.epoch = epoch_;
        ack.index = applied_index_;
      }
      cv_.notify_all();
      try {
        from->Send(ack.ToFrame());
      } catch (const net::TransportError&) {
      }
      return;
    }
    case net::FrameType::kLogAck: {
      const auto msg = net::LogAckMsg::Parse(frame);
      if (!PeerAuthOk(msg.auth)) {
        auth_failures_->Increment();
        return;
      }
      std::function<void(bool, std::uint64_t)> cb;
      std::uint64_t cb_epoch = 0;
      {
        std::scoped_lock lock(mu_);
        auto it = links_.find(msg.replica);
        if (it != links_.end()) {
          it->second.last_heard_s = NowSteady();
          it->second.acked = std::max(it->second.acked, msg.index);
        }
        const bool was_leader = is_leader_;
        AdoptEpochLocked(msg.epoch);
        if (was_leader && !is_leader_) {
          std::scoped_lock cb_lock(cb_mu_);
          cb = on_leadership_;
          cb_epoch = epoch_;
        }
      }
      if (cb) cb(false, cb_epoch);
      return;
    }
    default:
      return;
  }
}

// --- Worker-facing paths -----------------------------------------------------

void CoordinatorReplica::HandleRegister(net::Connection* from,
                                        const net::Frame& frame) {
  const auto msg = net::RegisterMsg::Parse(frame);
  if (!options_.secret.empty() &&
      !net::ConstantTimeEquals(options_.secret, msg.auth)) {
    auth_failures_->Increment();
    net::AbortMsg abort;
    abort.reason = "coordinator: authentication failed for worker '" +
                   msg.worker + "'";
    try {
      from->Send(abort.ToFrame());
    } catch (const net::TransportError&) {
    }
    return;
  }

  std::uint64_t index = 0;
  LogRecord rec;
  bool returned = false;
  bool redirect = false;
  net::LeaderClaimMsg claim;
  {
    // replicate_mu_ spans index assignment through the peer sends so two
    // concurrent handlers can't deliver their appends out of index order.
    std::scoped_lock order(replicate_mu_);
    {
      std::scoped_lock lock(mu_);
      if (!is_leader_) {
        // Redirect to the leader we last heard from — but only if we can
        // still hear it ourselves.  Bouncing a worker to a dead leader
        // costs it a full dial backoff on a closed port; silence is
        // better, because the worker retries here and lands the moment
        // the next claim settles.
        if (leader_id_ != 0 && leader_id_ != options_.replica_id &&
            !leader_endpoint_.empty()) {
          const auto it = links_.find(leader_id_);
          const bool leader_live =
              it != links_.end() && it->second.last_heard_s > 0.0 &&
              (NowSteady() - it->second.last_heard_s) * 1000.0 <
                  options_.election_timeout_ms;
          if (leader_live) {
            redirect = true;
            claim.replica = leader_id_;
            claim.epoch = epoch_;
            claim.endpoint = leader_endpoint_;
            claim.auth = options_.secret;  // the registrant already authed
          }
        }
      } else {
        rec.type = LogRecordType::kRegister;
        rec.worker = msg.worker;
        rec.endpoint = msg.endpoint;
        rec.role = static_cast<std::uint8_t>(msg.role);
        rec.now_s = NowWallSeconds();
        MutateLocked(rec, &index);
        member_conns_[msg.worker] = from;
        returned = suspects_.erase(msg.worker) > 0;
      }
    }
    if (index != 0) ReplicateRecord(index, rec);
  }
  cv_.notify_all();

  if (redirect) {
    redirects_->Increment();
    try {
      from->Send(claim.ToFrame());
    } catch (const net::TransportError&) {
    }
    return;
  }
  if (index == 0) return;  // not leader, no known leader: stay silent

  registers_->Increment();
  if (returned) {
    workers_returned_->Increment();
    std::function<void(const std::string&)> cb;
    {
      std::scoped_lock cb_lock(cb_mu_);
      cb = on_worker_returned_;
    }
    if (cb) cb(msg.worker);
  }
  BroadcastMembership();
}

void CoordinatorReplica::HandleHeartbeat(net::Connection* from,
                                         const net::Frame& frame) {
  const auto msg = net::HeartbeatMsg::Parse(frame);
  std::uint64_t index = 0;
  LogRecord rec;
  bool stale = false;
  net::Frame stale_reply;
  {
    // Same ordering fence as HandleRegister: index assignment and the
    // peer sends must not interleave across handler threads.
    std::scoped_lock order(replicate_mu_);
    {
      std::scoped_lock lock(mu_);
      if (!is_leader_) return;  // the worker's failover logic finds the leader
      coord::WorkerInfo info;
      const bool renewable = registry_.Lookup(msg.worker, &info) &&
                             info.alive && info.generation == msg.generation;
      if (renewable) {
        rec.type = LogRecordType::kHeartbeat;
        rec.worker = msg.worker;
        rec.generation = msg.generation;
        rec.now_s = NowWallSeconds();
        MutateLocked(rec, &index);
      } else {
        stale = true;
        stale_reply = MembershipFrameLocked();
      }
    }
    if (index != 0) ReplicateRecord(index, rec);
  }
  if (index != 0) heartbeats_->Increment();
  if (stale) {
    // Answer with the current view so the sender learns its fate without
    // waiting for the next broadcast.
    stale_heartbeats_->Increment();
    try {
      from->Send(stale_reply);
    } catch (const net::TransportError&) {
    }
  }
}

// --- Leader mutation / replication -------------------------------------------

std::vector<std::string> CoordinatorReplica::MutateLocked(
    const LogRecord& record, std::uint64_t* index_out) {
  const std::uint64_t index = applied_index_ + 1;
  changelog_->Append(index, record);
  std::vector<std::string> expired = ApplyRecord(&registry_, record);
  applied_index_ = index;
  log_appends_->Increment();
  records_applied_->Increment();
  MaybeSnapshotLocked();
  if (index_out != nullptr) *index_out = index;
  return expired;
}

bool CoordinatorReplica::PeerAuthOk(const std::string& auth) const {
  return options_.secret.empty() ||
         net::ConstantTimeEquals(options_.secret, auth);
}

void CoordinatorReplica::ReplicateRecord(std::uint64_t index,
                                         const LogRecord& record) {
  net::LogAppendMsg msg;
  msg.index = index;
  msg.record_type = static_cast<std::uint8_t>(record.type);
  msg.record = record.EncodePayload();
  msg.auth = options_.secret;
  std::vector<std::pair<std::uint32_t, std::shared_ptr<net::Connection>>> out;
  {
    std::scoped_lock lock(mu_);
    if (!is_leader_) return;
    msg.epoch = claim_epoch_;
    for (auto& [id, link] : links_) {
      if (link.conn && link.synced) out.emplace_back(id, link.conn);
    }
  }
  const net::Frame frame = msg.ToFrame();
  for (auto& [id, conn] : out) {
    try {
      conn->Send(frame);
    } catch (const net::TransportError&) {
      std::scoped_lock lock(mu_);
      auto it = links_.find(id);
      if (it != links_.end()) {
        it->second.synced = false;  // resync via snapshot on reconnect
        it->second.conn.reset();
      }
    }
  }
}

void CoordinatorReplica::OfferSnapshot(PeerLink* link) {
  net::SnapshotOfferMsg msg;
  msg.auth = options_.secret;
  std::shared_ptr<net::Connection> conn;
  {
    std::scoped_lock lock(mu_);
    if (!is_leader_ || !link->conn) return;
    msg.epoch = claim_epoch_;
    msg.index = applied_index_;
    msg.bytes = SerializeCheckpointImage(
        ImageFromRegistry(registry_, applied_index_, epoch_));
    msg.crc = Crc32(msg.bytes.data(), msg.bytes.size());
    conn = link->conn;
  }
  try {
    conn->Send(msg.ToFrame());
    std::scoped_lock lock(mu_);
    link->synced = true;
    link->lag_ticks = 0;
  } catch (const net::TransportError&) {
    std::scoped_lock lock(mu_);
    link->synced = false;
    link->conn.reset();
  }
}

void CoordinatorReplica::MaybeSnapshotLocked() {
  if (options_.snapshot_interval_records == 0) return;
  if (applied_index_ - last_snapshot_index_ <
      options_.snapshot_interval_records) {
    return;
  }
  CheckpointImage image = ImageFromRegistry(registry_, applied_index_, epoch_);
  try {
    snapshots_->Write(&image);
  } catch (const std::runtime_error&) {
    return;  // keep the log; retry at the next interval crossing
  }
  changelog_->Reset();  // rotation: the image covers everything so far
  last_snapshot_index_ = applied_index_;
  snapshots_written_->Increment();
}

// --- Election ----------------------------------------------------------------

void CoordinatorReplica::BecomeLeaderLocked() {
  ++epoch_;
  claim_epoch_ = epoch_;
  is_leader_ = true;
  leader_id_ = options_.replica_id;
  leader_endpoint_ = options_.endpoint;
  ++election_count_;
  elections_->Increment();
  // Standbys catch up by snapshot: their logs may hold a divergent or
  // stale suffix from the previous term.
  for (auto& [id, link] : links_) {
    link.synced = false;
    link.lag_ticks = 0;
  }
  // The inherited lease stamps were written by the PREVIOUS leader's wall
  // clock.  Re-stamp every live worker with ours — as replicated heartbeat
  // records, so standbys and a post-crash recovery replay the same view —
  // before the first sweep can compare them against a skewed local clock.
  // A worker that died with the old leader gets one fresh lease and then
  // expires on schedule; a membership gap stays bounded either way.
  const double now_s = NowWallSeconds();
  for (const coord::WorkerInfo& w : registry_.Dump()) {
    if (!w.alive) continue;
    LogRecord rec;
    rec.type = LogRecordType::kHeartbeat;
    rec.worker = w.id;
    rec.generation = w.generation;
    rec.now_s = now_s;
    MutateLocked(rec, nullptr);
  }
}

void CoordinatorReplica::StepDownLocked() {
  if (!is_leader_) return;
  is_leader_ = false;
  stepdowns_->Increment();
}

void CoordinatorReplica::EvaluateElection(double now_steady_s) {
  const double timeout_s = options_.election_timeout_ms / 1000.0;
  bool claimed = false;
  bool stepped_down = false;
  std::uint64_t cb_epoch = 0;
  {
    std::scoped_lock lock(mu_);
    std::uint32_t lowest_live = options_.replica_id;
    for (const auto& [id, link] : links_) {
      if (link.last_heard_s > 0.0 &&
          now_steady_s - link.last_heard_s <= timeout_s) {
        lowest_live = std::min(lowest_live, id);
      }
    }
    if (lowest_live == options_.replica_id) {
      // Startup grace: wait one election timeout before the first claim so
      // simultaneously-started replicas hear each other's votes and only
      // the true lowest id claims.
      if (!is_leader_ && now_steady_s - start_steady_s_ >= timeout_s) {
        BecomeLeaderLocked();
        claimed = true;
        cb_epoch = epoch_;
      }
    } else if (is_leader_) {
      // A lower live id is back; it will claim the next term.  Stop
      // serving now rather than race it.
      StepDownLocked();
      stepped_down = true;
      cb_epoch = epoch_;
    }
  }
  if (!claimed && !stepped_down) return;
  cv_.notify_all();
  std::function<void(bool, std::uint64_t)> cb;
  {
    std::scoped_lock cb_lock(cb_mu_);
    cb = on_leadership_;
  }
  if (cb) cb(claimed, cb_epoch);
  if (claimed) {
    // Announce the new term to the peers and push the (fenced) view to
    // every worker that registered with us.
    net::LeaderClaimMsg claim;
    std::vector<std::shared_ptr<net::Connection>> peers;
    {
      std::scoped_lock lock(mu_);
      claim.replica = options_.replica_id;
      claim.epoch = claim_epoch_;
      claim.endpoint = options_.endpoint;
      claim.auth = options_.secret;
      for (auto& [id, link] : links_) {
        if (link.conn) peers.push_back(link.conn);
      }
    }
    const net::Frame frame = claim.ToFrame();
    for (auto& conn : peers) {
      try {
        conn->Send(frame);
      } catch (const net::TransportError&) {
      }
    }
    BroadcastMembership();
  }
}

void CoordinatorReplica::TickerLoop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                           options_.vote_interval_ms));
    if (stopping_) return;
    lock.unlock();

    // 1. Liveness pings to every peer (dial lazily, drop on error).
    net::VoteMsg vote;
    std::vector<std::uint32_t> to_dial;
    std::vector<std::pair<std::uint32_t, std::shared_ptr<net::Connection>>>
        to_ping;
    {
      std::scoped_lock relock(mu_);
      vote.replica = options_.replica_id;
      vote.epoch = epoch_;
      vote.index = applied_index_;
      vote.auth = options_.secret;
      for (auto& [id, link] : links_) {
        if (link.conn) {
          to_ping.emplace_back(id, link.conn);
        } else {
          to_dial.push_back(id);
        }
      }
    }
    for (std::uint32_t id : to_dial) {
      std::shared_ptr<net::Connection> conn;
      try {
        conn = links_[id].transport->Connect(
            [this](net::Connection* from, net::Frame frame) {
              try {
                HandlePeerFrame(0, from, frame);
              } catch (const std::exception&) {
                // Reader-thread boundary, same as HandleFrame: a corrupt
                // payload or a changelog/snapshot disk error is a dropped
                // frame, never std::terminate.
              }
            });
      } catch (const net::TransportError&) {
        continue;  // peer down; retry next tick
      }
      std::scoped_lock relock(mu_);
      links_[id].conn = conn;
      to_ping.emplace_back(id, conn);
    }
    const net::Frame vote_frame = vote.ToFrame();
    for (auto& [id, conn] : to_ping) {
      try {
        conn->Send(vote_frame);
      } catch (const net::TransportError&) {
        std::scoped_lock relock(mu_);
        auto it = links_.find(id);
        if (it != links_.end() && it->second.conn == conn) {
          it->second.conn.reset();
          it->second.synced = false;
        }
      }
    }

    // 2. Election evaluation (may claim or step down).  Claiming appends
    // re-stamp records, and the sweep below appends expiries — both hit
    // the changelog, whose I/O errors must not escape this thread.  A
    // failed tick is retried at the next interval; the disk trouble shows
    // up in the snapshot/append counters, not as a dead coordinator.
    const double now_steady = NowSteady();
    try {
      EvaluateElection(now_steady);
    } catch (const std::exception&) {
    }

    // 3. Leader housekeeping: catch lagging peers up, sweep leases.
    std::vector<PeerLink*> to_offer;
    bool sweep_due = false;
    {
      std::scoped_lock relock(mu_);
      if (is_leader_) {
        for (auto& [id, link] : links_) {
          if (!link.conn) continue;
          if (!link.synced) {
            to_offer.push_back(&link);
          } else if (link.acked < applied_index_) {
            // Ack stagnation across several ticks means the peer dropped a
            // record (reconnect race): re-seed it with a snapshot.
            if (++link.lag_ticks >= 3) {
              link.synced = false;
              to_offer.push_back(&link);
            }
          } else {
            link.lag_ticks = 0;
          }
        }
        sweep_due = now_steady - last_sweep_steady_s_ >=
                    options_.sweep_interval_ms / 1000.0;
        if (sweep_due) last_sweep_steady_s_ = now_steady;
      }
    }
    for (PeerLink* link : to_offer) OfferSnapshot(link);
    if (sweep_due) {
      try {
        SweepNow();
      } catch (const std::exception&) {
      }
    }

    lock.lock();
  }
}

// --- Failure detector (leader only) ------------------------------------------

std::size_t CoordinatorReplica::SweepNow() { return SweepNow(NowWallSeconds()); }

std::size_t CoordinatorReplica::SweepNow(double now_s) {
  std::vector<std::string> expired;
  std::vector<std::string> lost;
  std::uint64_t expire_index = 0;
  LogRecord expire_rec;
  std::vector<std::pair<std::uint64_t, LogRecord>> lost_records;
  // Same ordering fence as the worker handlers: the expire/lost appends
  // must reach peers in index order relative to concurrent registers and
  // heartbeat renewals.  Released before the callbacks fire.
  std::unique_lock order(replicate_mu_);
  {
    std::scoped_lock lock(mu_);
    if (!is_leader_) return 0;
    // Only log a sweep that actually expires something — the log carries
    // mutations, not clock ticks.
    bool any = false;
    for (const coord::WorkerInfo& w : registry_.Dump()) {
      if (w.alive && now_s - w.last_heartbeat_s > options_.lease_s) {
        any = true;
        break;
      }
    }
    if (any) {
      expire_rec.type = LogRecordType::kExpire;
      expire_rec.now_s = now_s;
      expire_rec.lease_s = options_.lease_s;
      expired = MutateLocked(expire_rec, &expire_index);
    }
    for (const std::string& id : expired) {
      coord::WorkerInfo info;
      if (!registry_.Lookup(id, &info)) continue;
      suspects_[id] = Suspect{info.generation, now_s + options_.rejoin_grace_s};
    }
    for (auto it = suspects_.begin(); it != suspects_.end();) {
      coord::WorkerInfo info;
      const bool known = registry_.Lookup(it->first, &info);
      if (known && info.alive) {
        it = suspects_.erase(it);  // rejoined before the grace ran out
      } else if (now_s >= it->second.deadline_s) {
        lost.push_back(it->first);
        LogRecord lost_rec;
        lost_rec.type = LogRecordType::kLost;
        lost_rec.worker = it->first;
        std::uint64_t idx = 0;
        MutateLocked(lost_rec, &idx);
        lost_records.emplace_back(idx, std::move(lost_rec));
        it = suspects_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (expire_index != 0) ReplicateRecord(expire_index, expire_rec);
  for (const auto& [idx, rec] : lost_records) ReplicateRecord(idx, rec);
  order.unlock();
  if (!expired.empty()) BroadcastMembership();
  if (!lost.empty()) {
    std::function<void(const std::string&)> cb;
    {
      std::scoped_lock cb_lock(cb_mu_);
      cb = on_worker_lost_;
    }
    for (const std::string& id : lost) {
      workers_lost_->Increment();
      if (cb) cb(id);
    }
  }
  return expired.size();
}

// --- Membership fan-out ------------------------------------------------------

net::Frame CoordinatorReplica::MembershipFrameLocked() {
  net::MembershipMsg msg = registry_.Snapshot();
  msg.leader_epoch = claim_epoch_;
  msg.leader = options_.replica_id;
  return msg.ToFrame();
}

void CoordinatorReplica::BroadcastMembership() {
  net::Frame frame;
  std::vector<net::Connection*> conns;
  {
    std::scoped_lock lock(mu_);
    if (!is_leader_) return;
    frame = MembershipFrameLocked();
    conns.reserve(member_conns_.size());
    for (const auto& [id, conn] : member_conns_) conns.push_back(conn);
  }
  for (net::Connection* conn : conns) {
    try {
      conn->Send(frame);
    } catch (const net::TransportError&) {
      // Dead connection: the lease sweeper is the authority on worker
      // death, not a broadcast failure.
    }
  }
}

}  // namespace opmr::replica
