// Replicated coordinator (src/replica): changelog durability and torn-tail
// truncation, deterministic replay, registry <-> checkpoint-image codec,
// lowest-id election with exactly one claim, epoch-fenced stale frames,
// leader-kill failover preserving registered workers, CoordClient endpoint
// failover with generation continuity, restart recovery from snapshot +
// log, and the headline chaos case: kill -9 the leader mid-job and the
// output stays byte-identical to the in-process engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coord/member.h"
#include "coord/registry.h"
#include "core/opmr.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "replica/changelog.h"
#include "replica/replica.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using replica::Changelog;
using replica::CoordinatorReplica;
using replica::LogRecord;
using replica::LogRecordType;

using Rows = std::vector<std::pair<std::string, std::string>>;

std::map<std::string, std::string> AsMap(const Rows& rows) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : rows) {
    EXPECT_TRUE(m.emplace(k, v).second) << "duplicate key " << k;
  }
  return m;
}

std::filesystem::path TestDir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("opmr_replica_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

LogRecord RegisterRecord(const std::string& worker, const std::string& ep,
                         double now_s) {
  LogRecord rec;
  rec.type = LogRecordType::kRegister;
  rec.worker = worker;
  rec.endpoint = ep;
  rec.role = static_cast<std::uint8_t>(net::WireRole::kMap);
  rec.now_s = now_s;
  return rec;
}

LogRecord HeartbeatRecord(const std::string& worker, std::uint64_t gen,
                          double now_s) {
  LogRecord rec;
  rec.type = LogRecordType::kHeartbeat;
  rec.worker = worker;
  rec.generation = gen;
  rec.now_s = now_s;
  return rec;
}

// --- Changelog ---------------------------------------------------------------

TEST(Changelog, AppendReplayAndTornTailTruncation) {
  const auto dir = TestDir("changelog");
  std::vector<std::pair<std::uint64_t, LogRecord>> written;
  {
    Changelog log(dir, 1);
    EXPECT_EQ(log.last_index(), 0u);
    log.Append(1, RegisterRecord("w1", "h:1", 10.0));
    log.Append(2, HeartbeatRecord("w1", 1, 10.5));
    LogRecord expire;
    expire.type = LogRecordType::kExpire;
    expire.now_s = 20.0;
    expire.lease_s = 2.0;
    log.Append(3, expire);
    LogRecord lost;
    lost.type = LogRecordType::kLost;
    lost.worker = "w1";
    log.Append(4, lost);
    EXPECT_EQ(log.last_index(), 4u);
  }

  // Reopen: every record survives, field-exact (timestamps bit-exact).
  {
    Changelog log(dir, 1);
    EXPECT_EQ(log.last_index(), 4u);
    std::vector<std::pair<std::uint64_t, LogRecord>> seen;
    EXPECT_EQ(log.Replay([&seen](std::uint64_t index, const LogRecord& rec) {
      seen.emplace_back(index, rec);
    }), 4u);
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0].first, 1u);
    EXPECT_EQ(seen[0].second.worker, "w1");
    EXPECT_EQ(seen[0].second.endpoint, "h:1");
    EXPECT_EQ(seen[0].second.now_s, 10.0);
    EXPECT_EQ(seen[1].second.type, LogRecordType::kHeartbeat);
    EXPECT_EQ(seen[1].second.generation, 1u);
    EXPECT_EQ(seen[2].second.lease_s, 2.0);
    EXPECT_EQ(seen[3].second.worker, "w1");
  }

  // A crash mid-append leaves a torn tail; reopen must truncate back to
  // the last whole record and keep appending cleanly from there.
  const auto path = dir / "replica_1.oplog";
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);
  {
    Changelog log(dir, 1);
    EXPECT_EQ(log.last_index(), 3u);  // record 4 was torn off
    log.Append(4, HeartbeatRecord("w1", 1, 30.0));
    EXPECT_EQ(log.last_index(), 4u);
  }
  {
    Changelog log(dir, 1);
    std::size_t count = 0;
    log.Replay([&count](std::uint64_t, const LogRecord&) { ++count; });
    EXPECT_EQ(count, 4u);
  }

  // Corrupt a byte INSIDE the tail record's payload: CRC catches it and
  // the clean prefix survives.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  {
    Changelog log(dir, 1);
    EXPECT_EQ(log.last_index(), 3u);
  }
}

TEST(Changelog, ResetRotatesTheFile) {
  const auto dir = TestDir("changelog_reset");
  Changelog log(dir, 7);
  log.Append(1, RegisterRecord("w", "e:1", 1.0));
  log.Append(2, HeartbeatRecord("w", 1, 2.0));
  log.Reset();
  EXPECT_EQ(std::filesystem::file_size(dir / "replica_7.oplog"), 0u);
  // Post-rotation appends continue at the caller's index.
  log.Append(3, HeartbeatRecord("w", 1, 3.0));
  std::size_t count = 0;
  log.Replay([&count](std::uint64_t index, const LogRecord&) {
    ++count;
    EXPECT_EQ(index, 3u);
  });
  EXPECT_EQ(count, 1u);
}

// --- Deterministic replay and the image codec --------------------------------

TEST(ReplicaState, ReplayedLogYieldsIdenticalRegistry) {
  // The replicated-state-machine property: applying the same records in
  // the same order into two fresh registries gives identical views —
  // including evictions, whose outcome rides on the logged timestamps.
  const std::vector<LogRecord> records = {
      RegisterRecord("map-0", "-", 100.0),
      RegisterRecord("reduce-0", "r:1", 100.5),
      HeartbeatRecord("map-0", 1, 101.0),
      [] {
        LogRecord rec;
        rec.type = LogRecordType::kExpire;
        rec.now_s = 103.0;
        rec.lease_s = 2.0;  // reduce-0 (last heard 100.5) expires
        return rec;
      }(),
      RegisterRecord("reduce-0", "r:2", 104.0),
  };

  coord::WorkerRegistry a;
  coord::WorkerRegistry b;
  for (const LogRecord& rec : records) replica::ApplyRecord(&a, rec);
  // Round-trip every record through its wire payload before applying to b,
  // as a standby would.
  for (const LogRecord& rec : records) {
    const LogRecord decoded =
        LogRecord::DecodePayload(rec.type, rec.EncodePayload());
    replica::ApplyRecord(&b, decoded);
  }

  const auto va = a.Snapshot();
  const auto vb = b.Snapshot();
  EXPECT_EQ(va.epoch, vb.epoch);
  ASSERT_EQ(va.entries.size(), vb.entries.size());
  for (std::size_t i = 0; i < va.entries.size(); ++i) {
    EXPECT_EQ(va.entries[i].worker, vb.entries[i].worker);
    EXPECT_EQ(va.entries[i].generation, vb.entries[i].generation);
    EXPECT_EQ(va.entries[i].alive, vb.entries[i].alive);
    EXPECT_EQ(va.entries[i].endpoint, vb.entries[i].endpoint);
  }
  // The expiry actually happened, and the re-register bumped the
  // generation — continuity, not a reset.
  coord::WorkerInfo info;
  ASSERT_TRUE(a.Lookup("reduce-0", &info));
  EXPECT_TRUE(info.alive);
  EXPECT_EQ(info.generation, 2u);
  EXPECT_EQ(info.endpoint, "r:2");
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(ReplicaState, RecordAndImageBytesAreStable) {
  // Changelogs and registry snapshots outlive the process that wrote them:
  // these bytes must keep loading, so their layout is pinned here.
  LogRecord expire;
  expire.type = LogRecordType::kExpire;
  expire.now_s = 103.0;
  expire.lease_s = 2.0;
  LogRecord lost;
  lost.type = LogRecordType::kLost;
  lost.worker = "r-0";
  const std::vector<std::pair<LogRecord, std::string>> records = {
      {RegisterRecord("m-0", "h:1", 100.5),
       "030000006d2d3003000000683a31000000000000205940"},
      {HeartbeatRecord("m-0", 3, 101.0),
       "030000006d2d3003000000000000000000000000405940"},
      {expire, "0000000000c059400000000000000040"},
      {lost, "03000000722d30"},
  };
  for (const auto& [rec, golden] : records) {
    SCOPED_TRACE(replica::LogRecordTypeName(rec.type));
    const std::string payload = rec.EncodePayload();
    EXPECT_EQ(Hex(payload), golden);
    EXPECT_EQ(LogRecord::DecodePayload(rec.type, payload).EncodePayload(),
              payload);
  }

  coord::WorkerRegistry registry;
  (void)registry.Register("m-0", "h:1", net::WireRole::kReduce, 50.25);
  const std::string image = SerializeCheckpointImage(
      replica::ImageFromRegistry(registry, /*applied_index=*/4,
                                 /*leader_epoch=*/2));
  EXPECT_EQ(Hex(image),
            "0400000000000000020000000000000001000000000000000100000002000000"
            "0000000000000000000000000000000000000000010000000000000003000000"
            "19000000006d2d3003000000683a310101000000000000000000000000204940"
            "01");
}

TEST(ReplicaState, ImageRoundTripsThroughCheckpointCodec) {
  coord::WorkerRegistry registry;
  (void)registry.Register("map-0", "-", net::WireRole::kMap, 50.25);
  (void)registry.Register("reduce-0", "r:1", net::WireRole::kReduce, 51.75);
  (void)registry.Heartbeat("map-0", 1, 52.5);
  (void)registry.ExpireLeases(60.0, 2.0);  // both expire

  const CheckpointImage image =
      replica::ImageFromRegistry(registry, /*applied_index=*/42,
                                 /*leader_epoch=*/7);
  const std::string bytes = SerializeCheckpointImage(image);

  coord::WorkerRegistry restored;
  std::uint64_t leader_epoch = 3;  // must max-merge up to 7
  replica::RestoreRegistryFromImage(ParseCheckpointImage(bytes), &restored,
                                    &leader_epoch);
  EXPECT_EQ(leader_epoch, 7u);
  EXPECT_EQ(restored.epoch(), registry.epoch());
  const auto before = registry.Snapshot();
  const auto after = restored.Snapshot();
  ASSERT_EQ(after.entries.size(), before.entries.size());
  for (std::size_t i = 0; i < before.entries.size(); ++i) {
    EXPECT_EQ(after.entries[i].worker, before.entries[i].worker);
    EXPECT_EQ(after.entries[i].generation, before.entries[i].generation);
    EXPECT_EQ(after.entries[i].alive, before.entries[i].alive);
  }
  // Post-restore mutations continue the sequence: dead workers re-register
  // under the NEXT generation, exactly as on the original.
  EXPECT_EQ(restored.Register("map-0", "-", net::WireRole::kMap, 61.0), 2u);
}

// --- Replica groups over real TCP --------------------------------------------

struct ReplicaNode {
  MetricRegistry metrics;
  std::unique_ptr<net::TcpTransport> wire;
  std::unique_ptr<CoordinatorReplica> rep;

  // kill -9 equivalent: stop serving and sever every connection at once.
  void Kill() {
    rep->Stop();
    wire->Shutdown();
  }
};

std::vector<std::unique_ptr<ReplicaNode>> MakeGroup(
    const std::string& tag, int n,
    const std::function<void(CoordinatorReplica::Options&)>& tweak = {}) {
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  for (int i = 0; i < n; ++i) {
    auto node = std::make_unique<ReplicaNode>();
    node->wire = std::make_unique<net::TcpTransport>(&node->metrics);
    node->wire->Bind();
    nodes.push_back(std::move(node));
  }
  for (int i = 0; i < n; ++i) {
    CoordinatorReplica::Options opts;
    opts.replica_id = static_cast<std::uint32_t>(i + 1);
    opts.endpoint = nodes[i]->wire->endpoint();
    opts.changelog_dir = TestDir(tag + "_r" + std::to_string(i + 1));
    opts.vote_interval_ms = 25;
    opts.election_timeout_ms = 250;
    opts.sweep_interval_ms = 25;
    opts.lease_s = 30.0;  // failure detection is not under test by default
    opts.rejoin_grace_s = 30.0;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      opts.peers.push_back({static_cast<std::uint32_t>(j + 1),
                            nodes[j]->wire->endpoint()});
    }
    if (tweak) tweak(opts);
    nodes[i]->rep = std::make_unique<CoordinatorReplica>(
        nodes[i]->wire.get(), &nodes[i]->metrics, opts);
  }
  return nodes;
}

void StopGroup(std::vector<std::unique_ptr<ReplicaNode>>& nodes) {
  for (auto& node : nodes) {
    if (node->rep) node->rep->Stop();
  }
  for (auto& node : nodes) node->wire->Shutdown();
}

template <typename Pred>
bool PollUntil(double timeout_s, Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

TEST(ReplicaElection, LowestLiveIdClaimsExactlyOnce) {
  auto nodes = MakeGroup("elect", 3);
  // Replica 1 is the lowest id: it and only it claims, at epoch 1.
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));
  EXPECT_EQ(nodes[0]->rep->leader_epoch(), 1u);
  ASSERT_TRUE(nodes[1]->rep->WaitForLeader(10.0));
  ASSERT_TRUE(nodes[2]->rep->WaitForLeader(10.0));
  EXPECT_EQ(nodes[1]->rep->known_leader(), 1u);
  EXPECT_EQ(nodes[2]->rep->known_leader(), 1u);
  EXPECT_FALSE(nodes[1]->rep->is_leader());
  EXPECT_FALSE(nodes[2]->rep->is_leader());
  const auto total_elections = nodes[0]->metrics.Value("replica.elections") +
                               nodes[1]->metrics.Value("replica.elections") +
                               nodes[2]->metrics.Value("replica.elections");
  EXPECT_EQ(total_elections, 1);
  StopGroup(nodes);
}

TEST(ReplicaElection, LeaderKillFailsOverWithSingleEpochBumpAndStateIntact) {
  auto nodes = MakeGroup("failover", 3);
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));

  // Register a worker with the leader, then wait until the mutation has
  // replicated to both standbys.
  coord::CoordClient::Options mopts;
  mopts.coordinator = nodes[0]->wire->endpoint();
  mopts.worker_id = "w1";
  mopts.endpoint = "w:1";
  MetricRegistry client_metrics;
  coord::CoordClient member(&client_metrics, mopts);
  member.Join(10.0);
  EXPECT_EQ(member.generation(), 1u);
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->rep->applied_index() >= 1 &&
           nodes[2]->rep->applied_index() >= 1;
  }));
  member.Stop();  // single-endpoint client; failover is the next test's job

  nodes[0]->Kill();
  // Replica 2 is now the lowest live id: exactly one epoch bump, and the
  // replicated registry still holds w1 at generation 1.
  ASSERT_TRUE(nodes[1]->rep->WaitForLeadership(10.0));
  EXPECT_EQ(nodes[1]->rep->leader_epoch(), 2u);
  coord::WorkerInfo info;
  ASSERT_TRUE(nodes[1]->rep->registry().Lookup("w1", &info));
  EXPECT_TRUE(info.alive);
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.endpoint, "w:1");
  // The new leader re-stamped the inherited lease with its own WALL clock
  // on claiming.  A steady-clock stamp (time since THIS host's boot) would
  // sit hours or days away from wall time and the first sweep would evict
  // every worker the failover was supposed to preserve.
  const double wall_now_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  EXPECT_NEAR(info.last_heartbeat_s, wall_now_s, 120.0);
  // The remaining standby observes the same term and leader.
  ASSERT_TRUE(nodes[2]->rep->WaitForLeader(10.0, /*min_epoch=*/2));
  EXPECT_EQ(nodes[2]->rep->known_leader(), 2u);
  EXPECT_FALSE(nodes[2]->rep->is_leader());
  EXPECT_EQ(nodes[1]->metrics.Value("replica.elections"), 1);
  EXPECT_EQ(nodes[2]->metrics.Value("replica.elections"), 0);

  nodes[0]->rep.reset();  // already dead
  StopGroup(nodes);
}

TEST(ReplicaClient, EndpointFailoverKeepsGenerationContinuity) {
  auto nodes = MakeGroup("clientfo", 3);
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));

  coord::CoordClient::Options mopts;
  mopts.endpoints = {nodes[0]->wire->endpoint(), nodes[1]->wire->endpoint(),
                     nodes[2]->wire->endpoint()};
  mopts.worker_id = "w1";
  mopts.endpoint = "w:1";
  mopts.heartbeat_interval_ms = 25;
  mopts.failover_threshold = 2;
  MetricRegistry client_metrics;
  coord::CoordClient member(&client_metrics, mopts);
  member.Join(10.0);
  EXPECT_EQ(member.generation(), 1u);
  EXPECT_EQ(member.leader_epoch(), 1u);
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->rep->applied_index() >= 1 &&
           nodes[2]->rep->applied_index() >= 1;
  }));

  nodes[0]->Kill();
  // The client notices dead heartbeats, rotates through the endpoint list
  // (standby redirects included), and re-registers with the new leader
  // under the SAME worker id: generation bumps to 2, no eviction fires.
  ASSERT_TRUE(PollUntil(20.0, [&] { return member.failovers() >= 1; }));
  EXPECT_EQ(member.generation(), 2u);
  EXPECT_EQ(member.evictions(), 0u);
  EXPECT_EQ(member.leader_epoch(), 2u);
  coord::WorkerInfo info;
  ASSERT_TRUE(nodes[1]->rep->registry().Lookup("w1", &info));
  EXPECT_TRUE(info.alive);
  EXPECT_EQ(info.generation, 2u);

  // Heartbeats renew against the new leader: the lease holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(member.failovers(), 1u);
  EXPECT_TRUE(nodes[1]->rep->is_leader());

  member.Stop();
  nodes[0]->rep.reset();
  StopGroup(nodes);
}

TEST(ReplicaFencing, StaleEpochAppendsAreDroppedByStandbys) {
  auto nodes = MakeGroup("fence", 2);
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));
  ASSERT_TRUE(nodes[1]->rep->WaitForLeader(10.0));
  const std::uint64_t applied = nodes[1]->rep->applied_index();

  // A deposed "leader" (epoch 0 < current 1) streams an append to the
  // standby: fenced — not applied, not even at the right index.
  MetricRegistry fake_metrics;
  net::TcpTransport fake(&fake_metrics, nodes[1]->wire->endpoint());
  auto conn = fake.Connect([](net::Connection*, net::Frame) {});
  const LogRecord ghost = RegisterRecord("ghost", "g:1", 1.0);
  net::LogAppendMsg stale;
  stale.epoch = 0;
  stale.index = applied + 1;
  stale.record_type = static_cast<std::uint8_t>(ghost.type);
  stale.record = ghost.EncodePayload();
  conn->Send(stale.ToFrame());
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->metrics.Value("replica.stale_frames") >= 1;
  }));
  EXPECT_EQ(nodes[1]->rep->applied_index(), applied);
  coord::WorkerInfo info;
  EXPECT_FALSE(nodes[1]->rep->registry().Lookup("ghost", &info));

  // The same append at the CURRENT epoch lands: the fence is epoch-based,
  // not sender-based.
  net::LogAppendMsg current = stale;
  current.epoch = nodes[1]->rep->leader_epoch();
  conn->Send(current.ToFrame());
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->rep->applied_index() == applied + 1;
  }));
  EXPECT_TRUE(nodes[1]->rep->registry().Lookup("ghost", &info));

  conn->Close();
  fake.Shutdown();
  StopGroup(nodes);
}

TEST(ReplicaAuth, UnauthenticatedPeerFramesAreDropped) {
  // Epoch fencing orders honest replicas; only the shared secret stops a
  // hostile process from injecting registry state or deposing the leader
  // with an arbitrarily high epoch.
  auto nodes = MakeGroup("auth", 2, [](CoordinatorReplica::Options& opts) {
    opts.secret = "s3cret";
  });
  // Votes and the claim carry the secret, so the group still forms.
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));
  ASSERT_TRUE(nodes[1]->rep->WaitForLeader(10.0));
  const std::uint64_t applied = nodes[1]->rep->applied_index();
  const std::uint64_t epoch = nodes[1]->rep->leader_epoch();

  MetricRegistry fake_metrics;
  net::TcpTransport to_standby(&fake_metrics, nodes[1]->wire->endpoint());
  auto standby_conn = to_standby.Connect([](net::Connection*, net::Frame) {});
  net::TcpTransport to_leader(&fake_metrics, nodes[0]->wire->endpoint());
  auto leader_conn = to_leader.Connect([](net::Connection*, net::Frame) {});

  // Registry injection without the secret: a perfectly-formed append at
  // the current epoch and the very next index, dropped anyway.
  const LogRecord ghost = RegisterRecord("ghost", "g:1", 1.0);
  net::LogAppendMsg append;
  append.epoch = epoch;
  append.index = applied + 1;
  append.record_type = static_cast<std::uint8_t>(ghost.type);
  append.record = ghost.EncodePayload();
  standby_conn->Send(append.ToFrame());

  // Depose attempt against the leader: a high-epoch claim with no secret.
  net::LeaderClaimMsg depose;
  depose.replica = 99;
  depose.epoch = epoch + 1000;
  depose.endpoint = "evil:1";
  leader_conn->Send(depose.ToFrame());

  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->metrics.Value("coord.auth_failures") >= 1 &&
           nodes[0]->metrics.Value("coord.auth_failures") >= 1;
  }));
  EXPECT_EQ(nodes[1]->rep->applied_index(), applied);
  coord::WorkerInfo info;
  EXPECT_FALSE(nodes[1]->rep->registry().Lookup("ghost", &info));
  EXPECT_TRUE(nodes[0]->rep->is_leader());
  EXPECT_EQ(nodes[0]->rep->leader_epoch(), epoch);

  // The same append WITH the secret lands: the gate is the auth field.
  append.auth = "s3cret";
  standby_conn->Send(append.ToFrame());
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->rep->applied_index() == applied + 1;
  }));
  EXPECT_TRUE(nodes[1]->rep->registry().Lookup("ghost", &info));

  standby_conn->Close();
  leader_conn->Close();
  to_standby.Shutdown();
  to_leader.Shutdown();
  StopGroup(nodes);
}

TEST(ReplicaResilience, MalformedAppendRecordsAreDroppedNotFatal) {
  // The outer frame parses clean but the record inside lies: truncated
  // payload bytes, then an unknown record type.  Both must be dropped on
  // the reader thread — DecodePayload throws, and an escaped exception
  // there is std::terminate — with the cumulative ack still reporting the
  // unchanged applied index so the leader knows to re-seed.
  auto nodes = MakeGroup("malformed", 2);
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));
  ASSERT_TRUE(nodes[1]->rep->WaitForLeader(10.0));
  const std::uint64_t applied = nodes[1]->rep->applied_index();
  const std::uint64_t epoch = nodes[1]->rep->leader_epoch();

  MetricRegistry fake_metrics;
  net::TcpTransport fake(&fake_metrics, nodes[1]->wire->endpoint());
  std::atomic<std::uint64_t> acks{0};
  std::atomic<std::uint64_t> last_acked{~0ull};
  auto conn = fake.Connect([&](net::Connection*, net::Frame frame) {
    if (frame.type != net::FrameType::kLogAck) return;
    last_acked = net::LogAckMsg::Parse(frame).index;
    acks.fetch_add(1);
  });

  net::LogAppendMsg truncated;
  truncated.epoch = epoch;
  truncated.index = applied + 1;
  truncated.record_type = static_cast<std::uint8_t>(LogRecordType::kRegister);
  truncated.record = "\x02";  // worker-length field cut short
  conn->Send(truncated.ToFrame());
  ASSERT_TRUE(PollUntil(10.0, [&] { return acks.load() >= 1; }));
  EXPECT_EQ(last_acked.load(), applied);

  net::LogAppendMsg unknown = truncated;
  unknown.record_type = 0x7F;  // not a LogRecordType
  unknown.record.clear();
  conn->Send(unknown.ToFrame());
  ASSERT_TRUE(PollUntil(10.0, [&] { return acks.load() >= 2; }));
  EXPECT_EQ(last_acked.load(), applied);
  EXPECT_EQ(nodes[1]->rep->applied_index(), applied);
  ASSERT_GE(nodes[1]->metrics.Value("replica.stale_frames"), 2);

  // The replica survived both: a well-formed append still applies.
  const LogRecord good = RegisterRecord("w-good", "g:1", 1.0);
  net::LogAppendMsg ok;
  ok.epoch = epoch;
  ok.index = applied + 1;
  ok.record_type = static_cast<std::uint8_t>(good.type);
  ok.record = good.EncodePayload();
  conn->Send(ok.ToFrame());
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->rep->applied_index() == applied + 1;
  }));
  coord::WorkerInfo info;
  EXPECT_TRUE(nodes[1]->rep->registry().Lookup("w-good", &info));

  conn->Close();
  fake.Shutdown();
  StopGroup(nodes);
}

TEST(ReplicaRecovery, RestartRecoversFromSnapshotPlusLogSuffix) {
  const auto dir = TestDir("recover");
  MetricRegistry metrics;
  auto wire = std::make_unique<net::TcpTransport>(&metrics);
  wire->Bind();
  CoordinatorReplica::Options opts;
  opts.replica_id = 1;
  opts.endpoint = wire->endpoint();
  opts.changelog_dir = dir;
  opts.vote_interval_ms = 10;
  opts.election_timeout_ms = 50;
  opts.lease_s = 30.0;
  opts.snapshot_interval_records = 4;  // force a rotation mid-test
  auto rep = std::make_unique<CoordinatorReplica>(wire.get(), &metrics, opts);
  ASSERT_TRUE(rep->WaitForLeadership(10.0));

  coord::CoordClient::Options mopts;
  mopts.coordinator = wire->endpoint();
  mopts.worker_id = "w1";
  mopts.endpoint = "w:1";
  mopts.heartbeat_interval_ms = 10;
  MetricRegistry client_metrics;
  coord::CoordClient member(&client_metrics, mopts);
  member.Join(10.0);
  // Heartbeats push applied_index across several snapshot intervals.
  ASSERT_TRUE(PollUntil(10.0, [&] { return rep->applied_index() >= 10; }));
  member.Stop();
  ASSERT_GE(metrics.Value("replica.snapshots_written"), 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // drain
  rep->Stop();
  wire->Shutdown();  // joins reader threads BEFORE the replica dies
  const std::uint64_t applied = rep->applied_index();
  const std::uint64_t epoch = rep->leader_epoch();
  rep.reset();

  // A fresh process on the same changelog dir recovers the exact applied
  // index (snapshot watermark + replayed log suffix), the worker record,
  // and the leadership epoch it had persisted.
  MetricRegistry metrics2;
  net::TcpTransport wire2(&metrics2);
  wire2.Bind();
  opts.endpoint = wire2.endpoint();
  CoordinatorReplica recovered(&wire2, &metrics2, opts);
  EXPECT_EQ(recovered.applied_index(), applied);
  coord::WorkerInfo info;
  ASSERT_TRUE(recovered.registry().Lookup("w1", &info));
  EXPECT_EQ(info.generation, 1u);
  ASSERT_TRUE(recovered.WaitForLeadership(10.0));
  EXPECT_GE(recovered.leader_epoch(), epoch);

  recovered.Stop();
  wire2.Shutdown();
}

// --- Chaos: kill -9 the leader mid-job ---------------------------------------

TEST(ReplicaChaos, LeaderKillMidJobKeepsOutputByteIdentical) {
  // The PR's acceptance property: a 3-replica coordinator loses its leader
  // while a real TCP-shuffled job is running.  The standby takes over with
  // exactly one epoch bump, the worker's CoordClient fails over without an
  // eviction, and the job's output matches the clean in-process run
  // byte-for-byte.
  const auto truth = [] {
    Platform platform({.num_nodes = 3, .block_bytes = 256u << 10});
    ClickStreamOptions gen;
    gen.num_records = 40'000;
    gen.num_users = 5'000;
    GenerateClickStream(platform.dfs(), "clicks", gen);
    (void)platform.Run(PerUserCountJob("clicks", "out", 2),
                       HashOnePassOptions());
    return AsMap(platform.ReadOutput("out", 2));
  }();

  auto nodes = MakeGroup("chaos", 3);
  ASSERT_TRUE(nodes[0]->rep->WaitForLeadership(10.0));

  Platform platform({.num_nodes = 3, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 40'000;
  gen.num_users = 5'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  coord::CoordClient::Options mopts;
  mopts.endpoints = {nodes[0]->wire->endpoint(), nodes[1]->wire->endpoint(),
                     nodes[2]->wire->endpoint()};
  mopts.worker_id = "chaos-w";
  mopts.endpoint = "-";
  mopts.heartbeat_interval_ms = 25;
  mopts.failover_threshold = 2;
  coord::CoordClient member(&platform.metrics(), mopts);
  member.Join(10.0);
  ASSERT_EQ(member.generation(), 1u);
  ASSERT_TRUE(PollUntil(10.0, [&] {
    return nodes[1]->rep->applied_index() >= 1 &&
           nodes[2]->rep->applied_index() >= 1;
  }));

  platform.executor().set_cluster_identity("chaos-w", "");
  platform.executor().set_coord_client(&member);

  // Assassin: kill the leader shortly after the job starts moving bytes.
  std::thread assassin([&nodes] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    nodes[0]->Kill();
  });

  JobOptions options = HashOnePassOptions();
  options.push_chunk_bytes = 4096;  // many frames: the kill lands mid-stream
  net::TcpTransport shuffle_wire(&platform.metrics());
  shuffle_wire.Bind();
  ASSERT_NO_THROW((void)platform.RunWithTransport(
      PerUserCountJob("clicks", "out", 2), options, &shuffle_wire,
      /*shared_fs=*/false));
  assassin.join();
  platform.executor().set_coord_client(nullptr);

  // The failover completes even if the job outran it: the client keeps
  // heartbeating after Run() until it lands on the new leader.
  ASSERT_TRUE(PollUntil(20.0, [&] { return member.failovers() >= 1; }));
  EXPECT_EQ(member.evictions(), 0u);
  EXPECT_EQ(member.generation(), 2u);
  EXPECT_EQ(member.leader_epoch(), 2u);

  // Exactly one epoch bump: replica 2 leads term 2, replica 3 agrees.
  ASSERT_TRUE(nodes[1]->rep->WaitForLeadership(10.0));
  EXPECT_EQ(nodes[1]->rep->leader_epoch(), 2u);
  EXPECT_EQ(nodes[1]->metrics.Value("replica.elections"), 1);
  EXPECT_EQ(nodes[2]->metrics.Value("replica.elections"), 0);
  coord::WorkerInfo info;
  ASSERT_TRUE(nodes[1]->rep->registry().Lookup("chaos-w", &info));
  EXPECT_TRUE(info.alive);

  member.Stop();
  nodes[0]->rep.reset();
  StopGroup(nodes);

  EXPECT_EQ(AsMap(platform.ReadOutput("out", 2)), truth);
}

}  // namespace
}  // namespace opmr
