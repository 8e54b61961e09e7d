// Cluster coordination plane: worker registry determinism, the
// coordinator's lease failure detector over real TCP, auth on Register,
// seeded heartbeat-loss chaos recovered through the ack-window replay,
// a client that stops promptly once its coordinator is gone, and a full
// partitioned 2-mapper / 1-reducer topology that must be answer-identical
// to the in-process engine, also when the coordinator is stopped mid-job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coord/coordinator.h"
#include "coord/member.h"
#include "coord/registry.h"
#include "core/opmr.h"
#include "engine/shuffle_remote.h"
#include "fault/fault.h"
#include "net/tcp.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

std::map<std::string, std::string> AsMap(const Rows& rows) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : rows) {
    EXPECT_TRUE(m.emplace(k, v).second) << "duplicate key " << k;
  }
  return m;
}

// Installs/uninstalls the process-global net fault hook for code paths
// (Join, heartbeats) that run outside ClusterExecutor::Run's own guard.
class ScopedNetFaultHook {
 public:
  explicit ScopedNetFaultHook(net::NetFaultHook* hook) {
    net::SetNetFaultHook(hook);
  }
  ~ScopedNetFaultHook() { net::SetNetFaultHook(nullptr); }
};

void GenerateInput(Platform& platform) {
  ClickStreamOptions gen;
  gen.num_records = 40'000;
  gen.num_users = 5'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
}

std::map<std::string, std::string> DirectTruth() {
  Platform platform({.num_nodes = 3, .block_bytes = 256u << 10});
  GenerateInput(platform);
  (void)platform.Run(PerUserCountJob("clicks", "out", 2),
                     HashOnePassOptions());
  return AsMap(platform.ReadOutput("out", 2));
}

// --- Registry: deterministic membership bookkeeping --------------------------

TEST(WorkerRegistry, GenerationEpochAndLeaseLifecycle) {
  coord::WorkerRegistry registry;

  EXPECT_EQ(registry.Register("w1", "host-a:1", net::WireRole::kMap, 0.0), 1u);
  EXPECT_EQ(registry.Register("w2", "host-b:2", net::WireRole::kReduce, 0.0),
            1u);
  const auto epoch_after_joins = registry.epoch();
  EXPECT_EQ(registry.LiveCount(net::WireRole::kMap), 1u);
  EXPECT_EQ(registry.LiveCount(net::WireRole::kReduce), 1u);

  // Lease renewal only with the current generation.
  EXPECT_TRUE(registry.Heartbeat("w1", 1, 1.0));
  EXPECT_FALSE(registry.Heartbeat("w1", 0, 1.0));  // stale generation
  EXPECT_FALSE(registry.Heartbeat("ghost", 1, 1.0));

  // Expiry is a pure function of (now, lease) over the heartbeat history:
  // w1 renewed at t=1, w2 never after registering at t=0.
  EXPECT_TRUE(registry.ExpireLeases(1.5, 2.0).empty());
  const auto expired = registry.ExpireLeases(2.5, 2.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], "w2");
  EXPECT_EQ(registry.LiveCount(net::WireRole::kReduce), 0u);
  EXPECT_GT(registry.epoch(), epoch_after_joins);

  // An evicted worker cannot renew; it must re-register (generation bump).
  EXPECT_FALSE(registry.Heartbeat("w2", 1, 2.6));
  EXPECT_EQ(registry.Register("w2", "host-b:2", net::WireRole::kReduce, 3.0),
            2u);
  EXPECT_TRUE(registry.Heartbeat("w2", 2, 3.1));
  EXPECT_EQ(registry.LiveCount(net::WireRole::kReduce), 1u);

  // Re-running the same (event, timestamp) sequence on a fresh registry
  // yields the same evictions — the determinism the chaos tests lean on.
  coord::WorkerRegistry replay;
  (void)replay.Register("w1", "host-a:1", net::WireRole::kMap, 0.0);
  (void)replay.Register("w2", "host-b:2", net::WireRole::kReduce, 0.0);
  (void)replay.Heartbeat("w1", 1, 1.0);
  EXPECT_EQ(replay.ExpireLeases(2.5, 2.0), expired);
}

TEST(WorkerRegistry, SnapshotAndPlacementOrder) {
  coord::WorkerRegistry registry;
  (void)registry.Register("map-b", "b:1", net::WireRole::kMap, 0.0);
  (void)registry.Register("map-a", "a:1", net::WireRole::kMap, 0.0);
  (void)registry.Register("reduce-0", "r:1", net::WireRole::kReduce, 0.0);

  // Snapshot keeps registration order (the broadcast view).
  const auto view = registry.Snapshot();
  ASSERT_EQ(view.entries.size(), 3u);
  EXPECT_EQ(view.entries[0].worker, "map-b");

  coord::WorkerInfo info;
  ASSERT_TRUE(registry.Lookup("reduce-0", &info));
  EXPECT_EQ(info.endpoint, "r:1");
  EXPECT_FALSE(registry.Lookup("nope", &info));
}

// --- Coordinator + CoordClient over real TCP ---------------------------------

TEST(Coordinator, AuthenticatedJoinAndWrongSecretRejection) {
  MetricRegistry metrics;
  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator::Options copts;
  copts.secret = "hush";
  coord::Coordinator coordinator(&transport, &metrics, copts);

  // Wrong secret: structured rejection, never registered.
  {
    coord::CoordClient::Options wrong;
    wrong.coordinator = transport.endpoint();
    wrong.worker_id = "intruder";
    wrong.endpoint = "-";
    wrong.secret = "guess";
    coord::CoordClient client(&metrics, wrong);
    EXPECT_THROW(client.Join(5.0), coord::CoordError);
  }
  EXPECT_EQ(metrics.Value("coord.auth_failures"), 1);
  EXPECT_EQ(coordinator.registry().LiveCount(net::WireRole::kMap), 0u);

  // Right secret: joins, appears in the view with its advertised endpoint.
  coord::CoordClient::Options good;
  good.coordinator = transport.endpoint();
  good.worker_id = "reduce-0";
  good.endpoint = "10.9.8.7:4242";
  good.role = net::WireRole::kReduce;
  good.secret = "hush";
  coord::CoordClient client(&metrics, good);
  client.Join(5.0);
  EXPECT_EQ(client.generation(), 1u);
  ASSERT_TRUE(
      coordinator.WaitForWorkers(net::WireRole::kReduce, 1, 5.0));
  coord::WorkerInfo info;
  ASSERT_TRUE(coordinator.registry().Lookup("reduce-0", &info));
  EXPECT_EQ(info.endpoint, "10.9.8.7:4242");

  // The client's own view converges to the same membership.
  std::vector<net::MembershipMsg::Entry> live;
  ASSERT_TRUE(client.WaitForRole(net::WireRole::kReduce, 1, 5.0, &live));
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].endpoint, "10.9.8.7:4242");

  client.Stop();
  coordinator.Stop();
  transport.Shutdown();
}

TEST(Coordinator, RegistryPartitionDelaysJoinUntilBudgetExhausted) {
  // A registry_partition fault swallows the first Register before it hits
  // the wire; the join loop's retry (attempt 2, past the fault's budget)
  // goes through.  Deterministic: no timing in the decision, only in how
  // long the retry backoff takes.
  MetricRegistry metrics;
  FaultInjector injector(FaultPlan::Parse("seed=5;registry_partition:tag=w1"),
                         &metrics);
  ScopedNetFaultHook hook(&injector);

  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator coordinator(&transport, &metrics, {});

  coord::CoordClient::Options mopts;
  mopts.coordinator = transport.endpoint();
  mopts.worker_id = "w1";
  mopts.endpoint = "-";
  mopts.register_retry_ms = 20;
  coord::CoordClient client(&metrics, mopts);
  client.Join(10.0);
  EXPECT_EQ(client.generation(), 1u);
  EXPECT_EQ(metrics.Value("coord.client.registers_suppressed"), 1);
  EXPECT_GE(metrics.Value("coord.client.registers_sent"), 1);

  client.Stop();
  coordinator.Stop();
  transport.Shutdown();
}

TEST(Coordinator, HeartbeatLossRunsTheLeaseDetector) {
  // Starve generation-1 heartbeats via the chaos plane: the lease lapses
  // (dead in the membership broadcast), the client re-registers under
  // generation 2, on_worker_returned fires at the coordinator and
  // on_evicted fires at the client.
  MetricRegistry metrics;
  FaultInjector injector(FaultPlan::Parse("seed=1;heartbeat_loss:tag=w1"),
                         &metrics);
  ScopedNetFaultHook hook(&injector);

  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator::Options copts;
  copts.lease_s = 0.15;
  copts.sweep_interval_ms = 20;
  std::atomic<int> returned{0};
  copts.on_worker_returned = [&returned](const std::string&) { ++returned; };
  coord::Coordinator coordinator(&transport, &metrics, copts);

  coord::CoordClient::Options mopts;
  mopts.coordinator = transport.endpoint();
  mopts.worker_id = "w1";
  mopts.endpoint = "-";
  mopts.heartbeat_interval_ms = 30;
  coord::CoordClient client(&metrics, mopts);
  std::atomic<int> evicted{0};
  client.SetOnEvicted([&evicted] { ++evicted; });
  client.Join(5.0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((client.evictions() < 1 || evicted.load() < 1 ||
          returned.load() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(client.evictions(), 1u);
  EXPECT_EQ(metrics.Value("coord.client.evictions"),
            static_cast<std::int64_t>(client.evictions()));
  EXPECT_GE(evicted.load(), 1);
  EXPECT_GE(returned.load(), 1);
  EXPECT_GE(client.generation(), 2u);  // rejoined under a fresh generation
  EXPECT_GE(metrics.Value("coord.client.heartbeats_suppressed"), 1);

  // Generation-2 heartbeats flow (the fault budgets generation 1), so the
  // membership now holds steady.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(coordinator.registry().LiveCount(net::WireRole::kMap), 1u);

  client.Stop();
  coordinator.Stop();
  transport.Shutdown();
}

TEST(Coordinator, JoinDeadlineBoundsAMissingOrLateCoordinator) {
  // Join dials once per Register attempt, so its deadline alone bounds a
  // coordinator that is not there, and a coordinator that starts late is
  // found on a later attempt.
  MetricRegistry metrics;
  std::string endpoint;
  {
    net::TcpTransport probe(&metrics);
    probe.Bind();
    endpoint = probe.endpoint();
  }
  const int port = std::stoi(endpoint.substr(endpoint.rfind(':') + 1));

  coord::CoordClient::Options mopts;
  mopts.coordinator = endpoint;
  mopts.worker_id = "w1";
  mopts.endpoint = "-";
  mopts.register_retry_ms = 20;
  {
    coord::CoordClient absent(&metrics, mopts);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(absent.Join(0.3), coord::CoordError);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 1.0);
  }

  net::TcpTransport::Options topts;
  topts.bind_port = port;
  net::TcpTransport transport(&metrics, topts);
  std::unique_ptr<coord::Coordinator> coordinator;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    transport.Bind();
    coordinator = std::make_unique<coord::Coordinator>(
        &transport, &metrics, coord::Coordinator::Options{});
  });
  coord::CoordClient client(&metrics, mopts);
  EXPECT_NO_THROW(client.Join(10.0));
  late.join();
  EXPECT_EQ(client.generation(), 1u);

  client.Stop();
  coordinator->Stop();
  transport.Shutdown();
}

TEST(Coordinator, StopIsPromptOnceTheCoordinatorIsGone) {
  // With the coordinator gone, every heartbeat tick makes one refused dial
  // and returns; nothing redials in place, so Stop() joins the heartbeat
  // thread within a tick instead of waiting out a connect backoff.
  MetricRegistry metrics;
  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator coordinator(&transport, &metrics, {});

  coord::CoordClient::Options mopts;
  mopts.coordinator = transport.endpoint();
  mopts.worker_id = "w1";
  mopts.endpoint = "-";
  mopts.heartbeat_interval_ms = 50;
  coord::CoordClient client(&metrics, mopts);
  client.Join(5.0);

  coordinator.Stop();
  transport.Shutdown();
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(3 * mopts.heartbeat_interval_ms));

  const auto start = std::chrono::steady_clock::now();
  client.Stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);
  EXPECT_EQ(client.evictions(), 0u);
}

// --- Chaos: coordination signals recovering a real shuffle -------------------

TEST(CoordChaos, HeartbeatLossAndPeerCrashRecoverViaAckReplay) {
  // The PR's acceptance property in one process: a seeded plan both
  // starves the worker's generation-1 heartbeats (eviction -> rejoin ->
  // ReplayUnacked through the coordination wiring) and crashes the
  // reducer-side connection after discarding a delivered-but-unapplied
  // frame (peer_crash -> reconnect replay).  The job must not fail, must
  // replay the unacked window (shuffle.ack_replays > 0), and the answer
  // must match the clean in-process run exactly.
  const auto truth = DirectTruth();

  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.fault_plan = "seed=7;heartbeat_loss:tag=chaos-w;peer_crash:record=20";
  Platform platform(popts);
  GenerateInput(platform);

  MetricRegistry& metrics = platform.metrics();
  net::TcpTransport coord_wire(&metrics);
  coord_wire.Bind();
  coord::Coordinator::Options copts;
  copts.secret = "hush";
  copts.lease_s = 0.15;
  copts.sweep_interval_ms = 20;
  coord::Coordinator coordinator(&coord_wire, &metrics, copts);

  coord::CoordClient::Options mopts;
  mopts.coordinator = coord_wire.endpoint();
  mopts.worker_id = "chaos-w";
  mopts.endpoint = "-";
  mopts.secret = "hush";
  mopts.heartbeat_interval_ms = 30;
  coord::CoordClient member(&metrics, mopts);
  member.Join(5.0);  // Register flows: only heartbeats are starved

  platform.executor().set_cluster_identity("chaos-w", "hush");
  platform.executor().set_coord_client(&member);

  JobOptions options = HashOnePassOptions();
  options.push_chunk_bytes = 4096;  // many sequenced frames -> a real window
  net::TcpTransport shuffle_wire(&metrics);
  shuffle_wire.Bind();
  JobResult result;
  ASSERT_NO_THROW(result = platform.RunWithTransport(
                      PerUserCountJob("clicks", "out", 2), options,
                      &shuffle_wire, /*shared_fs=*/false));
  platform.executor().set_coord_client(nullptr);
  member.Stop();
  coordinator.Stop();
  coord_wire.Shutdown();

  EXPECT_GE(result.Bytes(kShuffleAckReplays), 1);
  EXPECT_GE(result.Bytes(kShuffleAckReplayedFrames), 1);
  EXPECT_GE(result.Bytes(kFaultsInjected), 1);
  EXPECT_EQ(AsMap(platform.ReadOutput("out", 2)), truth);
}

TEST(CoordChaos, ConnDropUnderCoordinationWiringStaysCorrect) {
  // conn_drop tears the shuffle connection before a frame's first
  // transmission; the reconnect path replays the unacked window behind a
  // fresh Hello while the coordination plane keeps its own connection.
  const auto truth = DirectTruth();

  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.fault_plan = "seed=3;conn_drop:record=30";
  Platform platform(popts);
  GenerateInput(platform);

  MetricRegistry& metrics = platform.metrics();
  net::TcpTransport coord_wire(&metrics);
  coord_wire.Bind();
  coord::Coordinator coordinator(&coord_wire, &metrics, {});
  coord::CoordClient::Options mopts;
  mopts.coordinator = coord_wire.endpoint();
  mopts.worker_id = "dropper";
  mopts.endpoint = "-";
  coord::CoordClient member(&metrics, mopts);
  member.Join(5.0);

  platform.executor().set_cluster_identity("dropper", "");
  platform.executor().set_coord_client(&member);

  net::TcpTransport shuffle_wire(&metrics);
  shuffle_wire.Bind();
  JobOptions options = HashOnePassOptions();
  options.push_chunk_bytes = 4096;  // enough frames for the drop to land
  JobResult result;
  ASSERT_NO_THROW(result = platform.RunWithTransport(
                      PerUserCountJob("clicks", "out", 2), options,
                      &shuffle_wire));
  platform.executor().set_coord_client(nullptr);
  member.Stop();
  coordinator.Stop();
  coord_wire.Shutdown();

  EXPECT_GE(result.Bytes(kFaultsInjected), 1);
  EXPECT_GE(result.Bytes(net::kNetReconnects), 1);
  EXPECT_EQ(AsMap(platform.ReadOutput("out", 2)), truth);
}

// --- Full topology: partitioned map groups behind the coordinator ------------

// Stops the coordinator from inside the job.  Once every map worker has
// found its reducer, the first frame a connection sends after its Hello or
// Register (on a shuffle connection, the first pushed chunk) stops the
// coordinator and shuts its transport down before the frame leaves, so the
// rest of the job runs with no coordinator at all.
class StopCoordinatorMidJob final : public net::NetFaultHook {
 public:
  StopCoordinatorMidJob(coord::Coordinator* coordinator,
                        net::TcpTransport* wire, int map_workers)
      : coordinator_(coordinator), wire_(wire), map_workers_(map_workers) {}

  // Called by each map worker once the view has shown it the reducer.
  void MapWorkerReady() { ++ready_; }

  bool OnFrameSend(std::uint64_t frame_seq, int attempt) override {
    if (frame_seq >= 2 && attempt == 1 && ready_.load() == map_workers_) {
      std::call_once(once_, [this] {
        std::thread stopper([this] {
          coordinator_->Stop();
          wire_->Shutdown();
        });
        stopper.join();
        stopped_ = true;
      });
    }
    return false;
  }

  [[nodiscard]] bool stopped() const { return stopped_.load(); }

 private:
  coord::Coordinator* coordinator_;
  net::TcpTransport* wire_;
  const int map_workers_;
  std::atomic<int> ready_{0};
  std::once_flag once_;
  std::atomic<bool> stopped_{false};
};

// The multi-worker shape the CLI's coordinator/worker modes run across
// processes, compressed into one: a coordinator, one reduce worker serving
// the shuffle, and two map workers that each generate the same
// deterministic input, discover the reducer through the membership view,
// and run disjoint halves of the block list (i % 2 == index).  Segment
// bytes ship inline — nothing assumes a shared filesystem.  With
// `stop_coordinator_mid_job` the coordinator is stopped from the first
// pushed chunk.
void RunTwoMapWorkerTopology(bool stop_coordinator_mid_job,
                             const std::map<std::string, std::string>& truth) {
  MetricRegistry coord_metrics;
  net::TcpTransport coord_wire(&coord_metrics);
  coord_wire.Bind();
  coord::Coordinator::Options copts;
  copts.secret = "hush";
  coord::Coordinator coordinator(&coord_wire, &coord_metrics, copts);
  const std::string coord_at = coord_wire.endpoint();
  StopCoordinatorMidJob stop_hook(&coordinator, &coord_wire,
                                  /*map_workers=*/2);
  std::unique_ptr<ScopedNetFaultHook> hook;
  if (stop_coordinator_mid_job) {
    hook = std::make_unique<ScopedNetFaultHook>(&stop_hook);
  }

  const PlatformOptions popts{.num_nodes = 3, .block_bytes = 256u << 10};
  const JobSpec spec = PerUserCountJob("clicks", "out", 2);
  const JobOptions options = HashOnePassOptions();

  // Reduce worker: binds the shuffle server and advertises it.
  Platform reduce_platform(popts);
  GenerateInput(reduce_platform);
  net::TcpTransport shuffle_server(&reduce_platform.metrics());
  shuffle_server.Bind();
  coord::CoordClient::Options ropts;
  ropts.coordinator = coord_at;
  ropts.worker_id = "reduce-0";
  ropts.endpoint = shuffle_server.endpoint();
  ropts.role = net::WireRole::kReduce;
  ropts.secret = "hush";
  coord::CoordClient reduce_member(&reduce_platform.metrics(), ropts);
  reduce_member.Join(10.0);
  reduce_platform.executor().set_cluster_identity("reduce-0", "hush");

  JobResult reduce_result;
  std::exception_ptr reduce_error;
  std::thread reducer([&] {
    try {
      reduce_result = reduce_platform.RunReduceGroup(spec, options,
                                                     &shuffle_server, 30.0);
    } catch (...) {
      reduce_error = std::current_exception();
    }
  });

  // Two map workers, one partition each.
  std::vector<std::unique_ptr<Platform>> map_platforms;
  std::vector<std::exception_ptr> map_errors(2);
  std::vector<std::uint64_t> map_evictions(2, 0);
  std::vector<std::thread> mappers;
  for (int i = 0; i < 2; ++i) {
    map_platforms.push_back(std::make_unique<Platform>(popts));
    GenerateInput(*map_platforms[i]);
  }
  for (int i = 0; i < 2; ++i) {
    mappers.emplace_back([&, i] {
      try {
        Platform& p = *map_platforms[i];
        coord::CoordClient::Options mopts;
        mopts.coordinator = coord_at;
        mopts.worker_id = "map-" + std::to_string(i);
        mopts.endpoint = "-";
        mopts.secret = "hush";
        coord::CoordClient member(&p.metrics(), mopts);
        member.Join(10.0);
        std::vector<net::MembershipMsg::Entry> live;
        if (!member.WaitForRole(net::WireRole::kReduce, 1, 10.0, &live)) {
          throw std::runtime_error("no reduce worker in the view");
        }
        stop_hook.MapWorkerReady();
        net::TcpTransport wire(&p.metrics(), live.front().endpoint);
        p.executor().set_cluster_identity("map-" + std::to_string(i), "hush");
        p.executor().set_map_partition(i, 2);
        p.executor().set_coord_client(&member);
        (void)p.RunMapGroup(spec, options, &wire, /*shared_fs=*/false);
        p.executor().set_coord_client(nullptr);
        member.Stop();
        map_evictions[i] = member.evictions();
      } catch (...) {
        map_errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : mappers) t.join();
  reducer.join();
  reduce_member.Stop();
  hook.reset();
  coordinator.Stop();
  coord_wire.Shutdown();

  for (int i = 0; i < 2; ++i) {
    if (map_errors[i]) {
      std::rethrow_exception(map_errors[i]);
    }
  }
  if (reduce_error) std::rethrow_exception(reduce_error);

  EXPECT_EQ(stop_hook.stopped(), stop_coordinator_mid_job);
  EXPECT_EQ(map_evictions, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_GT(reduce_result.num_map_tasks, 1);  // saw the full global task set
  EXPECT_GT(reduce_result.output_records, 0);
  EXPECT_EQ(AsMap(reduce_platform.ReadOutput("out", 2)), truth);
}

TEST(CoordTopology, TwoPartitionedMapWorkersMatchDirectAnswer) {
  RunTwoMapWorkerTopology(/*stop_coordinator_mid_job=*/false, DirectTruth());
}

// A running job does not need its coordinator: with the coordinator stopped
// from the first pushed chunk, the output still matches the direct answer
// and no map worker is evicted.
TEST(CoordTopology, CoordinatorStoppedMidJobMatchesDirectAnswer) {
  RunTwoMapWorkerTopology(/*stop_coordinator_mid_job=*/true, DirectTruth());
}

}  // namespace
}  // namespace opmr
