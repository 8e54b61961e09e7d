// Cluster coordination plane: the rendezvous coordinator over real TCP
// (view order, auth on Register, a restarted coordinator relearning its
// workers), a client that stops promptly once its coordinator is gone,
// shuffle faults recovered through the ack-window replay beside it, and a
// full partitioned 2-mapper / 1-reducer topology that must be
// answer-identical to the in-process engine, also when the coordinator is
// stopped mid-job.  Every test uses its own worker ids, and ports that a
// test rebinds stay reserved (ReservedPort) so a parallel test cannot take
// them in between.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "coord/coordinator.h"
#include "coord/member.h"
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
// (Join, announces) that run outside ClusterExecutor::Run's own guard.
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

// Holds a loopback port bound, but not listening, with SO_REUSEADDR: dials
// to it are refused, no other socket can take it, and a TcpTransport (which
// also sets SO_REUSEADDR) can still bind and listen on it.  Lets a test stop
// and start a coordinator on one port without racing parallel tests.
class ReservedPort {
 public:
  ReservedPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw std::runtime_error("ReservedPort: bind failed");
    }
    port_ = ntohs(addr.sin_port);
  }
  ~ReservedPort() { ::close(fd_); }
  ReservedPort(const ReservedPort&) = delete;
  ReservedPort& operator=(const ReservedPort&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  [[nodiscard]] net::TcpTransport::Options BindOptions() const {
    net::TcpTransport::Options opts;
    opts.bind_port = port_;
    return opts;
  }

 private:
  int fd_ = -1;
  int port_ = 0;
};

coord::CoordClient::Options ClientOptions(const std::string& coordinator,
                                          const std::string& id,
                                          const std::string& endpoint,
                                          net::WireRole role) {
  coord::CoordClient::Options opts;
  opts.coordinator = coordinator;
  opts.worker_id = id;
  opts.endpoint = endpoint;
  opts.role = role;
  return opts;
}

// Polls `done` every 5 ms until it holds or `timeout_s` passes.
template <typename Pred>
bool Eventually(Pred done, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// --- Coordinator + CoordClient over real TCP ---------------------------------

TEST(Coordinator, SnapshotAndPlacementOrder) {
  MetricRegistry metrics;
  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator coordinator(&transport, &metrics, {});

  std::vector<std::unique_ptr<coord::CoordClient>> clients;
  for (const auto& [id, endpoint, role] :
       {std::tuple{"order-map-b", "b:1", net::WireRole::kMap},
        std::tuple{"order-map-a", "a:1", net::WireRole::kMap},
        std::tuple{"order-reduce-0", "r:1", net::WireRole::kReduce}}) {
    auto opts = ClientOptions(transport.endpoint(), id, endpoint, role);
    opts.register_retry_ms = 20;
    clients.push_back(std::make_unique<coord::CoordClient>(&metrics, opts));
    clients.back()->Join(5.0);
  }

  // The view keeps registration order, one entry per id.
  const auto view = coordinator.Snapshot();
  ASSERT_EQ(view.entries.size(), 3u);
  EXPECT_EQ(view.entries[0].worker, "order-map-b");
  EXPECT_EQ(view.entries[1].worker, "order-map-a");
  EXPECT_EQ(view.entries[2].worker, "order-reduce-0");
  EXPECT_EQ(view.entries[2].endpoint, "r:1");
  EXPECT_EQ(view.epoch, 3u);

  // Re-announces that change nothing leave the view, and its epoch, alone.
  const auto registers = metrics.Value("coord.registers");
  ASSERT_TRUE(Eventually(
      [&] { return metrics.Value("coord.registers") >= registers + 6; }, 5.0));
  EXPECT_EQ(coordinator.Snapshot(), view);

  // Placement reads the reducer's endpoint from any client's view.
  std::vector<net::MembershipMsg::Entry> reducers;
  ASSERT_TRUE(clients[0]->WaitForRole(net::WireRole::kReduce, 1, 5.0,
                                      &reducers));
  ASSERT_EQ(reducers.size(), 1u);
  EXPECT_EQ(reducers[0].endpoint, "r:1");

  for (auto& client : clients) client->Stop();
  transport.Shutdown();
}

TEST(Coordinator, AuthenticatedJoinAndWrongSecretRejection) {
  MetricRegistry metrics;
  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator::Options copts;
  copts.secret = "hush";
  coord::Coordinator coordinator(&transport, &metrics, copts);

  // Wrong secret: structured rejection, never registered.
  {
    auto wrong = ClientOptions(transport.endpoint(), "auth-intruder", "-",
                               net::WireRole::kMap);
    wrong.secret = "guess";
    coord::CoordClient client(&metrics, wrong);
    EXPECT_THROW(client.Join(5.0), coord::CoordError);
  }
  EXPECT_EQ(metrics.Value("coord.auth_failures"), 1);
  EXPECT_TRUE(coordinator.Snapshot().entries.empty());

  // Right secret: joins, appears in the view with its advertised endpoint.
  auto good = ClientOptions(transport.endpoint(), "auth-reduce-0",
                            "10.9.8.7:4242", net::WireRole::kReduce);
  good.secret = "hush";
  coord::CoordClient client(&metrics, good);
  client.Join(5.0);
  ASSERT_TRUE(coordinator.WaitForWorkers(net::WireRole::kReduce, 1, 5.0));
  const auto view = coordinator.Snapshot();
  ASSERT_EQ(view.entries.size(), 1u);
  EXPECT_EQ(view.entries[0].worker, "auth-reduce-0");
  EXPECT_EQ(view.entries[0].endpoint, "10.9.8.7:4242");

  // The client's own view converges to the same membership.
  std::vector<net::MembershipMsg::Entry> live;
  ASSERT_TRUE(client.WaitForRole(net::WireRole::kReduce, 1, 5.0, &live));
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].endpoint, "10.9.8.7:4242");

  client.Stop();
  transport.Shutdown();
}

TEST(Coordinator, RegistryPartitionDelaysJoinUntilBudgetExhausted) {
  // A registry_partition fault swallows the first Register before it hits
  // the wire; the next announce (attempt 2, past the fault's budget) goes
  // through.  Deterministic: no timing in the decision, only in how long
  // the announce period takes.
  MetricRegistry metrics;
  FaultInjector injector(
      FaultPlan::Parse("seed=5;registry_partition:tag=partition-w"), &metrics);
  ScopedNetFaultHook hook(&injector);

  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator coordinator(&transport, &metrics, {});

  auto mopts = ClientOptions(transport.endpoint(), "partition-w", "-",
                             net::WireRole::kMap);
  mopts.register_retry_ms = 20;
  coord::CoordClient client(&metrics, mopts);
  client.Join(10.0);
  EXPECT_EQ(metrics.Value("coord.client.registers_suppressed"), 1);
  EXPECT_GE(metrics.Value("coord.client.registers_sent"), 1);

  client.Stop();
  transport.Shutdown();
}

TEST(Coordinator, JoinDeadlineBoundsAMissingOrLateCoordinator) {
  // Join dials once per announce, so its deadline alone bounds a
  // coordinator that is not there, and a coordinator that starts late is
  // found on a later announce.  The port stays reserved throughout: dials
  // are refused until the late coordinator binds it.
  MetricRegistry metrics;
  ReservedPort reserved;
  {
    auto absent_opts = ClientOptions(reserved.endpoint(), "deadline-absent",
                                     "-", net::WireRole::kMap);
    absent_opts.register_retry_ms = 20;
    coord::CoordClient absent(&metrics, absent_opts);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(absent.Join(0.3), coord::CoordError);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), 1.0);
  }

  net::TcpTransport transport(&metrics, reserved.BindOptions());
  std::unique_ptr<coord::Coordinator> coordinator;
  std::exception_ptr late_error;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    try {
      transport.Bind();
      coordinator = std::make_unique<coord::Coordinator>(
          &transport, &metrics, coord::Coordinator::Options{});
    } catch (...) {
      late_error = std::current_exception();
    }
  });
  auto mopts = ClientOptions(reserved.endpoint(), "deadline-late", "-",
                             net::WireRole::kMap);
  mopts.register_retry_ms = 20;
  coord::CoordClient client(&metrics, mopts);
  EXPECT_NO_THROW(client.Join(10.0));
  late.join();
  if (late_error) std::rethrow_exception(late_error);
  ASSERT_NE(coordinator, nullptr);
  const auto view = coordinator->Snapshot();
  ASSERT_EQ(view.entries.size(), 1u);
  EXPECT_EQ(view.entries[0].worker, "deadline-late");

  client.Stop();
  transport.Shutdown();
}

TEST(Coordinator, RestartedCoordinatorRelistsEveryWorkerWithinTwoAnnounces) {
  // Workers keep announcing after Join, so a coordinator restarted on the
  // same port learns them all again, and the clients take the new
  // coordinator's views although its epochs start over below the old ones.
  constexpr double kPeriodMs = 100;
  MetricRegistry metrics;
  ReservedPort reserved;
  auto first_wire = std::make_unique<net::TcpTransport>(
      &metrics, reserved.BindOptions());
  first_wire->Bind();
  auto first = std::make_unique<coord::Coordinator>(first_wire.get(),
                                                    &metrics,
                                                    coord::Coordinator::Options{});

  std::vector<std::unique_ptr<coord::CoordClient>> clients;
  for (const auto& [id, endpoint, role] :
       {std::tuple{"restart-reduce-0", "r:9", net::WireRole::kReduce},
        std::tuple{"restart-map-0", "-", net::WireRole::kMap},
        std::tuple{"restart-map-1", "-", net::WireRole::kMap}}) {
    auto opts = ClientOptions(reserved.endpoint(), id, endpoint, role);
    opts.register_retry_ms = kPeriodMs;
    clients.push_back(std::make_unique<coord::CoordClient>(&metrics, opts));
    clients.back()->Join(5.0);
  }
  ASSERT_TRUE(first->WaitForWorkers(net::WireRole::kMap, 2, 5.0));
  ASSERT_EQ(first->Snapshot().epoch, 3u);
  // map-1 leaves: the restarted coordinator will list two workers, so its
  // view tops out at epoch 2, below the first coordinator's 3.
  clients[2]->Stop();
  ASSERT_TRUE(Eventually(
      [&] { return clients[1]->View().epoch == 3; }, 5.0));

  first_wire->Shutdown();
  first.reset();
  first_wire.reset();

  net::TcpTransport second_wire(&metrics, reserved.BindOptions());
  second_wire.Bind();
  const auto restart = std::chrono::steady_clock::now();
  coord::Coordinator second(&second_wire, &metrics, {});
  EXPECT_TRUE(second.WaitForWorkers(net::WireRole::kMap, 1,
                                    2 * kPeriodMs / 1e3));
  EXPECT_TRUE(second.WaitForWorkers(net::WireRole::kReduce, 1,
                                    2 * kPeriodMs / 1e3));
  const std::chrono::duration<double, std::milli> relisted =
      std::chrono::steady_clock::now() - restart;
  EXPECT_LT(relisted.count(), 2 * kPeriodMs);
  ASSERT_EQ(second.Snapshot().entries.size(), 2u);
  EXPECT_EQ(second.Snapshot().epoch, 2u);

  // The map worker's view is the new coordinator's: two entries at epoch 2.
  EXPECT_TRUE(Eventually(
      [&] { return clients[1]->View() == second.Snapshot(); }, 5.0))
      << "view epoch " << clients[1]->View().epoch << " with "
      << clients[1]->View().entries.size() << " entries";

  for (auto& client : clients) client->Stop();
  second_wire.Shutdown();
}

TEST(Coordinator, StopIsPromptOnceTheCoordinatorIsGone) {
  // With the coordinator gone, every announce tick makes one refused dial
  // and returns; nothing redials in place, so Stop() joins the announce
  // thread within a tick instead of waiting out a connect backoff.
  MetricRegistry metrics;
  net::TcpTransport transport(&metrics);
  transport.Bind();
  coord::Coordinator coordinator(&transport, &metrics, {});

  auto mopts = ClientOptions(transport.endpoint(), "prompt-w", "-",
                             net::WireRole::kMap);
  mopts.register_retry_ms = 50;
  coord::CoordClient client(&metrics, mopts);
  client.Join(5.0);

  transport.Shutdown();
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(3 * mopts.register_retry_ms));

  const auto start = std::chrono::steady_clock::now();
  client.Stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);
}

// --- Chaos: shuffle faults beside the coordination plane --------------------

// One joined map worker's job over TCP under `fault_plan`: the coordinator
// hands out no recovery, so whatever the plan breaks, the shuffle's own
// reconnect and ack-window replay must mend.
JobResult RunJoinedMapWorker(const std::string& worker,
                             const std::string& fault_plan,
                             std::map<std::string, std::string>* output) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.fault_plan = fault_plan;
  Platform platform(popts);
  GenerateInput(platform);

  MetricRegistry& metrics = platform.metrics();
  net::TcpTransport coord_wire(&metrics);
  coord_wire.Bind();
  coord::Coordinator::Options copts;
  copts.secret = "hush";
  coord::Coordinator coordinator(&coord_wire, &metrics, copts);
  auto mopts = ClientOptions(coord_wire.endpoint(), worker, "-",
                             net::WireRole::kMap);
  mopts.secret = "hush";
  coord::CoordClient member(&metrics, mopts);
  member.Join(5.0);

  platform.executor().set_cluster_identity(worker, "hush");
  JobOptions options = HashOnePassOptions();
  options.push_chunk_bytes = 4096;  // many sequenced frames -> a real window
  net::TcpTransport shuffle_wire(&metrics);
  shuffle_wire.Bind();
  JobResult result;
  EXPECT_NO_THROW(result = platform.RunWithTransport(
                      PerUserCountJob("clicks", "out", 2), options,
                      &shuffle_wire, /*shared_fs=*/false));
  member.Stop();
  coord_wire.Shutdown();
  *output = AsMap(platform.ReadOutput("out", 2));
  return result;
}

TEST(CoordChaos, PeerCrashRecoversViaAckReplayWithoutADrainStall) {
  // peer_crash discards a delivered-but-unapplied frame on the reducer side
  // and kills the connection.  The job must not fail, must replay the
  // unacked window (shuffle.ack_replays > 0) and must match the clean
  // in-process answer.  The client learns of the close from its reader, so
  // recovery never waits out the shuffle client's 2.5 s drain timeout: the
  // faulted job may take at most a second longer than a clean one (a
  // relative bound, so a slow sanitizer build holds it too).
  const auto truth = DirectTruth();

  std::map<std::string, std::string> clean_output;
  const JobResult clean =
      RunJoinedMapWorker("crash-clean-w", "", &clean_output);
  EXPECT_EQ(clean.Bytes(kShuffleAckReplays), 0);
  EXPECT_EQ(clean_output, truth);

  std::map<std::string, std::string> output;
  const JobResult result =
      RunJoinedMapWorker("crash-w", "seed=7;peer_crash:record=20", &output);
  EXPECT_GE(result.Bytes(kFaultsInjected), 1);
  EXPECT_GE(result.Bytes(kShuffleAckReplays), 1);
  EXPECT_GE(result.Bytes(kShuffleAckReplayedFrames), 1);
  EXPECT_LT(result.wall_seconds, clean.wall_seconds + 1.0);
  EXPECT_EQ(output, truth);
}

TEST(CoordChaos, ConnDropUnderCoordinationWiringStaysCorrect) {
  // conn_drop tears the shuffle connection before a frame's first
  // transmission; the reconnect path replays the unacked window behind a
  // fresh Hello while the coordination plane keeps its own connection.
  const auto truth = DirectTruth();
  std::map<std::string, std::string> output;
  const JobResult result =
      RunJoinedMapWorker("dropper", "seed=3;conn_drop:record=30", &output);
  EXPECT_GE(result.Bytes(kFaultsInjected), 1);
  EXPECT_GE(result.Bytes(net::kNetReconnects), 1);
  EXPECT_EQ(output, truth);
}

// --- Full topology: partitioned map groups behind the coordinator ------------

// Stops the coordinator from inside the job.  Once every map worker has
// found its reducer, the first frame a connection sends after its Hello or
// Register (on a shuffle connection, the first pushed chunk) shuts the
// coordinator's transport down before the frame leaves, so the rest of the
// job runs with no coordinator at all.
class StopCoordinatorMidJob final : public net::NetFaultHook {
 public:
  StopCoordinatorMidJob(net::TcpTransport* wire, int map_workers)
      : wire_(wire), map_workers_(map_workers) {}

  // Called by each map worker once the view has shown it the reducer.
  void MapWorkerReady() { ++ready_; }

  bool OnFrameSend(std::uint64_t frame_seq, int attempt) override {
    if (frame_seq >= 2 && attempt == 1 && ready_.load() == map_workers_) {
      std::call_once(once_, [this] {
        std::thread stopper([this] { wire_->Shutdown(); });
        stopper.join();
        stopped_ = true;
      });
    }
    return false;
  }

  [[nodiscard]] bool stopped() const { return stopped_.load(); }

 private:
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
  StopCoordinatorMidJob stop_hook(&coord_wire, /*map_workers=*/2);
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
  auto ropts = ClientOptions(coord_at, "topo-reduce-0",
                             shuffle_server.endpoint(), net::WireRole::kReduce);
  ropts.secret = "hush";
  coord::CoordClient reduce_member(&reduce_platform.metrics(), ropts);
  reduce_member.Join(10.0);
  reduce_platform.executor().set_cluster_identity(ropts.worker_id, "hush");

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
  std::vector<std::thread> mappers;
  for (int i = 0; i < 2; ++i) {
    map_platforms.push_back(std::make_unique<Platform>(popts));
    GenerateInput(*map_platforms[i]);
  }
  for (int i = 0; i < 2; ++i) {
    mappers.emplace_back([&, i] {
      try {
        Platform& p = *map_platforms[i];
        auto mopts = ClientOptions(coord_at, "topo-map-" + std::to_string(i),
                                   "-", net::WireRole::kMap);
        mopts.secret = "hush";
        coord::CoordClient member(&p.metrics(), mopts);
        member.Join(10.0);
        std::vector<net::MembershipMsg::Entry> live;
        if (!member.WaitForRole(net::WireRole::kReduce, 1, 10.0, &live)) {
          throw std::runtime_error("no reduce worker in the view");
        }
        stop_hook.MapWorkerReady();
        net::TcpTransport wire(&p.metrics(), live.front().endpoint);
        p.executor().set_cluster_identity(mopts.worker_id, "hush");
        p.executor().set_map_partition(i, 2);
        const JobResult map_result =
            p.RunMapGroup(spec, options, &wire, /*shared_fs=*/false);
        member.Stop();
        // A clean run never replays.
        EXPECT_EQ(map_result.Bytes(kShuffleAckReplays), 0);
      } catch (...) {
        map_errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : mappers) t.join();
  reducer.join();
  reduce_member.Stop();
  hook.reset();
  coord_wire.Shutdown();

  for (int i = 0; i < 2; ++i) {
    if (map_errors[i]) {
      std::rethrow_exception(map_errors[i]);
    }
  }
  if (reduce_error) std::rethrow_exception(reduce_error);

  EXPECT_EQ(stop_hook.stopped(), stop_coordinator_mid_job);
  EXPECT_EQ(reduce_result.Bytes(kShuffleAckReplays), 0);
  EXPECT_GT(reduce_result.num_map_tasks, 1);  // saw the full global task set
  EXPECT_GT(reduce_result.output_records, 0);
  EXPECT_EQ(AsMap(reduce_platform.ReadOutput("out", 2)), truth);
}

TEST(CoordTopology, TwoPartitionedMapWorkersMatchDirectAnswer) {
  RunTwoMapWorkerTopology(/*stop_coordinator_mid_job=*/false, DirectTruth());
}

// A running job does not need its coordinator: with the coordinator stopped
// from the first pushed chunk, the output still matches the direct answer.
TEST(CoordTopology, CoordinatorStoppedMidJobMatchesDirectAnswer) {
  RunTwoMapWorkerTopology(/*stop_coordinator_mid_job=*/true, DirectTruth());
}

}  // namespace
}  // namespace opmr
