// Failover ablation: what does losing the coordinator leader cost?
//
// Each trial stands up a 3-replica coordinator group over real TCP, joins
// one CoordClient through the HA endpoint list, kills the leader (stop +
// socket shutdown, the kill -9 equivalent), and measures two latencies
// from the instant of the kill:
//
//   elect_ms   — until the surviving lowest-id replica claims leadership
//   recover_ms — until the client's re-registration is confirmed by the
//                new leader (failovers() ticks): the control plane is
//                serving this worker again
//
// Results land in OutDir()/BENCH_failover.json (OPMR_BENCH_OUT overrides
// the directory), the persisted perf trajectory ROADMAP asks for.  Exit
// status enforces the acceptance bar: every trial must recover within the
// election timeout plus a small scheduling allowance.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "coord/member.h"
#include "metrics/counters.h"
#include "metrics/stopwatch.h"
#include "net/tcp.h"
#include "opmrbench/harness.h"
#include "replica/replica.h"

namespace {

using namespace opmr;

struct ReplicaNode {
  MetricRegistry metrics;
  std::unique_ptr<net::TcpTransport> wire;
  std::unique_ptr<replica::CoordinatorReplica> rep;

  void Kill() {
    rep->Stop();
    wire->Shutdown();
  }
};

std::vector<std::unique_ptr<ReplicaNode>> MakeGroup(
    const std::filesystem::path& dir, int trial, double election_timeout_ms) {
  constexpr int kReplicas = 3;
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  for (int i = 0; i < kReplicas; ++i) {
    auto node = std::make_unique<ReplicaNode>();
    node->wire = std::make_unique<net::TcpTransport>(&node->metrics);
    node->wire->Bind();
    nodes.push_back(std::move(node));
  }
  for (int i = 0; i < kReplicas; ++i) {
    replica::CoordinatorReplica::Options opts;
    opts.replica_id = static_cast<std::uint32_t>(i + 1);
    opts.endpoint = nodes[i]->wire->endpoint();
    opts.changelog_dir =
        dir / ("trial_" + std::to_string(trial) + "_r" + std::to_string(i + 1));
    std::filesystem::create_directories(opts.changelog_dir);
    opts.vote_interval_ms = 25;
    opts.election_timeout_ms = election_timeout_ms;
    opts.lease_s = 30.0;  // failure detection is not what this bench times
    opts.rejoin_grace_s = 30.0;
    for (int j = 0; j < kReplicas; ++j) {
      if (j == i) continue;
      opts.peers.push_back({static_cast<std::uint32_t>(j + 1),
                            nodes[j]->wire->endpoint()});
    }
    nodes[i]->rep = std::make_unique<replica::CoordinatorReplica>(
        nodes[i]->wire.get(), &nodes[i]->metrics, opts);
  }
  return nodes;
}

bool PollUntilMs(double timeout_ms, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = Config::FromArgs(argc, argv);
  const int trials = static_cast<int>(cfg.GetInt("trials", 5));
  const double election_timeout_ms =
      static_cast<double>(cfg.GetInt("election_timeout_ms", 250));
  const double heartbeat_ms =
      static_cast<double>(cfg.GetInt("heartbeat_ms", 25));
  // The client needs a couple of heartbeat intervals to notice the dead
  // leader, the survivor one election timeout to claim, and both a round
  // trip to confirm — triple the timeout is a generous but honest bar.
  const double budget_ms = 3.0 * election_timeout_ms;

  bench::Banner("Failover ablation: leader kill -> new leader serving");
  std::printf("3 replicas, election timeout %.0f ms, client heartbeat "
              "%.0f ms, %d trials\n\n",
              election_timeout_ms, heartbeat_ms, trials);

  const auto dir =
      std::filesystem::temp_directory_path() / "opmr_bench_failover";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<double> elect_ms;
  std::vector<double> recover_ms;
  int failed_trials = 0;
  for (int trial = 0; trial < trials; ++trial) {
    auto nodes = MakeGroup(dir, trial, election_timeout_ms);
    if (!nodes[0]->rep->WaitForLeadership(10.0)) {
      std::printf("trial %d: replica 1 never led, skipping\n", trial);
      ++failed_trials;
      for (auto& node : nodes) node->Kill();
      continue;
    }

    coord::CoordClient::Options mopts;
    mopts.endpoints = {nodes[0]->wire->endpoint(), nodes[1]->wire->endpoint(),
                       nodes[2]->wire->endpoint()};
    mopts.worker_id = "bench-w";
    mopts.endpoint = "-";
    mopts.heartbeat_interval_ms = heartbeat_ms;
    MetricRegistry client_metrics;
    coord::CoordClient member(&client_metrics, mopts);
    member.Join(10.0);
    // The registration must be replicated before the kill, or the new
    // leader would serve an empty registry and recovery would be a rejoin
    // from scratch rather than a failover.
    (void)PollUntilMs(10'000, [&] {
      return nodes[1]->rep->applied_index() >= 1 &&
             nodes[2]->rep->applied_index() >= 1;
    });

    WallTimer timer;
    nodes[0]->Kill();
    const bool elected = PollUntilMs(
        10'000, [&] { return nodes[1]->rep->is_leader(); });
    const double t_elect = timer.Nanos() / 1e6;
    const bool recovered =
        elected && PollUntilMs(10'000, [&] { return member.failovers() >= 1; });
    const double t_recover = timer.Nanos() / 1e6;

    member.Stop();
    nodes[0]->rep.reset();
    for (auto& node : nodes) {
      if (node->rep) node->rep->Stop();
    }
    for (auto& node : nodes) node->wire->Shutdown();

    if (!recovered) {
      std::printf("trial %d: FAILED to recover within 10 s\n", trial);
      ++failed_trials;
      continue;
    }
    elect_ms.push_back(t_elect);
    recover_ms.push_back(t_recover);
    std::printf("trial %d: elected %.1f ms, serving again %.1f ms%s\n", trial,
                t_elect, t_recover, t_recover <= budget_ms ? "" : "  (!)");
  }
  std::filesystem::remove_all(dir);

  std::sort(elect_ms.begin(), elect_ms.end());
  std::sort(recover_ms.begin(), recover_ms.end());
  const double elect_p50 = bench::Percentile(elect_ms, 0.50);
  const double recover_p50 = bench::Percentile(recover_ms, 0.50);
  const double recover_max = recover_ms.empty() ? 0.0 : recover_ms.back();

  std::printf("\nelection  : p50 %.1f ms (timeout %.0f ms)\n", elect_p50,
              election_timeout_ms);
  std::printf("recovery  : p50 %.1f ms, max %.1f ms (budget %.0f ms)\n",
              recover_p50, recover_max, budget_ms);

  const auto json_path = bench::OutDir() / "BENCH_failover.json";
  if (std::FILE* out = std::fopen(json_path.string().c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"ablation_failover\",\n"
                 "  \"replicas\": 3,\n"
                 "  \"trials\": %d,\n"
                 "  \"failed_trials\": %d,\n"
                 "  \"election_timeout_ms\": %.0f,\n"
                 "  \"heartbeat_interval_ms\": %.0f,\n"
                 "  \"elect_ms\": { \"p50\": %.2f, \"min\": %.2f, "
                 "\"max\": %.2f },\n"
                 "  \"recover_ms\": { \"p50\": %.2f, \"min\": %.2f, "
                 "\"max\": %.2f },\n"
                 "  \"recover_budget_ms\": %.0f\n"
                 "}\n",
                 trials, failed_trials, election_timeout_ms, heartbeat_ms,
                 elect_p50, elect_ms.empty() ? 0.0 : elect_ms.front(),
                 elect_ms.empty() ? 0.0 : elect_ms.back(), recover_p50,
                 recover_ms.empty() ? 0.0 : recover_ms.front(), recover_max,
                 budget_ms);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.string().c_str());
  }
  return (failed_trials == 0 && recover_max <= budget_ms) ? 0 : 1;
}
