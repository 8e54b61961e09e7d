// Serving plane (src/serve): versioned snapshot publication, replica
// views, bounded staleness, per-tenant rate limits, and the query RPC —
// the "early answers you can actually query" surface of the one-pass
// platform.
//
// The pinned properties:
//   * versions are monotonic and the view only moves forward;
//   * two frontends that applied the same version serve byte-identical
//     answers (views are pure functions of the image bytes);
//   * a query never silently reads past its staleness budget — the lag ==
//     budget boundary is allowed, budget+1 is rejected;
//   * one hot tenant cannot starve another (token buckets are per-tenant);
//   * a dropped publisher link during fetch heals without ever applying a
//     torn view;
//   * serve images are garbage-collected with their job.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "core/opmr.h"
#include "engine/aggregators.h"
#include "fault/fault.h"
#include "metrics/counters.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "serve/frontend.h"
#include "serve/publisher.h"
#include "serve/query_client.h"
#include "stream/streaming_job.h"
#include "workloads/clickstream.h"
#include "workloads/streaming_queries.h"

namespace opmr {
namespace {

namespace fs = std::filesystem;

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("opmr_serve_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // An image whose states are u64 sums (8-byte aggregator states).
  static CheckpointImage SumImage(
      std::uint64_t watermark,
      const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
    CheckpointImage image;
    image.watermark = watermark;
    for (const auto& [key, count] : counts) {
      CheckpointImage::TableEntry entry;
      entry.key = key;
      AppendU64(entry.state, count);
      image.entries.push_back(std::move(entry));
    }
    return image;
  }

  static std::shared_ptr<Aggregator> Sum() {
    return std::make_shared<SumAggregator>();
  }

  serve::FrontendOptions SumFrontendOptions(const std::string& job) {
    serve::FrontendOptions options;
    options.job = job;
    options.aggregator = Sum();
    return options;
  }

  fs::path dir_;
  MetricRegistry metrics_;
};

// Polls `pred` until it holds or ~20s elapse (fetches are asynchronous: the
// frontend's fetcher thread issues them outside the frame handlers; the
// bound leaves headroom for TSan's slowdown on a loaded host).
template <typename Pred>
bool WaitUntil(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

ClickStreamOptions SmallClicks(std::uint64_t records) {
  ClickStreamOptions gen;
  gen.num_records = records;
  gen.num_users = 400;
  gen.num_urls = 200;
  return gen;
}

// --- publisher ---------------------------------------------------------------

TEST_F(ServeTest, PublisherAssignsMonotonicVersionsAndPrunesPastRetention) {
  net::LoopbackTransport wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  popts.retain = 3;
  serve::SnapshotPublisher publisher(&wire, &metrics_, popts);

  std::uint64_t prev = 0;
  for (int i = 1; i <= 6; ++i) {
    const auto version = publisher.Publish(
        SumImage(/*watermark=*/i * 100ull, {{"u1", std::uint64_t(i)}}));
    EXPECT_GT(version, prev) << "versions must be strictly monotonic";
    prev = version;
  }
  EXPECT_EQ(publisher.published(), 6u);
  EXPECT_EQ(publisher.latest_version(), prev);

  // Subscribe: the greeting announces the latest version.  Fetching a
  // pruned version yields an empty reply (gone, not an error); the latest
  // version round-trips with a matching CRC.
  std::vector<net::Frame> got;
  auto conn = wire.Connect([&](net::Connection*, net::Frame frame) {
    got.push_back(std::move(frame));
  });
  net::HelloMsg hello;
  hello.job = "clicks";
  hello.worker = "probe";
  conn->Send(hello.ToFrame());
  ASSERT_EQ(got.size(), 1u);
  const auto greeting = net::SnapshotAnnounceMsg::Parse(got[0]);
  EXPECT_EQ(greeting.version, prev);
  EXPECT_EQ(greeting.watermark, 600u);

  net::SnapshotFetchMsg fetch;
  fetch.job = "clicks";
  fetch.version = 1;  // published 6, retain 3: version 1 is pruned
  conn->Send(fetch.ToFrame());
  fetch.version = prev;
  conn->Send(fetch.ToFrame());
  ASSERT_EQ(got.size(), 3u);
  const auto pruned = net::SnapshotFetchMsg::Parse(got[1]);
  EXPECT_TRUE(pruned.reply);
  EXPECT_TRUE(pruned.bytes.empty());
  const auto latest = net::SnapshotFetchMsg::Parse(got[2]);
  ASSERT_FALSE(latest.bytes.empty());
  EXPECT_EQ(Crc32c(latest.bytes.data(), latest.bytes.size()), latest.crc);
  EXPECT_EQ(ParseCheckpointImage(latest.bytes).watermark, 600u);
}

TEST_F(ServeTest, PublisherRejectsBadSecretAndAcceptsGoodOne) {
  net::LoopbackTransport wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  popts.secret = "hunter2";
  serve::SnapshotPublisher publisher(&wire, &metrics_, popts);
  publisher.Publish(SumImage(10, {{"k", 1}}));

  std::vector<net::Frame> got;
  auto conn = wire.Connect([&](net::Connection*, net::Frame frame) {
    got.push_back(std::move(frame));
  });
  net::HelloMsg hello;
  hello.job = "clicks";
  hello.worker = "probe";
  hello.auth = "wrong";
  conn->Send(hello.ToFrame());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, net::FrameType::kAbort);
  EXPECT_EQ(metrics_.Value("serve.auth_rejects"), 1);
  EXPECT_EQ(publisher.subscribers(), 0u);

  hello.auth = "hunter2";
  conn->Send(hello.ToFrame());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].type, net::FrameType::kSnapshotAnnounce);
  EXPECT_EQ(publisher.subscribers(), 1u);
}

TEST_F(ServeTest, PublisherDropsMalformedHellosAndKeepsServing) {
  net::LoopbackTransport wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  popts.secret = "hunter2";
  serve::SnapshotPublisher publisher(&wire, &metrics_, popts);
  publisher.Publish(SumImage(10, {{"k", 1}}));

  std::vector<net::Frame> got;
  auto conn = wire.Connect([&](net::Connection*, net::Frame frame) {
    got.push_back(std::move(frame));
  });
  // A CRC-clean Hello from an unauthenticated client with a 1-byte payload,
  // then one from another protocol version: both fail to parse on the
  // transport's reader thread, where an escaped exception is fatal.
  EXPECT_NO_THROW(conn->Send(net::Frame{net::FrameType::kHello, "x"}));
  net::HelloMsg hello;
  hello.job = "clicks";
  hello.worker = "probe";
  hello.auth = "hunter2";
  hello.version = net::kProtocolVersion - 1;
  EXPECT_NO_THROW(conn->Send(hello.ToFrame()));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(metrics_.Value("serve.bad_frames"), 2);
  EXPECT_EQ(publisher.subscribers(), 0u);

  hello.version = net::kProtocolVersion;
  conn->Send(hello.ToFrame());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, net::FrameType::kSnapshotAnnounce);
  EXPECT_EQ(publisher.subscribers(), 1u);
}

// --- replica views -----------------------------------------------------------

TEST_F(ServeTest, TwoFrontendsServeByteIdenticalViews) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  net::LoopbackTransport server_a(&metrics_);
  net::LoopbackTransport server_b(&metrics_);
  serve::SnapshotFrontend a(&server_a, &pub_wire, &metrics_,
                            SumFrontendOptions("clicks"));
  serve::SnapshotFrontend b(&server_b, &pub_wire, &metrics_,
                            SumFrontendOptions("clicks"));

  // Duplicate key across "workers" in one image: replicas must agree on
  // the merged value, not on whichever copy happened to arrive first.
  auto image = SumImage(500, {{"u1", 7}, {"u2", 3}});
  image.entries.push_back({"u1", std::string(), false});
  AppendU64(image.entries.back().state, 5);
  const auto version = publisher.Publish(std::move(image));

  ASSERT_TRUE(a.WaitForVersion(version, std::chrono::seconds(5)));
  ASSERT_TRUE(b.WaitForVersion(version, std::chrono::seconds(5)));
  EXPECT_EQ(a.serving_version(), b.serving_version());
  EXPECT_EQ(a.serving_watermark(), 500u);
  const auto rows_a = a.ScanAll();
  EXPECT_EQ(rows_a, b.ScanAll()) << "replicas must be byte-identical";
  ASSERT_EQ(rows_a.size(), 2u);
  EXPECT_EQ(rows_a[0].first, "u1");
  EXPECT_EQ(DecodeU64(rows_a[0].second.data()), 12u);  // 7 + 5 merged

  // And the query surface agrees too.
  net::QueryMsg top;
  top.op = net::QueryOp::kTopK;
  top.limit = 2;
  const auto top_a = a.Execute(top);
  const auto top_b = b.Execute(top);
  EXPECT_EQ(top_a.rows, top_b.rows);
  ASSERT_EQ(top_a.rows.size(), 2u);
  EXPECT_EQ(top_a.rows[0].first, "u1");  // 12 > 3
}

TEST_F(ServeTest, ViewMergesDuplicatesAndRanksTopKUpToTheScanLimit) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  net::LoopbackTransport server(&metrics_);
  auto fopts = SumFrontendOptions("clicks");
  fopts.scan_limit = 3;
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_, fopts);

  // More rows than the scan limit, ties on the score, and "u4" split
  // across two entries whose merged value (4 + 5) lands it in the top-k.
  auto image = SumImage(800, {{"u7", 6}, {"u4", 4}, {"u2", 6}, {"u1", 2},
                              {"u9", 6}, {"u3", 1}, {"u5", 8}});
  image.entries.push_back({"u4", std::string(), false});
  AppendU64(image.entries.back().state, 5);
  const auto version = publisher.Publish(std::move(image));
  ASSERT_TRUE(frontend.WaitForVersion(version, std::chrono::seconds(5)));

  const auto rows = frontend.ScanAll();
  ASSERT_EQ(rows.size(), 7u);
  const auto u4 = std::find_if(rows.begin(), rows.end(),
                               [](const auto& row) { return row.first == "u4"; });
  ASSERT_NE(u4, rows.end());
  EXPECT_EQ(DecodeU64(u4->second.data()), 9u);  // 4 + 5 merged

  // The full ranking: score descending, key ascending on ties.
  auto ranking = rows;
  std::sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
    const std::uint64_t av = DecodeU64(a.second.data());
    const std::uint64_t bv = DecodeU64(b.second.data());
    if (av != bv) return av > bv;
    return a.first < b.first;
  });
  ranking.resize(3);  // u4 (9), u5 (8), u2 (6, first of three tied keys)
  for (const std::uint32_t limit : {0u, 3u, 100u}) {
    net::QueryMsg top;
    top.op = net::QueryOp::kTopK;
    top.limit = limit;
    const auto result = frontend.Execute(top);
    ASSERT_EQ(result.status, net::QueryStatus::kOk);
    EXPECT_EQ(result.rows, ranking) << "limit " << limit;
  }
  EXPECT_EQ(ranking[0].first, "u4");
  EXPECT_EQ(ranking[1].first, "u5");
  EXPECT_EQ(ranking[2].first, "u2");
}

TEST_F(ServeTest, ViewOnlyMovesForwardAcrossVersions) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  net::LoopbackTransport server(&metrics_);
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_,
                                   SumFrontendOptions("clicks"));
  const auto v1 = publisher.Publish(SumImage(100, {{"u1", 1}}));
  const auto v2 = publisher.Publish(SumImage(200, {{"u1", 2}}));
  EXPECT_GT(v2, v1);
  ASSERT_TRUE(frontend.WaitForVersion(v2, std::chrono::seconds(5)));
  EXPECT_EQ(frontend.serving_version(), v2);
  EXPECT_EQ(frontend.serving_watermark(), 200u);

  // A stale fetch reply for v1 arriving now must not roll the view back.
  // (Simulated by re-announcing nothing: serving_version stays v2 and the
  // row reflects the v2 state.)
  net::QueryMsg point;
  point.op = net::QueryOp::kPoint;
  point.key = "u1";
  const auto result = frontend.Execute(point);
  ASSERT_EQ(result.status, net::QueryStatus::kOk);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(DecodeU64(result.rows[0].second.data()), 2u);
}

// --- bounded staleness -------------------------------------------------------

TEST_F(ServeTest, StalenessRejectionAtTheExactBudgetBoundary) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  net::LoopbackTransport server(&metrics_);
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_,
                                   SumFrontendOptions("clicks"));
  const auto v1 = publisher.Publish(SumImage(100, {{"u1", 1}}));
  ASSERT_TRUE(frontend.WaitForVersion(v1, std::chrono::seconds(5)));

  // Freeze the replica at watermark 100, then let the job advance to 150:
  // announced lag is exactly 50.
  frontend.PauseFetch(true);
  publisher.Publish(SumImage(150, {{"u1", 2}}));
  EXPECT_EQ(frontend.announced_watermark(), 150u);
  EXPECT_EQ(frontend.serving_watermark(), 100u);

  net::QueryMsg point;
  point.op = net::QueryOp::kPoint;
  point.key = "u1";
  point.staleness_budget = 50;  // lag == budget: still within bounds
  auto result = frontend.Execute(point);
  EXPECT_EQ(result.status, net::QueryStatus::kOk);
  EXPECT_EQ(result.lag, 50u);

  point.staleness_budget = 49;  // lag == budget + 1: must be rejected
  result = frontend.Execute(point);
  EXPECT_EQ(result.status, net::QueryStatus::kStale);
  EXPECT_NE(result.error.find("staleness budget"), std::string::npos);
  EXPECT_EQ(metrics_.Value("serve.stale_rejects"), 1);

  // Unpausing fetches the missed version and the same query succeeds.
  frontend.PauseFetch(false);
  ASSERT_TRUE(frontend.WaitForVersion(2, std::chrono::seconds(5)));
  result = frontend.Execute(point);
  EXPECT_EQ(result.status, net::QueryStatus::kOk);
  EXPECT_EQ(result.lag, 0u);
}

TEST_F(ServeTest, TenantPolicyBoundsTheQueryBudgetFromAbove) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  net::LoopbackTransport server(&metrics_);
  auto options = SumFrontendOptions("clicks");
  options.tenants["strict"].staleness_budget = 10;
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_,
                                   std::move(options));
  const auto v1 = publisher.Publish(SumImage(100, {{"u1", 1}}));
  ASSERT_TRUE(frontend.WaitForVersion(v1, std::chrono::seconds(5)));
  frontend.PauseFetch(true);
  publisher.Publish(SumImage(130, {{"u1", 2}}));

  // lag 30.  The strict tenant's policy (10) caps even a generous query
  // budget; an unconfigured tenant falls back to the unlimited default.
  net::QueryMsg point;
  point.op = net::QueryOp::kPoint;
  point.key = "u1";
  point.tenant = "strict";
  point.staleness_budget = 1000;
  EXPECT_EQ(frontend.Execute(point).status, net::QueryStatus::kStale);
  point.tenant = "lenient";
  EXPECT_EQ(frontend.Execute(point).status, net::QueryStatus::kOk);
}

// --- rate limiting -----------------------------------------------------------

TEST_F(ServeTest, TokenBucketsKeepTenantsFairUnderAHotNeighbor) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  double now = 1000.0;  // injected clock: the test owns time
  net::LoopbackTransport server(&metrics_);
  auto options = SumFrontendOptions("clicks");
  options.default_policy.rate_per_s = 5.0;
  options.default_policy.burst = 5.0;
  options.clock = [&now] { return now; };
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_,
                                   std::move(options));
  const auto v1 = publisher.Publish(SumImage(100, {{"u1", 1}}));
  ASSERT_TRUE(frontend.WaitForVersion(v1, std::chrono::seconds(5)));

  const auto burst_of = [&](const std::string& tenant, int queries) {
    int ok = 0;
    for (int i = 0; i < queries; ++i) {
      net::QueryMsg point;
      point.op = net::QueryOp::kPoint;
      point.key = "u1";
      point.tenant = tenant;
      if (frontend.Execute(point).status == net::QueryStatus::kOk) ++ok;
    }
    return ok;
  };

  // The hot tenant burns its whole burst and then some; the quiet tenant's
  // bucket is untouched by the neighbor's pressure.
  EXPECT_EQ(burst_of("hot", 20), 5);
  EXPECT_EQ(burst_of("quiet", 5), 5);
  EXPECT_EQ(metrics_.Value("serve.throttled"), 15);

  // Refill is proportional to elapsed time and capped at the burst.
  now += 0.5;  // 0.5s * 5/s = 2.5 tokens -> 2 whole queries
  EXPECT_EQ(burst_of("hot", 20), 2);
  now += 100.0;
  EXPECT_EQ(burst_of("hot", 20), 5) << "burst caps the refill";
}

// --- query RPC ---------------------------------------------------------------

TEST_F(ServeTest, QueryClientRoundTripsPointTopKAndScanOverTheWire) {
  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  net::LoopbackTransport server(&metrics_);
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_,
                                   SumFrontendOptions("clicks"));
  const auto v1 = publisher.Publish(
      SumImage(400, {{"alpha", 3}, {"beta", 9}, {"gamma", 5}, {"delta", 1}}));
  ASSERT_TRUE(frontend.WaitForVersion(v1, std::chrono::seconds(5)));

  serve::QueryClient client(&server, "tenant-1");
  const auto point = client.Point("beta");
  ASSERT_EQ(point.status, net::QueryStatus::kOk);
  ASSERT_EQ(point.rows.size(), 1u);
  EXPECT_EQ(DecodeU64(point.rows[0].second.data()), 9u);
  EXPECT_EQ(point.version, v1);
  EXPECT_EQ(point.watermark, 400u);

  EXPECT_EQ(client.Point("nope").status, net::QueryStatus::kNotFound);

  const auto top = client.TopK(2);
  ASSERT_EQ(top.rows.size(), 2u);
  EXPECT_EQ(top.rows[0].first, "beta");   // 9
  EXPECT_EQ(top.rows[1].first, "gamma");  // 5

  const auto scan = client.Scan("alpha", "delta\xff", 10);
  ASSERT_EQ(scan.status, net::QueryStatus::kOk);
  ASSERT_EQ(scan.rows.size(), 3u);  // alpha, beta, delta; gamma sorts past
  EXPECT_EQ(scan.rows[0].first, "alpha");
  EXPECT_EQ(scan.rows[1].first, "beta");
  EXPECT_EQ(scan.rows[2].first, "delta");

  // Malformed asks surface as kBadRequest, not silence.
  net::QueryMsg empty_point;
  empty_point.op = net::QueryOp::kPoint;
  const auto bad = client.Query(std::move(empty_point));
  EXPECT_EQ(bad.status, net::QueryStatus::kBadRequest);
  EXPECT_NE(bad.error.find("requires a key"), std::string::npos);
}

// --- fault tolerance ---------------------------------------------------------

TEST_F(ServeTest, ConnDropDuringFetchHealsWithoutServingATornView) {
  // Over real sockets, tear the publisher link down mid-conversation (the
  // 2nd frame dies before any byte reaches the wire).  The reconnect
  // preamble re-subscribes, the greeting re-announces, and the replica
  // converges on exactly the published state — never a torn one.
  MetricRegistry fault_metrics;
  FaultInjector injector(FaultPlan::Parse("seed=7;conn_drop:record=2"),
                         &fault_metrics);
  net::SetNetFaultHook(&injector);

  net::TcpTransport pub_wire(&metrics_);
  pub_wire.Bind();
  serve::PublisherOptions popts;
  popts.job = "clicks";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);
  const auto v1 =
      publisher.Publish(SumImage(250, {{"u1", 4}, {"u2", 8}}));

  net::TcpTransport server(&metrics_);
  server.Bind();
  net::TcpTransport link(&metrics_, pub_wire.endpoint());
  serve::SnapshotFrontend frontend(&server, &link, &metrics_,
                                   SumFrontendOptions("clicks"));
  const bool applied = frontend.WaitForVersion(v1, std::chrono::seconds(10));
  net::SetNetFaultHook(nullptr);
  ASSERT_TRUE(applied);

  EXPECT_GE(fault_metrics.Value(kFaultsInjected), 1)
      << "the drop must actually have fired";
  EXPECT_EQ(metrics_.Value("serve.fetch_corrupt"), 0)
      << "a healed link must never surface a torn image";
  const auto rows = frontend.ScanAll();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(DecodeU64(rows[0].second.data()), 4u);
  EXPECT_EQ(DecodeU64(rows[1].second.data()), 8u);
  link.Shutdown();
  server.Shutdown();
  pub_wire.Shutdown();
}

TEST_F(ServeTest, CorruptFetchBytesAreCountedAndNeverApplied) {
  // A byzantine publisher: announces a version, then serves fetches whose
  // bytes fail the CRC (first) or fail to parse (second).  The replica
  // must count both and keep serving nothing rather than a torn view.
  net::LoopbackTransport pub_wire(&metrics_);
  const std::string good = SerializeCheckpointImage(SumImage(999, {{"x", 1}}));
  std::atomic<int> fetches{0};
  pub_wire.Listen([&](net::Connection* from, net::Frame frame) {
    if (frame.type == net::FrameType::kHello) {
      net::SnapshotAnnounceMsg announce;
      announce.job = "clicks";
      announce.version = 1;
      announce.watermark = 999;
      announce.bytes = good.size();
      announce.crc = Crc32c(good.data(), good.size());
      from->Send(announce.ToFrame());
      return;
    }
    if (frame.type != net::FrameType::kSnapshotFetch) return;
    net::SnapshotFetchMsg reply;
    reply.job = "clicks";
    reply.version = 1;
    reply.reply = true;
    if (++fetches == 1) {
      reply.bytes = good;
      reply.crc = Crc32c(good.data(), good.size()) ^ 0xdeadbeef;  // flipped
    } else {
      reply.bytes = "definitely not an image";
      reply.crc = Crc32c(reply.bytes.data(), reply.bytes.size());
    }
    from->Send(reply.ToFrame());
  });

  net::LoopbackTransport server(&metrics_);
  serve::SnapshotFrontend frontend(&server, &pub_wire, &metrics_,
                                   SumFrontendOptions("clicks"));
  // The subscribe greeting triggers fetch #1 (bad CRC).  Nothing applied.
  ASSERT_TRUE(WaitUntil(
      [&] { return metrics_.Value("serve.fetch_corrupt") >= 1; }));
  EXPECT_EQ(fetches.load(), 1);
  EXPECT_EQ(frontend.serving_version(), 0u);

  // A pause/unpause cycle re-arms the fetcher for the announced-but-
  // unapplied version: fetch #2 (unparseable payload with a valid CRC).
  // Still nothing applied.
  frontend.PauseFetch(true);
  frontend.PauseFetch(false);
  ASSERT_TRUE(WaitUntil(
      [&] { return metrics_.Value("serve.fetch_corrupt") >= 2; }));
  EXPECT_EQ(fetches.load(), 2);
  EXPECT_EQ(frontend.serving_version(), 0u);
  EXPECT_TRUE(frontend.ScanAll().empty());
}

// --- GC ----------------------------------------------------------------------

TEST_F(ServeTest, ServeImagesAreSweptWithTheirJob) {
  net::LoopbackTransport wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "gc job";
  popts.dir = dir_;
  popts.retain = 2;
  serve::SnapshotPublisher publisher(&wire, &metrics_, popts);
  publisher.Publish(SumImage(10, {{"k", 1}}));
  publisher.Publish(SumImage(20, {{"k", 2}}));

  int images = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".ckpt") ++images;
  }
  EXPECT_EQ(images, 2) << "retained serve images must be on disk";

  // Job-completion GC by the BASE job name reclaims the serve images too.
  EXPECT_EQ(CheckpointManager::SweepFinishedJobs(dir_, "gc job"), 2);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".ckpt")
        << "stale serve image " << entry.path();
  }
}

// --- end to end: a live streaming job, queried mid-run -----------------------

TEST_F(ServeTest, LiveSessionizationIsQueryableMidJobFromTwoReplicas) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  GenerateClickStream(platform.dfs(), "clicks", SmallClicks(30'000));

  net::LoopbackTransport pub_wire(&metrics_);
  serve::PublisherOptions popts;
  popts.job = "sessionization";
  popts.dir = dir_;
  serve::SnapshotPublisher publisher(&pub_wire, &metrics_, popts);

  StreamingOptions sopts;
  sopts.snapshot_interval_records = 10'000;
  sopts.publish_snapshot = [&publisher](CheckpointImage image) {
    publisher.Publish(std::move(image));
  };
  StreamingJob job(StreamingQueryByName("sessionization"), sopts, 3);

  net::LoopbackTransport server_a(&metrics_);
  net::LoopbackTransport server_b(&metrics_);
  serve::FrontendOptions fopts;
  fopts.job = "sessionization";
  fopts.aggregator = StreamingQueryByName("sessionization").aggregator;
  serve::SnapshotFrontend a(&server_a, &pub_wire, &metrics_, fopts);
  serve::SnapshotFrontend b(&server_b, &pub_wire, &metrics_, fopts);

  std::vector<std::string> records;
  for (const auto& block : platform.dfs().ListBlocks("clicks")) {
    auto reader = platform.dfs().OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      records.emplace_back(record.data(), record.size());
    }
  }
  ASSERT_GE(records.size(), 30'000u);

  // Phase 1: ingest past the first snapshot interval, then ask both
  // replicas mid-job.  Fetches are asynchronous (a dedicated fetcher
  // thread issues them), so wait for version 1 to land before asking.
  for (std::size_t i = 0; i < 10'000; ++i) job.Ingest(records[i]);
  ASSERT_GE(publisher.published(), 1u);
  ASSERT_TRUE(a.WaitForVersion(1, std::chrono::seconds(5)));
  ASSERT_TRUE(b.WaitForVersion(1, std::chrono::seconds(5)));
  EXPECT_EQ(a.serving_watermark(), 10'000u)
      << "the mid-job answer is current to the snapshot watermark";
  const auto mid_a = a.ScanAll();
  EXPECT_EQ(mid_a, b.ScanAll()) << "replicas must agree mid-job";
  EXPECT_GT(mid_a.size(), 0u);

  serve::QueryClient client_a(&server_a, "t");
  serve::QueryClient client_b(&server_b, "t");
  const auto& probe_user = mid_a[mid_a.size() / 2].first;
  const auto ans_a = client_a.Point(probe_user);
  const auto ans_b = client_b.Point(probe_user);
  ASSERT_EQ(ans_a.status, net::QueryStatus::kOk);
  EXPECT_EQ(ans_a.rows, ans_b.rows);
  EXPECT_EQ(ans_a.watermark, 10'000u);

  // Phase 2: finish the stream, publish the final image, and check the
  // replicas converge on exactly the job's own final answers.
  for (std::size_t i = 10'000; i < records.size(); ++i) {
    job.Ingest(records[i]);
  }
  const auto final_version = publisher.Publish(job.CollectSnapshot());
  ASSERT_TRUE(a.WaitForVersion(final_version, std::chrono::seconds(5)));
  ASSERT_TRUE(b.WaitForVersion(final_version, std::chrono::seconds(5)));
  EXPECT_EQ(a.serving_watermark(), records.size());

  const auto truth = job.Finish();
  EXPECT_EQ(a.ScanAll(), truth)
      << "the served view must equal the job's exact final answers";
  EXPECT_EQ(b.ScanAll(), truth);
}

}  // namespace
}  // namespace opmr
