// SnapshotFrontend — a read-only replica of a live job's published state.
//
// The frontend dials the job's SnapshotPublisher, subscribes with a
// Hello{job} (re-armed as the reconnect preamble, so a dropped link
// re-subscribes itself), and on every SnapshotAnnounce pulls the image
// bytes, CRC-verifies them, parses the CheckpointImage and atomically
// swaps in an immutable in-memory View.  Point / top-k / scan queries are
// answered from that view under two per-tenant guarantees:
//
//   * bounded staleness — the replica knows the newest announced
//     watermark; when (announced - served) exceeds the effective budget
//     (min of the tenant's and the query's), the query is REJECTED with
//     kStale rather than silently answered from old data;
//   * token-bucket rate limits — per-tenant rate/burst, so one hot tenant
//     cannot starve another replica reader.
//
// Views are deterministic functions of the image bytes, so two frontends
// that applied the same version serve byte-identical answers — the
// replica-consistency property serve_test pins down.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/aggregators.h"
#include "metrics/counters.h"
#include "net/transport.h"
#include "net/wire.h"

namespace opmr::serve {

// Per-tenant serving policy.  rate_per_s == 0 disables rate limiting;
// burst == 0 defaults to max(rate_per_s, 1).
struct TenantPolicy {
  double rate_per_s = 0.0;
  double burst = 0.0;
  std::uint64_t staleness_budget = ~0ull;  // max lag, in ingest records
};

struct FrontendOptions {
  std::string job;
  // Finalizes the raw aggregator states an image carries into servable
  // values (the same aggregator the publishing job folds with).
  std::shared_ptr<Aggregator> aggregator;
  std::map<std::string, TenantPolicy> tenants;
  TenantPolicy default_policy;  // tenants not in the map
  std::uint32_t scan_limit = 1000;  // hard cap on rows per scan/top-k
  std::string worker;               // identity in the subscribe Hello
  std::string secret;               // publisher's shared secret
  // Monotonic seconds for the token buckets; test-injectable.  Defaults
  // to the steady clock.
  std::function<double()> clock;
};

class SnapshotFrontend {
 public:
  // `server` must already be bound (query side); `publisher_link` dials
  // the publisher.  Neither is owned.  Subscribes immediately.
  SnapshotFrontend(net::Transport* server, net::Transport* publisher_link,
                   MetricRegistry* metrics, FrontendOptions options);
  ~SnapshotFrontend();

  SnapshotFrontend(const SnapshotFrontend&) = delete;
  SnapshotFrontend& operator=(const SnapshotFrontend&) = delete;

  // Executes one query against the current view (the wire handler and
  // in-process tests share this path).
  [[nodiscard]] net::QueryResultMsg Execute(const net::QueryMsg& query);

  // Blocks until a view with version >= `version` is serving (true) or
  // the timeout expires (false).
  bool WaitForVersion(std::uint64_t version, std::chrono::milliseconds timeout);

  // Test hook: while paused, announces still advance announced_watermark
  // but no fetch is issued — the lever for staleness-boundary tests.
  void PauseFetch(bool paused);

  // The full finalized view, key-sorted (replica-equality checks).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> ScanAll()
      const;

  [[nodiscard]] std::uint64_t serving_version() const;
  [[nodiscard]] std::uint64_t serving_watermark() const;
  [[nodiscard]] std::uint64_t announced_watermark() const;

 private:
  struct View {
    std::uint64_t version = 0;
    std::uint64_t watermark = 0;
    // Finalized rows, key-sorted (point/scan), and the top scan_limit of
    // them value-ranked (top-k: u64-decoded descending, key ascending on
    // ties — TopAnswers' order).
    std::vector<std::pair<std::string, std::string>> rows;
    std::vector<std::pair<std::string, std::string>> by_score;
  };

  struct TokenBucket {
    double tokens = 0.0;
    double last_refill_s = 0.0;
    bool primed = false;
  };

  void OnPublisherFrame(net::Connection* from, net::Frame frame);
  void ApplyImage(std::uint64_t version, const std::string& bytes,
                  std::uint32_t crc);
  // Runs on fetcher_: issues SnapshotFetch requests for announced-but-
  // unapplied versions.  Fetches never happen inline in a frame handler —
  // the loopback transport delivers synchronously, and a fetch reply sent
  // while the announce is still being delivered would re-enter the same
  // connection.
  void FetchLoop();
  [[nodiscard]] std::shared_ptr<const View> CurrentView() const;
  [[nodiscard]] TenantPolicy PolicyFor(const std::string& tenant) const;
  bool TryAcquire(const std::string& tenant, const TenantPolicy& policy);

  net::Transport* server_;
  net::Transport* publisher_link_;
  MetricRegistry* metrics_;
  FrontendOptions options_;
  std::shared_ptr<net::Connection> publisher_conn_;

  mutable std::mutex mu_;
  std::condition_variable applied_cv_;
  std::condition_variable fetch_cv_;
  std::shared_ptr<const View> view_;  // immutable once published
  std::uint64_t announced_version_ = 0;
  std::uint64_t announced_watermark_ = 0;
  std::uint64_t fetch_sent_ = 0;  // newest version a fetch went out for
  bool paused_ = false;
  bool stopping_ = false;
  std::map<std::string, TokenBucket> buckets_;

  std::thread fetcher_;  // last member: started at the end of the ctor
};

}  // namespace opmr::serve
