#include "serve/frontend.h"

#include <algorithm>
#include <stdexcept>

#include "checkpoint/checkpoint.h"
#include "common/crc32c.h"

namespace opmr::serve {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t ScoreOf(const std::string& value) {
  return value.size() == 8 ? DecodeU64(value.data()) : 0;
}

}  // namespace

SnapshotFrontend::SnapshotFrontend(net::Transport* server,
                                   net::Transport* publisher_link,
                                   MetricRegistry* metrics,
                                   FrontendOptions options)
    : server_(server),
      publisher_link_(publisher_link),
      metrics_(metrics),
      options_(std::move(options)) {
  if (options_.aggregator == nullptr) {
    throw std::invalid_argument("SnapshotFrontend: aggregator required");
  }
  if (!options_.clock) options_.clock = SteadySeconds;

  net::HelloMsg hello;
  hello.job = options_.job;
  hello.worker = options_.worker;
  hello.auth = options_.secret;
  // The preamble re-subscribes after any reconnect; the explicit Send
  // below is the first subscription.
  publisher_link_->SetConnectPreamble(hello.ToFrame());
  publisher_conn_ = publisher_link_->Connect(
      [this](net::Connection* from, net::Frame frame) {
        OnPublisherFrame(from, std::move(frame));
      });
  publisher_conn_->Send(hello.ToFrame());

  server_->Listen([this](net::Connection* from, net::Frame frame) {
    if (frame.type != net::FrameType::kQuery) return;
    net::QueryResultMsg result;
    try {
      result = Execute(net::QueryMsg::Parse(frame));
    } catch (const net::WireError& err) {
      result.status = net::QueryStatus::kBadRequest;
      result.error = err.what();
    }
    try {
      from->Send(result.ToFrame());
    } catch (const net::TransportError&) {
      // Client gone; its retry will re-ask.
    }
  });

  fetcher_ = std::thread([this] { FetchLoop(); });
}

SnapshotFrontend::~SnapshotFrontend() {
  {
    std::scoped_lock lock(mu_);
    stopping_ = true;
  }
  fetch_cv_.notify_all();
  if (fetcher_.joinable()) fetcher_.join();
}

void SnapshotFrontend::OnPublisherFrame(net::Connection* /*from*/,
                                        net::Frame frame) {
  switch (frame.type) {
    case net::FrameType::kSnapshotAnnounce: {
      const auto announce = net::SnapshotAnnounceMsg::Parse(frame);
      if (announce.job != options_.job) return;
      {
        std::scoped_lock lock(mu_);
        if (announce.version > announced_version_) {
          announced_version_ = announce.version;
          announced_watermark_ = announce.watermark;
        }
        // A re-announce of a version we already fetched (the greeting
        // after a reconnect) means the earlier fetch or its reply may have
        // died with the link: re-arm so the fetcher asks again.
        const std::uint64_t applied = view_ == nullptr ? 0 : view_->version;
        if (announce.version <= fetch_sent_ && announce.version > applied) {
          fetch_sent_ = applied;
        }
      }
      // The fetch itself happens on fetcher_, never inline here: the
      // handler may be running inside a synchronous delivery and a fetch
      // would re-enter the connection.
      fetch_cv_.notify_all();
      return;
    }
    case net::FrameType::kSnapshotFetch: {
      const auto reply = net::SnapshotFetchMsg::Parse(frame);
      if (!reply.reply || reply.job != options_.job) return;
      if (reply.bytes.empty()) {
        // Version pruned past retention; a newer announce (or the
        // subscribe greeting after a reconnect) supersedes this fetch.
        metrics_->Get("serve.fetch_missing")->Increment();
        return;
      }
      ApplyImage(reply.version, reply.bytes, reply.crc);
      return;
    }
    case net::FrameType::kAbort:
      metrics_->Get("serve.publisher_aborts")->Increment();
      return;
    default:
      return;
  }
}

void SnapshotFrontend::FetchLoop() {
  std::unique_lock lock(mu_);
  while (true) {
    fetch_cv_.wait(lock, [&] {
      const std::uint64_t applied = view_ == nullptr ? 0 : view_->version;
      return stopping_ ||
             (!paused_ &&
              announced_version_ > std::max(applied, fetch_sent_));
    });
    if (stopping_) return;
    const std::uint64_t version = announced_version_;
    fetch_sent_ = version;
    lock.unlock();
    net::SnapshotFetchMsg request;
    request.job = options_.job;
    request.version = version;
    try {
      publisher_conn_->Send(request.ToFrame());
    } catch (const net::TransportError&) {
      // Link down; the reconnect preamble re-subscribes and the greeting
      // announce re-arms the fetch.
    }
    lock.lock();
  }
}

void SnapshotFrontend::ApplyImage(std::uint64_t version,
                                  const std::string& bytes,
                                  std::uint32_t crc) {
  if (Crc32c(bytes.data(), bytes.size()) != crc) {
    metrics_->Get("serve.fetch_corrupt")->Increment();
    return;
  }
  CheckpointImage image;
  try {
    image = ParseCheckpointImage(bytes);
  } catch (const std::exception&) {
    metrics_->Get("serve.fetch_corrupt")->Increment();
    return;
  }

  auto view = std::make_shared<View>();
  view->version = version;
  view->watermark = image.watermark;
  // Keys are worker-partitioned, but merge defensively so a duplicate key
  // can never make two replicas disagree on which copy wins: the stable
  // sort keeps image order among equal keys, and later copies merge into
  // the first.
  auto& entries = image.entries;
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) { return a.key < b.key; });
  view->rows.reserve(entries.size());
  std::string finalized;
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t next = i + 1;
    for (; next < entries.size() && entries[next].key == entries[i].key;
         ++next) {
      options_.aggregator->Merge(&entries[i].state, entries[next].state);
    }
    options_.aggregator->Finalize(entries[i].state, &finalized);
    view->rows.emplace_back(std::move(entries[i].key), finalized);
    i = next;
  }
  // Top-k never returns more than scan_limit rows, so only those are ranked.
  view->by_score.resize(
      std::min<std::size_t>(options_.scan_limit, view->rows.size()));
  std::partial_sort_copy(view->rows.begin(), view->rows.end(),
                         view->by_score.begin(), view->by_score.end(),
                         [](const auto& a, const auto& b) {
                           const std::uint64_t av = ScoreOf(a.second);
                           const std::uint64_t bv = ScoreOf(b.second);
                           if (av != bv) return av > bv;
                           return a.first < b.first;
                         });

  {
    std::scoped_lock lock(mu_);
    // Fetch replies can arrive out of order; the view only moves forward.
    if (view_ != nullptr && view_->version >= version) return;
    view_ = std::move(view);
  }
  applied_cv_.notify_all();
  metrics_->Get("serve.applied")->Increment();
}

std::shared_ptr<const SnapshotFrontend::View> SnapshotFrontend::CurrentView()
    const {
  std::scoped_lock lock(mu_);
  return view_;
}

TenantPolicy SnapshotFrontend::PolicyFor(const std::string& tenant) const {
  if (const auto it = options_.tenants.find(tenant);
      it != options_.tenants.end()) {
    return it->second;
  }
  return options_.default_policy;
}

bool SnapshotFrontend::TryAcquire(const std::string& tenant,
                                  const TenantPolicy& policy) {
  if (policy.rate_per_s <= 0.0) return true;
  const double burst =
      policy.burst > 0.0 ? policy.burst : std::max(policy.rate_per_s, 1.0);
  const double now = options_.clock();
  std::scoped_lock lock(mu_);
  TokenBucket& bucket = buckets_[tenant];
  if (!bucket.primed) {
    bucket.tokens = burst;
    bucket.last_refill_s = now;
    bucket.primed = true;
  } else if (now > bucket.last_refill_s) {
    bucket.tokens = std::min(
        burst, bucket.tokens + (now - bucket.last_refill_s) * policy.rate_per_s);
    bucket.last_refill_s = now;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

net::QueryResultMsg SnapshotFrontend::Execute(const net::QueryMsg& query) {
  metrics_->Get("serve.queries")->Increment();
  net::QueryResultMsg result;
  result.id = query.id;

  const TenantPolicy policy = PolicyFor(query.tenant);
  if (!TryAcquire(query.tenant, policy)) {
    metrics_->Get("serve.throttled")->Increment();
    result.status = net::QueryStatus::kThrottled;
    result.error = "tenant '" + query.tenant + "' rate limit exceeded";
    return result;
  }

  const auto view = CurrentView();
  std::uint64_t announced = 0;
  {
    std::scoped_lock lock(mu_);
    announced = announced_watermark_;
  }
  if (view == nullptr) {
    result.status = net::QueryStatus::kStale;
    result.lag = announced;
    result.error = "no snapshot applied yet";
    metrics_->Get("serve.stale_rejects")->Increment();
    return result;
  }
  result.version = view->version;
  result.watermark = view->watermark;
  result.lag = announced > view->watermark ? announced - view->watermark : 0;

  // The query may tighten, never loosen, the tenant's budget.
  const std::uint64_t budget =
      std::min(policy.staleness_budget, query.staleness_budget);
  if (result.lag > budget) {
    result.status = net::QueryStatus::kStale;
    result.error = "replica lag " + std::to_string(result.lag) +
                   " exceeds staleness budget " + std::to_string(budget);
    metrics_->Get("serve.stale_rejects")->Increment();
    return result;
  }

  const std::uint32_t cap =
      std::min(query.limit == 0 ? options_.scan_limit : query.limit,
               options_.scan_limit);
  switch (query.op) {
    case net::QueryOp::kPoint: {
      if (query.key.empty()) {
        result.status = net::QueryStatus::kBadRequest;
        result.error = "point query requires a key";
        return result;
      }
      const auto it = std::lower_bound(
          view->rows.begin(), view->rows.end(), query.key,
          [](const auto& row, const std::string& want) {
            return row.first < want;
          });
      if (it == view->rows.end() || it->first != query.key) {
        result.status = net::QueryStatus::kNotFound;
        return result;
      }
      result.rows.push_back(*it);
      return result;
    }
    case net::QueryOp::kTopK: {
      const std::size_t n =
          std::min<std::size_t>(cap, view->by_score.size());
      result.rows.assign(view->by_score.begin(),
                         view->by_score.begin() + static_cast<long>(n));
      return result;
    }
    case net::QueryOp::kScan: {
      auto it = std::lower_bound(
          view->rows.begin(), view->rows.end(), query.key,
          [](const auto& row, const std::string& want) {
            return row.first < want;
          });
      for (; it != view->rows.end() && result.rows.size() < cap; ++it) {
        if (!query.end_key.empty() && it->first >= query.end_key) break;
        result.rows.push_back(*it);
      }
      return result;
    }
  }
  result.status = net::QueryStatus::kBadRequest;
  result.error = "unknown query op";
  return result;
}

bool SnapshotFrontend::WaitForVersion(std::uint64_t version,
                                      std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  return applied_cv_.wait_for(lock, timeout, [&] {
    return view_ != nullptr && view_->version >= version;
  });
}

void SnapshotFrontend::PauseFetch(bool paused) {
  {
    std::scoped_lock lock(mu_);
    paused_ = paused;
    if (!paused) {
      // Re-arm: anything announced while paused (or fetched without a
      // usable reply) is fetched again.
      fetch_sent_ = view_ == nullptr ? 0 : view_->version;
    }
  }
  fetch_cv_.notify_all();
}

std::vector<std::pair<std::string, std::string>> SnapshotFrontend::ScanAll()
    const {
  const auto view = CurrentView();
  return view == nullptr
             ? std::vector<std::pair<std::string, std::string>>{}
             : view->rows;
}

std::uint64_t SnapshotFrontend::serving_version() const {
  const auto view = CurrentView();
  return view == nullptr ? 0 : view->version;
}

std::uint64_t SnapshotFrontend::serving_watermark() const {
  const auto view = CurrentView();
  return view == nullptr ? 0 : view->watermark;
}

std::uint64_t SnapshotFrontend::announced_watermark() const {
  std::scoped_lock lock(mu_);
  return announced_watermark_;
}

}  // namespace opmr::serve
