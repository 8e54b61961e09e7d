#include "coord/member.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace opmr::coord {

namespace {

// Dial options for an HA endpoint list: the replacement leader is already
// serving by the time the client rotates, so a dead endpoint should fail
// fast instead of burning the election window on backoff, and a failed
// send must surface immediately (send_attempts = 1) rather than spin the
// in-place reconnect loop — endpoint rotation IS the retry policy here.
net::TcpTransport::Options FailoverDialOptions() {
  net::TcpTransport::Options opts;
  opts.connect_attempts = 8;
  opts.connect_backoff_ms = 25;
  opts.send_attempts = 1;
  return opts;
}

}  // namespace

CoordClient::CoordClient(MetricRegistry* metrics, Options options)
    : options_(std::move(options)),
      metrics_(metrics),
      heartbeats_sent_(metrics->Get("coord.client.heartbeats_sent")),
      heartbeats_suppressed_(
          metrics->Get("coord.client.heartbeats_suppressed")),
      registers_sent_(metrics->Get("coord.client.registers_sent")),
      registers_suppressed_(metrics->Get("coord.client.registers_suppressed")),
      evictions_(metrics->Get("coord.client.evictions")),
      failovers_(metrics->Get("coord.client.failovers")),
      fenced_views_(metrics->Get("coord.client.fenced_views")),
      endpoints_(options_.endpoints.empty()
                     ? std::vector<std::string>{options_.coordinator}
                     : options_.endpoints) {
  if (options_.coordinator.empty()) {
    options_.coordinator = endpoints_.front();
  }
  current_endpoint_ = endpoints_.front();
  // Single-endpoint clients keep the default transport policy (patient
  // dials, in-place reconnects); an HA list fails fast and rotates.
  transport_ = endpoints_.size() > 1
                   ? std::make_unique<net::TcpTransport>(
                         metrics_, endpoints_.front(), FailoverDialOptions())
                   : std::make_unique<net::TcpTransport>(metrics_,
                                                         endpoints_.front());
}

CoordClient::~CoordClient() { Stop(); }

void CoordClient::Join(double timeout_s) {
  try {
    conn_ =
        transport_->Connect([this](net::Connection* from, net::Frame frame) {
          HandleReply(from, std::move(frame));
        });
  } catch (const net::TransportError&) {
    if (endpoints_.size() == 1) throw;
    conn_.reset();  // first endpoint down; the join loop rotates
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  int attempt = 0;
  int unreachable = 0;
  std::unique_lock lock(mu_);
  while (generation_ == 0 && !failed_) {
    if (std::chrono::steady_clock::now() >= deadline ||
        attempt >= options_.register_attempts) {
      throw CoordError("coord: worker '" + options_.worker_id +
                       "' failed to join " + current_endpoint_ + " within " +
                       std::to_string(timeout_s) + "s");
    }
    ++attempt;
    bool rotate = false;
    std::string target;
    if (pending_switch_) {
      // A standby answered our Register with a redirect to the leader.
      pending_switch_ = false;
      target = switch_target_;
      switch_target_.clear();
      rotate = true;
    }
    const bool disconnected = conn_ == nullptr;
    lock.unlock();
    if (rotate || disconnected) RotateTransport(target);
    const SendResult r = SendRegisterOnce(attempt);
    lock.lock();
    if (r == SendResult::kUnreachable) {
      if (endpoints_.size() > 1 &&
          ++unreachable >= options_.failover_threshold) {
        unreachable = 0;
        avoid_endpoint_ = current_endpoint_;
        lock.unlock();
        RotateTransport(std::string());
        lock.lock();
      }
    } else {
      unreachable = 0;
    }
    cv_.wait_until(
        lock,
        std::min(deadline,
                 std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.register_retry_ms))),
        [this] { return generation_ != 0 || failed_ || pending_switch_; });
  }
  if (failed_) {
    throw CoordError("coord: join rejected: " + error_);
  }
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void CoordClient::Stop() {
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (conn_) conn_->Close();
  transport_->Shutdown();
}

void CoordClient::SetOnEvicted(std::function<void()> cb) {
  std::scoped_lock lock(mu_);
  on_evicted_ = std::move(cb);
}

CoordClient::SendResult CoordClient::SendRegisterOnce(int attempt) {
  if (net::NetFaultHook* hook = net::GetNetFaultHook()) {
    if (hook->OnRegisterSend(options_.worker_id, attempt)) {
      registers_suppressed_->Increment();
      return SendResult::kSuppressed;
    }
  }
  if (!conn_) return SendResult::kUnreachable;
  net::RegisterMsg msg;
  msg.worker = options_.worker_id;
  msg.endpoint = options_.endpoint;
  msg.role = options_.role;
  msg.auth = options_.secret;
  try {
    conn_->Send(msg.ToFrame());
  } catch (const net::TransportError&) {
    return SendResult::kUnreachable;  // caller's loop retries / rotates
  }
  registers_sent_->Increment();
  return SendResult::kSent;
}

bool CoordClient::RotateTransport(const std::string& target) {
  if (conn_) {
    conn_->Close();
    conn_.reset();
  }
  transport_->Shutdown();
  std::string next = target;
  if (next.empty()) {
    active_ = (active_ + 1) % endpoints_.size();
    next = endpoints_[active_];
  } else {
    // Redirect destinations that appear in the configured list anchor the
    // rotation there; unknown ones are dialed without moving the cursor.
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (endpoints_[i] == next) {
        active_ = i;
        break;
      }
    }
  }
  transport_ =
      std::make_unique<net::TcpTransport>(metrics_, next, FailoverDialOptions());
  {
    std::scoped_lock lock(mu_);
    current_endpoint_ = next;
  }
  try {
    conn_ =
        transport_->Connect([this](net::Connection* from, net::Frame frame) {
          HandleReply(from, std::move(frame));
        });
  } catch (const net::TransportError&) {
    conn_.reset();
    return false;
  }
  return true;
}

void CoordClient::HandleReply(net::Connection* from, net::Frame frame) {
  (void)from;
  try {
    switch (frame.type) {
      case net::FrameType::kMembership: {
        net::MembershipMsg msg = net::MembershipMsg::Parse(frame);
        std::scoped_lock lock(mu_);
        if (msg.leader_epoch < leader_epoch_seen_) {
          // A deposed leader's view: epoch fencing drops it outright.
          fenced_views_->Increment();
          return;
        }
        const bool new_term = msg.leader_epoch > leader_epoch_seen_;
        leader_epoch_seen_ = msg.leader_epoch;
        // Within one leadership term the registry epoch orders views; a
        // new term supersedes unconditionally (the new leader replays the
        // log from its own clock).
        if (!new_term && msg.epoch < view_.epoch) return;
        view_ = std::move(msg);
        for (const net::MembershipMsg::Entry& e : view_.entries) {
          if (e.worker != options_.worker_id) continue;
          if (e.alive && e.generation > generation_) {
            // Fresh registration confirmed (initial join, rejoin after
            // eviction, or failover re-register at a new leader).
            generation_ = e.generation;
            heartbeat_seq_ = 0;
            rejoin_attempt_ = 0;
            avoid_endpoint_.clear();
            if (rejoining_) {
              rejoining_ = false;
              hb_failures_ = 0;
              ++failover_count_;
              failovers_->Increment();
            }
            if (evicted_) {
              evicted_ = false;
              notify_evicted_ = true;
              ++eviction_count_;
            }
          } else if (!e.alive && generation_ != 0 &&
                     e.generation == generation_) {
            // Our lease expired: the registry holds our generation but
            // marks us dead.  Re-register from the heartbeat thread.
            evicted_ = true;
          }
        }
        cv_.notify_all();
        return;
      }
      case net::FrameType::kLeaderClaim: {
        // A standby answered our Register by naming the current leader.
        const net::LeaderClaimMsg msg = net::LeaderClaimMsg::Parse(frame);
        std::scoped_lock lock(mu_);
        if (msg.epoch < leader_epoch_seen_) return;  // stale redirect
        leader_epoch_seen_ = std::max(leader_epoch_seen_, msg.epoch);
        // A redirect back to the endpoint we just abandoned for send
        // failures means the standby has not yet noticed the leader's
        // death: stay put and keep registering here instead of burning a
        // dial backoff on a dead port.
        if (!msg.endpoint.empty() && msg.endpoint != current_endpoint_ &&
            msg.endpoint != avoid_endpoint_) {
          pending_switch_ = true;
          switch_target_ = msg.endpoint;
          cv_.notify_all();
        }
        return;
      }
      case net::FrameType::kAbort: {
        const net::AbortMsg msg = net::AbortMsg::Parse(frame);
        std::scoped_lock lock(mu_);
        failed_ = true;
        error_ = msg.reason;
        cv_.notify_all();
        return;
      }
      default:
        return;
    }
  } catch (const net::WireError&) {
    // Corrupt-but-CRC-clean payload: ignore; the next broadcast supersedes.
  }
}

void CoordClient::HeartbeatLoop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                           options_.heartbeat_interval_ms));
    if (stopping_) return;
    if (failed_) continue;
    if (pending_switch_) {
      pending_switch_ = false;
      const std::string target = switch_target_;
      switch_target_.clear();
      lock.unlock();
      const bool ok = RotateTransport(target);
      lock.lock();
      if (ok) {
        // Re-register at the new leader under the same worker id; the
        // replicated registry bumps our generation without an eviction.
        rejoining_ = true;
        rejoin_attempt_ = 0;
      } else {
        pending_switch_ = true;  // dial failed; rotate again next tick
      }
      continue;
    }
    if (notify_evicted_) {
      notify_evicted_ = false;
      std::function<void()> cb = on_evicted_;
      lock.unlock();
      if (cb) cb();
      lock.lock();
      continue;
    }
    if (evicted_ || rejoining_) {
      const int attempt = ++rejoin_attempt_;
      lock.unlock();
      SendRegisterOnce(attempt);
      lock.lock();
      continue;
    }
    if (generation_ == 0) continue;
    const std::uint64_t ordinal = ++heartbeat_seq_;
    const std::uint64_t generation = generation_;
    lock.unlock();
    bool suppressed = false;
    bool send_failed = false;
    if (net::NetFaultHook* hook = net::GetNetFaultHook()) {
      suppressed = hook->OnHeartbeatSend(options_.worker_id, ordinal,
                                         static_cast<int>(generation));
    }
    if (suppressed) {
      heartbeats_suppressed_->Increment();
    } else if (!conn_) {
      send_failed = true;
    } else {
      net::HeartbeatMsg msg;
      msg.worker = options_.worker_id;
      msg.generation = generation;
      msg.seq = ordinal;
      try {
        conn_->Send(msg.ToFrame());
        heartbeats_sent_->Increment();
      } catch (const net::TransportError&) {
        // Coordinator unreachable: the lease will lapse and the rejoin
        // path takes over once connectivity returns; with an HA endpoint
        // list, consecutive failures trigger a failover rotation instead.
        send_failed = true;
      }
    }
    lock.lock();
    if (send_failed) {
      if (endpoints_.size() > 1 &&
          ++hb_failures_ >= options_.failover_threshold) {
        hb_failures_ = 0;
        pending_switch_ = true;  // rotate at the next tick
        switch_target_.clear();
        avoid_endpoint_ = current_endpoint_;
      }
    } else if (!suppressed) {
      hb_failures_ = 0;
    }
  }
}

net::MembershipMsg CoordClient::View() const {
  std::scoped_lock lock(mu_);
  return view_;
}

std::uint64_t CoordClient::generation() const {
  std::scoped_lock lock(mu_);
  return generation_;
}

std::uint64_t CoordClient::evictions() const {
  std::scoped_lock lock(mu_);
  return eviction_count_;
}

std::uint64_t CoordClient::failovers() const {
  std::scoped_lock lock(mu_);
  return failover_count_;
}

std::uint64_t CoordClient::leader_epoch() const {
  std::scoped_lock lock(mu_);
  return leader_epoch_seen_;
}

std::string CoordClient::current_endpoint() const {
  std::scoped_lock lock(mu_);
  return current_endpoint_;
}

bool CoordClient::failed() const {
  std::scoped_lock lock(mu_);
  return failed_;
}

std::string CoordClient::error() const {
  std::scoped_lock lock(mu_);
  return error_;
}

bool CoordClient::WaitForRole(net::WireRole role, std::size_t n,
                              double timeout_s,
                              std::vector<net::MembershipMsg::Entry>* out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock lock(mu_);
  for (;;) {
    std::vector<net::MembershipMsg::Entry> live;
    for (const net::MembershipMsg::Entry& e : view_.entries) {
      if (e.alive && e.role == role) live.push_back(e);
    }
    if (live.size() >= n) {
      if (out != nullptr) {
        std::sort(live.begin(), live.end(),
                  [](const auto& a, const auto& b) { return a.worker < b.worker; });
        *out = std::move(live);
      }
      return true;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return false;
    }
  }
}

}  // namespace opmr::coord
