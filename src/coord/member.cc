#include "coord/member.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace opmr::coord {

namespace {

// One dial policy for every client: one connect attempt and one
// transmission per frame.  Join's register loop and the heartbeat tick
// already retry on their own cadence; an in-place redial inside a send
// would only stall them, and Stop() joins the heartbeat thread.
net::TcpTransport::Options DialOptions() {
  net::TcpTransport::Options opts;
  opts.connect_attempts = 1;
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
      evictions_(metrics->Get("coord.client.evictions")) {}

CoordClient::~CoordClient() { Stop(); }

void CoordClient::Join(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  int attempt = 0;
  std::unique_lock lock(mu_);
  while (generation_ == 0 && !failed_) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw CoordError("coord: worker '" + options_.worker_id +
                       "' failed to join " + options_.coordinator +
                       " within " + std::to_string(timeout_s) + "s");
    }
    ++attempt;
    lock.unlock();
    SendRegisterOnce(attempt);
    lock.lock();
    cv_.wait_until(
        lock,
        std::min(deadline,
                 std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.register_retry_ms))),
        [this] { return generation_ != 0 || failed_; });
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
  Disconnect();
}

void CoordClient::SetOnEvicted(std::function<void()> cb) {
  std::scoped_lock lock(mu_);
  on_evicted_ = std::move(cb);
}

void CoordClient::SendRegisterOnce(int attempt) {
  if (net::NetFaultHook* hook = net::GetNetFaultHook()) {
    if (hook->OnRegisterSend(options_.worker_id, attempt)) {
      registers_suppressed_->Increment();
      return;
    }
  }
  net::RegisterMsg msg;
  msg.worker = options_.worker_id;
  msg.endpoint = options_.endpoint;
  msg.role = options_.role;
  msg.auth = options_.secret;
  if (SendToCoordinator(msg.ToFrame())) registers_sent_->Increment();
}

bool CoordClient::SendToCoordinator(const net::Frame& frame) {
  if (!conn_) {
    // A fresh transport per dial: a shut-down one stays shut down.
    transport_ = std::make_unique<net::TcpTransport>(
        metrics_, options_.coordinator, DialOptions());
    try {
      conn_ = transport_->Connect(
          [this](net::Connection* from, net::Frame reply) {
            HandleReply(from, std::move(reply));
          });
    } catch (const net::TransportError&) {
      return false;
    }
  }
  try {
    conn_->Send(frame);
    return true;
  } catch (const net::TransportError&) {
    Disconnect();
    return false;
  }
}

void CoordClient::Disconnect() {
  if (conn_) {
    conn_->Close();
    conn_.reset();
  }
  if (transport_) transport_->Shutdown();
}

void CoordClient::HandleReply(net::Connection* from, net::Frame frame) {
  (void)from;
  try {
    switch (frame.type) {
      case net::FrameType::kMembership: {
        net::MembershipMsg msg = net::MembershipMsg::Parse(frame);
        std::scoped_lock lock(mu_);
        if (msg.epoch < view_.epoch) return;
        view_ = std::move(msg);
        for (const net::MembershipMsg::Entry& e : view_.entries) {
          if (e.worker != options_.worker_id) continue;
          if (e.alive && e.generation > generation_) {
            // Fresh registration confirmed (initial join or rejoin after
            // eviction).
            generation_ = e.generation;
            heartbeat_seq_ = 0;
            rejoin_attempt_ = 0;
            if (evicted_) {
              evicted_ = false;
              notify_evicted_ = true;
              ++eviction_count_;
              evictions_->Increment();
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
    if (notify_evicted_) {
      notify_evicted_ = false;
      std::function<void()> cb = on_evicted_;
      lock.unlock();
      if (cb) cb();
      lock.lock();
      continue;
    }
    if (evicted_) {
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
    if (net::NetFaultHook* hook = net::GetNetFaultHook()) {
      suppressed = hook->OnHeartbeatSend(options_.worker_id, ordinal,
                                         static_cast<int>(generation));
    }
    if (suppressed) {
      heartbeats_suppressed_->Increment();
    } else {
      net::HeartbeatMsg msg;
      msg.worker = options_.worker_id;
      msg.generation = generation;
      msg.seq = ordinal;
      // An unreachable coordinator costs this heartbeat only; the next
      // tick dials again.
      if (SendToCoordinator(msg.ToFrame())) heartbeats_sent_->Increment();
    }
    lock.lock();
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
