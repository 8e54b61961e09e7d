#include "coord/coordinator.h"

#include <chrono>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace opmr::coord {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Coordinator::Coordinator(net::Transport* transport, MetricRegistry* metrics,
                         Options options)
    : transport_(transport),
      options_(std::move(options)),
      registers_(metrics->Get("coord.registers")),
      heartbeats_(metrics->Get("coord.heartbeats")),
      stale_heartbeats_(metrics->Get("coord.stale_heartbeats")),
      expirations_(metrics->Get("coord.expirations")),
      auth_failures_(metrics->Get("coord.auth_failures")),
      workers_returned_(metrics->Get("coord.workers_returned")) {
  transport_->Listen([this](net::Connection* from, net::Frame frame) {
    HandleFrame(from, std::move(frame));
  });
  sweeper_ = std::thread([this] { SweeperLoop(); });
}

Coordinator::~Coordinator() { Stop(); }

void Coordinator::Stop() {
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
}

void Coordinator::HandleFrame(net::Connection* from, net::Frame frame) {
  try {
    switch (frame.type) {
      case net::FrameType::kRegister: {
        const net::RegisterMsg msg = net::RegisterMsg::Parse(frame);
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
        WorkerInfo before;
        const bool returned =
            registry_.Lookup(msg.worker, &before) && !before.alive;
        registry_.Register(msg.worker, msg.endpoint, msg.role, NowSeconds());
        registers_->Increment();
        {
          std::scoped_lock lock(mu_);
          member_conns_[msg.worker] = from;
        }
        cv_.notify_all();
        if (returned) {
          workers_returned_->Increment();
          if (options_.on_worker_returned) {
            options_.on_worker_returned(msg.worker);
          }
        }
        BroadcastMembership();
        return;
      }
      case net::FrameType::kHeartbeat: {
        const net::HeartbeatMsg msg = net::HeartbeatMsg::Parse(frame);
        if (registry_.Heartbeat(msg.worker, msg.generation, NowSeconds())) {
          heartbeats_->Increment();
        } else {
          // Stale generation or evicted worker: answer with the current
          // view so the sender learns its fate without waiting for the
          // next broadcast, then lets its rejoin logic take over.
          stale_heartbeats_->Increment();
          try {
            from->Send(registry_.Snapshot().ToFrame());
          } catch (const net::TransportError&) {
          }
        }
        return;
      }
      default:
        return;  // not a coordination frame; ignore
    }
  } catch (const net::WireError&) {
    // Semantically corrupt payload on a CRC-clean frame: drop it.  The
    // sender will retry (Register) or get expired (Heartbeat).
  }
}

void Coordinator::BroadcastMembership() {
  const net::Frame frame = registry_.Snapshot().ToFrame();
  std::vector<net::Connection*> conns;
  {
    std::scoped_lock lock(mu_);
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

void Coordinator::SweeperLoop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                           options_.sweep_interval_ms));
    if (stopping_) return;
    lock.unlock();
    const std::vector<std::string> expired =
        registry_.ExpireLeases(NowSeconds(), options_.lease_s);
    if (!expired.empty()) {
      expirations_->Add(static_cast<std::int64_t>(expired.size()));
      BroadcastMembership();
    }
    lock.lock();
  }
}

bool Coordinator::WaitForWorkers(net::WireRole role, std::size_t n,
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

}  // namespace opmr::coord
