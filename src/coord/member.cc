#include "coord/member.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace opmr::coord {

namespace {

// One dial policy for every client: one connect attempt and one
// transmission per frame.  The announce tick already retries on its own
// cadence; an in-place redial inside a send would only stall it, and
// Stop() joins the announce thread.
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
      registers_sent_(metrics->Get("coord.client.registers_sent")),
      registers_suppressed_(metrics->Get("coord.client.registers_suppressed")) {
}

CoordClient::~CoordClient() { Stop(); }

void CoordClient::Join(double timeout_s) {
  {
    std::scoped_lock lock(mu_);
    if (!announce_thread_.joinable() && !stopping_) {
      announce_thread_ = std::thread([this] { AnnounceLoop(); });
    }
  }
  bool joined = false;
  std::string error;
  {
    std::unique_lock lock(mu_);
    joined = cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                          [this] { return ListedLocked() || failed_; }) &&
             !failed_;
    error = error_;
  }
  if (joined) return;
  Stop();
  if (!error.empty()) throw CoordError("coord: join rejected: " + error);
  throw CoordError("coord: worker '" + options_.worker_id +
                   "' failed to join " + options_.coordinator + " within " +
                   std::to_string(timeout_s) + "s");
}

void CoordClient::Stop() {
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (announce_thread_.joinable()) announce_thread_.join();
  Disconnect();
}

bool CoordClient::ListedLocked() const {
  return std::any_of(view_.entries.begin(), view_.entries.end(),
                     [this](const auto& e) {
                       return e.worker == options_.worker_id;
                     });
}

void CoordClient::AnnounceLoop() {
  const auto period = std::chrono::duration<double, std::milli>(
      options_.register_retry_ms);
  int attempt = 0;
  std::unique_lock lock(mu_);
  while (!stopping_ && !failed_) {
    ++attempt;
    lock.unlock();
    SendRegisterOnce(attempt);
    lock.lock();
    cv_.wait_for(lock, period, [this] { return stopping_ || failed_; });
  }
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
    // The coordinator closed the connection (it exited, or was restarted):
    // the transport redials on the next send, and whoever answers numbers
    // its views afresh.
    transport_->SetOnPeerClosed([this] {
      std::scoped_lock lock(mu_);
      new_conn_ = true;
    });
    {
      std::scoped_lock lock(mu_);
      new_conn_ = true;
    }
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
        if (!new_conn_ && msg.epoch < view_.epoch) return;
        new_conn_ = false;
        view_ = std::move(msg);
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

net::MembershipMsg CoordClient::View() const {
  std::scoped_lock lock(mu_);
  return view_;
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
  std::vector<net::MembershipMsg::Entry> found;
  {
    std::unique_lock lock(mu_);
    const bool ok = cv_.wait_for(
        lock, std::chrono::duration<double>(timeout_s), [&] {
          found.clear();
          for (const net::MembershipMsg::Entry& e : view_.entries) {
            if (e.role == role) found.push_back(e);
          }
          return found.size() >= n;
        });
    if (!ok) return false;
  }
  if (out != nullptr) {
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.worker < b.worker; });
    *out = std::move(found);
  }
  return true;
}

}  // namespace opmr::coord
