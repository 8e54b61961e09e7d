#include "serve/publisher.h"

#include <algorithm>
#include <utility>

#include "common/crc32c.h"

namespace opmr::serve {

namespace {

CheckpointOptions ManagerOptions(const PublisherOptions& options) {
  CheckpointOptions ckpt;
  ckpt.enabled = true;
  ckpt.retain = std::max(options.retain, 1);
  ckpt.compress = options.compress;
  return ckpt;
}

}  // namespace

SnapshotPublisher::SnapshotPublisher(net::Transport* transport,
                                     MetricRegistry* metrics,
                                     PublisherOptions options)
    : transport_(transport),
      metrics_(metrics),
      options_(std::move(options)),
      manager_(options_.dir, options_.job + kServeJobSuffix, /*worker=*/0,
               ManagerOptions(options_), metrics) {
  manager_.Reset();
  transport_->Listen(
      [this](net::Connection* from, net::Frame frame) {
        HandleFrame(from, std::move(frame));
      });
}

std::uint64_t SnapshotPublisher::Publish(CheckpointImage image) {
  // Durable commit first (CRC'd tmp+rename, retention prune), then the
  // wire image.  The checkpoint seq IS the snapshot version: strictly
  // monotonic, assigned under the single-publisher contract.
  manager_.Write(&image);
  const std::uint64_t version = image.seq;
  auto bytes =
      std::make_shared<const std::string>(SerializeCheckpointImage(image));
  net::SnapshotAnnounceMsg announce;
  announce.job = options_.job;
  announce.version = version;
  announce.watermark = image.watermark;
  announce.bytes = bytes->size();
  announce.crc = Crc32c(bytes->data(), bytes->size());

  std::vector<net::Connection*> targets;
  {
    std::scoped_lock lock(mu_);
    retained_[version] = {image.watermark, announce.crc, std::move(bytes)};
    while (static_cast<int>(retained_.size()) >
           std::max(options_.retain, 1)) {
      retained_.erase(retained_.begin());
    }
    latest_version_ = version;
    ++published_;
    targets = subscribers_;
  }

  const net::Frame frame = announce.ToFrame();
  for (net::Connection* conn : targets) {
    try {
      conn->Send(frame);
    } catch (const net::TransportError&) {
      // A dead subscriber misses this announce; its reconnect preamble
      // (Hello) re-subscribes and the greeting announce catches it up.
      std::scoped_lock lock(mu_);
      subscribers_.erase(
          std::remove(subscribers_.begin(), subscribers_.end(), conn),
          subscribers_.end());
    }
  }
  metrics_->Get("serve.published")->Increment();
  return version;
}

std::uint64_t SnapshotPublisher::published() const {
  std::scoped_lock lock(mu_);
  return published_;
}

std::uint64_t SnapshotPublisher::latest_version() const {
  std::scoped_lock lock(mu_);
  return latest_version_;
}

std::size_t SnapshotPublisher::subscribers() const {
  std::scoped_lock lock(mu_);
  return subscribers_.size();
}

void SnapshotPublisher::HandleFrame(net::Connection* from, net::Frame frame) {
  // Drop a malformed frame, never the process: this runs on the
  // transport's reader thread, where an escaped exception is fatal.
  try {
    switch (frame.type) {
      case net::FrameType::kHello:
        HandleHello(from, frame);
        return;
      case net::FrameType::kSnapshotFetch:
        HandleFetch(from, frame);
        return;
      default:
        // Tolerated (e.g. Bye on shutdown paths); the serving protocol only
        // reacts to subscriptions and fetches.
        return;
    }
  } catch (const net::WireError&) {
    metrics_->Get("serve.bad_frames")->Increment();
  }
}

void SnapshotPublisher::HandleHello(net::Connection* from,
                                    const net::Frame& frame) {
  const net::HelloMsg hello = net::HelloMsg::Parse(frame);
  if (!options_.secret.empty() &&
      !net::ConstantTimeEquals(options_.secret, hello.auth)) {
    metrics_->Get("serve.auth_rejects")->Increment();
    net::AbortMsg abort;
    abort.reason = "serve: authentication failed";
    try {
      from->Send(abort.ToFrame());
    } catch (const net::TransportError&) {
    }
    return;
  }
  net::SnapshotAnnounceMsg greeting;
  bool have_snapshot = false;
  {
    std::scoped_lock lock(mu_);
    if (std::find(subscribers_.begin(), subscribers_.end(), from) ==
        subscribers_.end()) {
      subscribers_.push_back(from);
    }
    // Greet with the newest version so a late subscriber (or one whose
    // connection dropped and re-preambled) catches up immediately.
    if (latest_version_ != 0) {
      const Retained& latest = retained_.rbegin()->second;
      greeting.job = options_.job;
      greeting.version = latest_version_;
      greeting.watermark = latest.watermark;
      greeting.bytes = latest.bytes->size();
      greeting.crc = latest.crc;
      have_snapshot = true;
    }
  }
  metrics_->Get("serve.subscribes")->Increment();
  if (have_snapshot) {
    try {
      from->Send(greeting.ToFrame());
    } catch (const net::TransportError&) {
    }
  }
}

void SnapshotPublisher::HandleFetch(net::Connection* from,
                                    const net::Frame& frame) {
  const net::SnapshotFetchMsg request = net::SnapshotFetchMsg::Parse(frame);
  net::SnapshotFetchMsg reply;
  reply.job = options_.job;
  reply.version = request.version;
  reply.reply = true;
  std::shared_ptr<const std::string> bytes;
  {
    std::scoped_lock lock(mu_);
    if (const auto it = retained_.find(request.version);
        it != retained_.end()) {
      reply.crc = it->second.crc;
      bytes = it->second.bytes;
    }
  }
  if (bytes != nullptr) {
    reply.bytes = *bytes;  // empty bytes in a reply = version pruned
    metrics_->Get("serve.fetches")->Increment();
  } else {
    metrics_->Get("serve.fetch_misses")->Increment();
  }
  try {
    from->Send(reply.ToFrame());
  } catch (const net::TransportError&) {
  }
}

}  // namespace opmr::serve
