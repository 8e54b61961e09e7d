// SnapshotPublisher — the job side of the serving plane.
//
// A streaming/incremental job hands the publisher a consistent
// CheckpointImage on every watermark advance (StreamingOptions::
// publish_snapshot).  The publisher:
//
//   1. commits the image durably through the checkpoint subsystem's CRC'd
//      atomic tmp+rename format, under the pseudo-job "<job>.serve" so
//      job-completion GC (SweepFinishedJobs) reclaims the files;
//   2. assigns the image a monotonic epoch version (the checkpoint seq);
//   3. keeps the last `retain` serialized images in memory for fetches;
//   4. announces {job, version, watermark, bytes, crc} to every subscribed
//      frontend over the framed transport.
//
// Frontends subscribe by sending a Hello{job} on a fresh connection (the
// same frame doubles as the TcpTransport reconnect preamble, so a dropped
// subscription re-arms itself) and pull images with SnapshotFetch.  A
// frame that fails to parse (malformed, or a Hello from another protocol
// version) is dropped and counted in `serve.bad_frames`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "metrics/counters.h"
#include "net/transport.h"
#include "net/wire.h"

namespace opmr::serve {

struct PublisherOptions {
  std::string job;
  std::filesystem::path dir;  // snapshot image directory
  int retain = 4;             // versions kept on disk and fetchable
  std::string secret;         // shared secret; empty = no auth
  bool compress = false;      // OZ-compress the on-disk images
};

class SnapshotPublisher {
 public:
  // `transport` must already be bound (server mode); the publisher
  // Listen()s on it for subscriptions and fetches.  Does not take
  // ownership.  Pre-existing serve images of this job are Reset() away —
  // a new stream never serves a previous run's state.
  SnapshotPublisher(net::Transport* transport, MetricRegistry* metrics,
                    PublisherOptions options);

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  // Commits `image` and announces it.  Returns the assigned version.
  // Call from the job's publish hook; serialized, single-caller.
  std::uint64_t Publish(CheckpointImage image);

  [[nodiscard]] std::uint64_t published() const;
  [[nodiscard]] std::uint64_t latest_version() const;
  [[nodiscard]] std::size_t subscribers() const;

 private:
  void HandleFrame(net::Connection* from, net::Frame frame);
  void HandleHello(net::Connection* from, const net::Frame& frame);
  void HandleFetch(net::Connection* from, const net::Frame& frame);

  struct Retained {
    std::uint64_t watermark = 0;
    std::uint32_t crc = 0;
    std::shared_ptr<const std::string> bytes;
  };

  net::Transport* transport_;
  MetricRegistry* metrics_;
  PublisherOptions options_;
  CheckpointManager manager_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Retained> retained_;  // version -> image
  std::vector<net::Connection*> subscribers_;
  std::uint64_t latest_version_ = 0;
  std::uint64_t published_ = 0;
};

}  // namespace opmr::serve
