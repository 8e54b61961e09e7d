// Transport tests: the loopback and TCP implementations must deliver the
// same frames the same way — request in, reply out, counters charged —
// and the TCP client must survive an injected connection drop with an
// exactly-once retransmit over a fresh connection.
#include "net/transport.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/counters.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace opmr::net {
namespace {

// Collects frames across threads and lets a test wait for a count.
class FrameLog {
 public:
  void Add(Frame frame) {
    {
      std::scoped_lock lock(mu_);
      frames_.push_back(std::move(frame));
    }
    cv_.notify_all();
  }

  // Returns false on timeout.
  bool WaitFor(std::size_t count, std::chrono::milliseconds timeout =
                                      std::chrono::seconds(10)) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [&] { return frames_.size() >= count; });
  }

  std::vector<Frame> Snapshot() {
    std::scoped_lock lock(mu_);
    return frames_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Frame> frames_;
};

// Uninstalls the process-global fault hook however the test exits.
class HookGuard {
 public:
  explicit HookGuard(NetFaultHook* hook) { SetNetFaultHook(hook); }
  ~HookGuard() { SetNetFaultHook(nullptr); }
};

// Drops the first transmission attempt of one specific frame ordinal.
class DropOnceHook : public NetFaultHook {
 public:
  explicit DropOnceHook(std::uint64_t target_seq) : target_(target_seq) {}

  bool OnFrameSend(std::uint64_t frame_seq, int attempt) override {
    if (frame_seq == target_ && attempt == 1) {
      ++drops_;
      return true;
    }
    return false;
  }

  [[nodiscard]] int drops() const { return drops_.load(); }

 private:
  std::uint64_t target_;
  std::atomic<int> drops_{0};
};

ChunkMsg MakeChunk(int seq) {
  ChunkMsg msg;
  msg.map_task = seq;
  msg.reducer = 0;
  msg.records = 1;
  msg.bytes = "chunk-" + std::to_string(seq);
  return msg;
}

TEST(NetTransport, LoopbackRequestReplyRoundTrip) {
  MetricRegistry metrics;
  LoopbackTransport transport(&metrics);
  EXPECT_EQ(transport.endpoint(), "loopback");

  FrameLog server_log;
  transport.Listen([&](Connection* from, Frame frame) {
    server_log.Add(frame);
    if (frame.type == FrameType::kChunk) {
      CreditMsg credit;
      credit.reducer = ChunkMsg::Parse(frame).reducer;
      from->Send(credit.ToFrame());
    }
  });

  FrameLog replies;
  auto conn = transport.Connect(
      [&](Connection*, Frame frame) { replies.Add(std::move(frame)); });
  conn->Send(MakeChunk(0).ToFrame());

  // Loopback delivery is synchronous: both the request and its reply have
  // already landed.
  ASSERT_TRUE(server_log.WaitFor(1));
  ASSERT_TRUE(replies.WaitFor(1));
  EXPECT_EQ(CreditMsg::Parse(replies.Snapshot()[0]).reducer, 0);
  EXPECT_EQ(metrics.Value(kNetFramesSent), 2);  // chunk + credit
  EXPECT_EQ(metrics.Value(kNetFramesReceived), 2);
  EXPECT_GT(metrics.Value(kNetBytesSent), 0);
  transport.Shutdown();
}

TEST(NetTransport, TcpRequestReplyRoundTrip) {
  MetricRegistry metrics;
  TcpTransport transport(&metrics);

  FrameLog server_log;
  transport.Listen([&](Connection* from, Frame frame) {
    server_log.Add(frame);
    if (frame.type == FrameType::kChunk) {
      CreditMsg credit;
      credit.reducer = ChunkMsg::Parse(frame).reducer;
      from->Send(credit.ToFrame());
    }
  });

  FrameLog replies;
  auto conn = transport.Connect(
      [&](Connection*, Frame frame) { replies.Add(std::move(frame)); });
  for (int i = 0; i < 3; ++i) conn->Send(MakeChunk(i).ToFrame());

  ASSERT_TRUE(server_log.WaitFor(3));
  ASSERT_TRUE(replies.WaitFor(3));
  const auto received = server_log.Snapshot();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ChunkMsg::Parse(received[i]).map_task, i) << "order preserved";
  }
  // Shutdown joins the server reader threads, so the credit sends' counter
  // updates are visible before the assertions below.
  transport.Shutdown();
  EXPECT_EQ(metrics.Value(kNetFramesSent), 6);  // 3 chunks + 3 credits
  EXPECT_EQ(metrics.Value(kNetFramesReceived), 6);
  EXPECT_EQ(metrics.Value(kNetRetransmits), 0);
}

TEST(NetTransport, TcpShutdownIsIdempotentAndJoinsThreads) {
  MetricRegistry metrics;
  TcpTransport transport(&metrics);
  transport.Listen([](Connection*, Frame) {});
  auto conn = transport.Connect([](Connection*, Frame) {});
  conn->Send(MakeChunk(0).ToFrame());
  transport.Shutdown();
  transport.Shutdown();  // second call is a no-op
  EXPECT_THROW(conn->Send(MakeChunk(1).ToFrame()), TransportError);
}

TEST(NetTransport, ForkedChildShutdownKeepsTheParentListening) {
  // The CLI binds before fork(), and the forked map group releases its
  // inherited copy of the listener with Shutdown().  Parent and child share
  // the listen socket, so that must not shut it down for the parent.
  MetricRegistry metrics;
  TcpTransport::Options options;
  options.connect_attempts = 3;  // fail fast once the listener is gone
  TcpTransport server(&metrics, options);
  server.Bind();
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    server.Shutdown();
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  server.Listen([](Connection* from, Frame frame) {
    CreditMsg credit;
    credit.reducer = ChunkMsg::Parse(frame).reducer;
    from->Send(credit.ToFrame());
  });
  FrameLog replies;
  auto conn = server.Connect(
      [&](Connection*, Frame frame) { replies.Add(std::move(frame)); });
  conn->Send(MakeChunk(0).ToFrame());
  ASSERT_TRUE(replies.WaitFor(1));
  EXPECT_EQ(CreditMsg::Parse(replies.Snapshot()[0]).reducer, 0);
  server.Shutdown();
}

TEST(NetTransport, TcpInjectedDropRetransmitsExactlyOnce) {
  MetricRegistry metrics;
  TcpTransport transport(&metrics);

  FrameLog server_log;
  transport.Listen(
      [&](Connection*, Frame frame) { server_log.Add(std::move(frame)); });

  auto conn = transport.Connect([](Connection*, Frame) {});

  HelloMsg hello;
  hello.job = "drop test";
  transport.SetConnectPreamble(hello.ToFrame());
  conn->Send(hello.ToFrame());  // frame_seq 1

  // Drop frame_seq 3 (the second chunk) on its first attempt.  The client
  // must tear the connection down before any byte hits the wire, reconnect,
  // lead with the Hello preamble, and retransmit — so the server sees every
  // chunk exactly once plus one extra Hello.
  DropOnceHook hook(/*target_seq=*/3);
  HookGuard guard(&hook);
  for (int i = 0; i < 3; ++i) conn->Send(MakeChunk(i).ToFrame());

  ASSERT_TRUE(server_log.WaitFor(5));  // 2 hellos + 3 chunks
  EXPECT_EQ(hook.drops(), 1);

  int hellos = 0;
  std::vector<int> chunk_tasks;
  for (const Frame& frame : server_log.Snapshot()) {
    if (frame.type == FrameType::kHello) {
      ++hellos;
    } else {
      ASSERT_EQ(frame.type, FrameType::kChunk);
      chunk_tasks.push_back(ChunkMsg::Parse(frame).map_task);
    }
  }
  EXPECT_EQ(hellos, 2) << "reconnect must resend the Hello preamble";
  // Order across the two server reader threads is not synchronized; the
  // exactly-once property is what matters.
  std::sort(chunk_tasks.begin(), chunk_tasks.end());
  EXPECT_EQ(chunk_tasks, (std::vector<int>{0, 1, 2}))
      << "exactly-once delivery across the reconnect";
  EXPECT_EQ(metrics.Value(kNetRetransmits), 1);
  EXPECT_EQ(metrics.Value(kNetReconnects), 1);
  EXPECT_GT(metrics.Value(kNetStallNanos), 0);
  transport.Shutdown();
}

TEST(NetTransport, HandlerSelfCloseKillsTheSocketBeforeTheHandlerReturns) {
  // An injected peer crash closes a server connection from inside its own
  // frame handler.  The close must take effect right there — not when the
  // reader thread eventually unwinds — because a half-open socket keeps
  // ACKing the client's writes, and a busy sender can then finish its
  // whole stream "successfully" without ever seeing the failure that
  // triggers its ack-window replay.  The stalled handler below stands in
  // for a descheduled reader thread on a loaded host.
  MetricRegistry metrics;
  TcpTransport server(&metrics);
  std::atomic<bool> crashed{false};
  std::atomic<bool> release{false};
  server.Listen([&](Connection* from, Frame) {
    if (crashed.exchange(true)) return;  // fresh connections stay up
    from->Close();
    while (!release) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  MetricRegistry client_metrics;
  TcpTransport client(&client_metrics, server.endpoint());
  auto conn = client.Connect([](Connection*, Frame) {});
  conn->Send(MakeChunk(0).ToFrame());

  // Follow-up writes must fail while the handler is still stalled:
  // Send() has to detect the close and reconnect, not keep "delivering"
  // into the void until the handler returns.  (On an idle loopback a
  // half-open socket also RSTs quickly, so this guards the visibility
  // semantics; the silent-loss hang itself only reproduces under load —
  // see the chaos-test stress notes in CHANGES.md.)
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int seq = 1;
  while (client_metrics.Value(kNetReconnects) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    conn->Send(MakeChunk(seq++).ToFrame());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(client_metrics.Value(kNetReconnects), 1)
      << "client never observed the mid-handler close";
  release = true;
  client.Shutdown();
  server.Shutdown();
}

TEST(NetTransport, LoopbackNeverConsultsFaultHook) {
  MetricRegistry metrics;
  LoopbackTransport transport(&metrics);
  transport.Listen([](Connection*, Frame) {});
  DropOnceHook hook(/*target_seq=*/1);
  HookGuard guard(&hook);
  auto conn = transport.Connect([](Connection*, Frame) {});
  conn->Send(MakeChunk(0).ToFrame());
  EXPECT_EQ(hook.drops(), 0) << "there is no wire to fail in-process";
  EXPECT_EQ(metrics.Value(kNetRetransmits), 0);
  transport.Shutdown();
}

}  // namespace
}  // namespace opmr::net
