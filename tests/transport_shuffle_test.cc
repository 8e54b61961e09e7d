// End-to-end transport equivalence: the same job over the in-process
// engine, the loopback transport, and real TCP sockets must produce the
// same answer — including with segment bytes shipped inline (no shared
// filesystem) and under an injected connection-drop fault plan.  The
// transport seam changes how bytes move, never what the job computes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/opmr.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "storage/io_stats.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

enum class Mode {
  kDirect,        // no transport: the seed engine's in-process path
  kLoopback,      // frames through LoopbackTransport
  kTcp,           // frames through real localhost sockets (self-dial)
  kTcpShipBytes,  // TCP with shared_fs=false: segment bytes go inline
};

struct Outcome {
  JobResult result;
  Rows rows;
};

Outcome RunMode(Mode mode, const JobOptions& options,
                const std::string& fault_plan = "") {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.fault_plan = fault_plan;
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 40'000;
  gen.num_users = 5'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  const JobSpec spec = PerUserCountJob("clicks", "out", 2);

  Outcome out;
  switch (mode) {
    case Mode::kDirect:
      out.result = platform.Run(spec, options);
      break;
    case Mode::kLoopback: {
      net::LoopbackTransport transport(&platform.metrics());
      out.result = platform.RunWithTransport(spec, options, &transport);
      break;
    }
    case Mode::kTcp:
    case Mode::kTcpShipBytes: {
      net::TcpTransport transport(&platform.metrics());
      transport.Bind();
      out.result = platform.RunWithTransport(spec, options, &transport,
                                             /*shared_fs=*/mode == Mode::kTcp);
      break;
    }
  }
  out.rows = platform.ReadOutput("out", 2);
  return out;
}

std::map<std::string, std::string> AsMap(const Rows& rows) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : rows) {
    EXPECT_TRUE(m.emplace(k, v).second) << "duplicate key " << k;
  }
  return m;
}

TEST(TransportShuffle, SortMergeJobIsByteIdenticalAcrossTransports) {
  // A sort-merge reduce is fully deterministic whether its input was
  // pulled or pushed, so the comparison is exact rows, order included.
  // The push set uses chunks small enough, and a credit window short
  // enough, that some chunks divert to map-output files.
  JobOptions push = MapReduceOnlineOptions();
  push.push_chunk_bytes = 4u << 10;
  push.push_queue_chunks = 2;
  const std::pair<const char*, JobOptions> option_sets[] = {
      {"pull", HadoopOptions()}, {"push", push}};

  for (const auto& [name, options] : option_sets) {
    SCOPED_TRACE(name);
    const auto direct = RunMode(Mode::kDirect, options);
    const auto loopback = RunMode(Mode::kLoopback, options);
    const auto tcp = RunMode(Mode::kTcp, options);

    ASSERT_GT(direct.rows.size(), 0u);
    EXPECT_EQ(loopback.rows, direct.rows);
    EXPECT_EQ(tcp.rows, direct.rows);

    // Only the transported runs moved frames.
    EXPECT_EQ(direct.result.net_frames_sent, 0);
    EXPECT_GT(loopback.result.net_frames_sent, 0);
    EXPECT_GT(loopback.result.net_bytes_sent, 0);
    EXPECT_GT(tcp.result.net_frames_sent, 0);
    EXPECT_GT(tcp.result.Bytes(net::kNetBytesReceived), 0);
    EXPECT_EQ(tcp.result.net_retransmits, 0);

    // The push case really pushed over tcp, and really diverted.
    if (options.shuffle == Shuffle::kPush) {
      EXPECT_GT(tcp.result.Bytes(device::kPushedChunks), 0);
      EXPECT_GT(tcp.result.Bytes(device::kDivertedChunks), 0);
    }
  }
}

TEST(TransportShuffle, PushJobComputesSameAnswerAcrossTransports) {
  // The push pipeline interleaves concurrent mapper threads, so row order
  // is scheduling-dependent even in-process; the answer (key -> value) is
  // what must be invariant.
  const auto direct = RunMode(Mode::kDirect, HashOnePassOptions());
  const auto loopback = RunMode(Mode::kLoopback, HashOnePassOptions());
  const auto tcp = RunMode(Mode::kTcp, HashOnePassOptions());

  const auto truth = AsMap(direct.rows);
  ASSERT_GT(truth.size(), 0u);
  EXPECT_EQ(AsMap(loopback.rows), truth);
  EXPECT_EQ(AsMap(tcp.rows), truth);
  EXPECT_EQ(direct.result.output_records, loopback.result.output_records);
  EXPECT_EQ(direct.result.output_records, tcp.result.output_records);
}

TEST(TransportShuffle, InlineSegmentShippingMatchesSharedFilesystem) {
  // shared_fs=false forces every map-output segment across the wire as
  // SegmentData bytes instead of a path reference; the reducers then read
  // their own landed copies.  Same rows either way, more bytes on the wire.
  const auto by_ref = RunMode(Mode::kTcp, HadoopOptions());
  const auto by_bytes = RunMode(Mode::kTcpShipBytes, HadoopOptions());

  ASSERT_GT(by_ref.rows.size(), 0u);
  EXPECT_EQ(by_bytes.rows, by_ref.rows);
  EXPECT_GT(by_bytes.result.net_bytes_sent, by_ref.result.net_bytes_sent)
      << "inline segment payloads must outweigh path references";
}

TEST(TransportShuffle, InjectedConnDropIsInvisibleInTheAnswer) {
  // Frame 2 of the mapper connection is torn down before any byte reaches
  // the wire; the client reconnects, re-introduces itself, and retransmits.
  // The answer must not change and the wire metrics must show the event.
  const auto clean = RunMode(Mode::kDirect, HashOnePassOptions());
  const auto dropped = RunMode(Mode::kTcp, HashOnePassOptions(),
                               "seed=7;conn_drop:record=2");

  EXPECT_EQ(AsMap(dropped.rows), AsMap(clean.rows));
  EXPECT_GE(dropped.result.Bytes(kFaultsInjected), 1);
  EXPECT_GE(dropped.result.net_retransmits, 1);
  EXPECT_GE(dropped.result.Bytes(net::kNetReconnects), 1);
}

TEST(TransportShuffle, CheckpointRestartReplaysRetentionSpills) {
  // A reduce crash inside a checkpointed push job forces a restart that
  // replays the retained shuffle suffix.  With the retention budget
  // squeezed, retained payloads spill to disk, so the replay re-reads them
  // from the retention spill files.
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.max_task_attempts = 2;
  popts.retry_backoff_base_ms = 0.1;
  popts.retry_backoff_max_ms = 1.0;
  popts.fault_plan = "seed=11;reduce_crash:task=1,record=50";
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 60'000;
  gen.num_users = 8'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  JobOptions options = CheckpointedOnePassOptions(/*interval_records=*/4'000);
  options.checkpoint.retain_budget_bytes = 4u << 10;  // force retain spills
  const JobResult result =
      platform.Run(PerUserCountJob("clicks", "out", 2), options);

  EXPECT_EQ(result.Bytes(kRetryReduceTask), 1);
  EXPECT_GT(result.Bytes(kReplayRecords), 0);

  // The spill replay is invisible in the answer: same rows as a clean run
  // with a roomy retention budget and no fault.
  PlatformOptions clean_popts;
  clean_popts.num_nodes = 3;
  clean_popts.block_bytes = 256u << 10;
  Platform clean(clean_popts);
  GenerateClickStream(clean.dfs(), "clicks", gen);
  clean.Run(PerUserCountJob("clicks", "out", 2),
            CheckpointedOnePassOptions(/*interval_records=*/4'000));
  EXPECT_EQ(platform.ReadOutput("out", 2), clean.ReadOutput("out", 2));
}

TEST(TransportShuffle, InjectedStallIsAccountedAsStallTime) {
  const auto stalled = RunMode(Mode::kTcp, HashOnePassOptions(),
                               "seed=7;net_stall:record=3,delay_ms=40");
  ASSERT_GT(stalled.rows.size(), 0u);
  EXPECT_GE(stalled.result.Bytes(kFaultsInjected), 1);
  EXPECT_GE(stalled.result.Bytes(net::kNetStallNanos), 40'000'000);
  EXPECT_EQ(stalled.result.net_retransmits, 0) << "a stall is not a drop";
}

}  // namespace
}  // namespace opmr
