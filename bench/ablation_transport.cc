// Ablation A2b — pipelining granularity over the framed transports.
//
// A2 sweeps the push-shuffle chunk size with the in-process engine; this
// re-runs the same grid with the shuffle frames moving through the src/net
// transports, so the per-chunk overhead the paper attributes to HOP's
// fine-grained eager transmission shows up as real wire activity: frame
// counts, bytes on the wire, payload MB/s, and syscalls per frame.
// Loopback isolates the framing/protocol cost; TCP adds the kernel socket
// path, one send(2) per frame.
//
// Two phases:
//   1. Engine grid — the sessionization job over direct, loopback and tcp
//      at every chunk size.  Output digests must agree across transports
//      (exit nonzero otherwise): the transport changes how bytes move,
//      never the answer.
//   2. Wire saturation — raw chunk frames pushed back-to-back through tcp
//      with no job attached, isolating transport throughput.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "core/opmr.h"
#include "metrics/report.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "opmrbench/harness.h"
#include "workloads/tasks.h"

namespace {

using namespace opmr;

struct WirePoint {
  std::size_t chunk_bytes = 0;
  long long payload_bytes = 0;
  double wall_s = 0.0;
  double mb_s = 0.0;
  double syscalls_per_frame = 0.0;
};

// Phase 2: no engine, no disk — one client hammering chunk frames at a
// sink server until `total_bytes` of payload have landed.
WirePoint SaturateWire(std::size_t chunk_bytes, std::size_t total_bytes) {
  MetricRegistry metrics;
  net::TcpTransport transport(&metrics);
  transport.Bind();

  std::mutex mu;
  std::condition_variable cv;
  std::size_t received = 0;
  transport.Listen([&](net::Connection*, net::Frame frame) {
    if (frame.type == net::FrameType::kChunk) {
      const auto msg = net::ChunkMsg::Parse(frame);
      std::scoped_lock lock(mu);
      received += msg.bytes.size();
      if (received >= total_bytes) cv.notify_all();
    }
  });
  auto conn = transport.Connect([](net::Connection*, net::Frame) {});

  std::string payload(chunk_bytes, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i * 131) % 53);
  }
  net::ChunkMsg msg;
  msg.map_task = 0;
  msg.reducer = 0;
  msg.records = 1;
  msg.bytes = payload;
  const std::size_t frames = (total_bytes + chunk_bytes - 1) / chunk_bytes;

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < frames; ++i) conn->Send(msg.ToFrame());
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return received >= frames * chunk_bytes; });
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  transport.Shutdown();

  WirePoint point;
  point.chunk_bytes = chunk_bytes;
  point.payload_bytes = static_cast<long long>(frames * chunk_bytes);
  point.wall_s = wall;
  point.mb_s = static_cast<double>(point.payload_bytes) / wall / 1e6;
  const auto sent = metrics.Value(net::kNetFramesSent);
  point.syscalls_per_frame =
      sent > 0 ? static_cast<double>(metrics.Value(net::kNetSendSyscalls)) /
                     static_cast<double>(sent)
               : 0.0;
  return point;
}

std::string Fixed(double v, int digits = 2) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opmr;
  const auto cfg = Config::FromArgs(argc, argv);

  bench::Banner("Ablation A2b: push-shuffle chunk granularity over the "
                "transports (direct vs loopback vs tcp)");

  Platform platform({.num_nodes = 2, .block_bytes = 4u << 20});
  ClickStreamOptions gen;
  gen.num_records = static_cast<std::uint64_t>(cfg.GetInt("records", 750'000));
  gen.num_users = 50'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);

  TextTable table;
  table.AddRow({"Transport", "Chunk bytes", "Wall time", "Pushed", "Diverted",
                "Net frames", "Net bytes", "MB/s", "Sys/frame", "Digest"});
  bench::CsvSink csv("ablation_transport.csv");
  csv.Row("transport", "chunk_bytes", "wall_s", "pushed", "diverted",
          "mb_s", "syscalls_per_frame", "digest", WireCsvHeader());

  struct Point {
    std::string transport;
    std::size_t chunk_bytes = 0;
    double wall_s = 0.0;
    std::int64_t pushed = 0;
    std::int64_t diverted = 0;
    std::int64_t net_frames = 0;
    std::int64_t net_bytes = 0;
    double mb_s = 0.0;
    double syscalls_per_frame = 0.0;
    std::string digest;
  };
  std::vector<Point> points;
  bool digests_agree = true;

  int i = 0;
  const std::size_t chunks[] = {16u << 10, 64u << 10, 256u << 10};
  for (const std::size_t chunk : chunks) {
    std::string reference_digest;
    for (const std::string& transport : {"direct", "loopback", "tcp"}) {
      JobOptions options = MapReduceOnlineOptions();
      options.push_chunk_bytes = chunk;
      options.push_queue_chunks = 16;
      const std::string out_name = "a2b_" + std::to_string(i++);
      const auto spec = SessionizationJob("clicks", out_name, 4);
      JobResult r;
      if (transport == "direct") {
        r = platform.Run(spec, options);
      } else if (transport == "loopback") {
        net::LoopbackTransport wire(&platform.metrics());
        r = platform.RunWithTransport(spec, options, &wire);
      } else {
        net::TcpTransport wire(&platform.metrics());
        wire.Bind();
        r = platform.RunWithTransport(spec, options, &wire);
      }
      bench::RowDigest digest;
      for (const auto& [key, value] : platform.ReadOutput(out_name, 4)) {
        digest.Add(key, value);
      }
      Point pt;
      pt.transport = transport;
      pt.chunk_bytes = chunk;
      pt.wall_s = r.wall_seconds;
      pt.pushed = r.Bytes(device::kPushedChunks);
      pt.diverted = r.Bytes(device::kDivertedChunks);
      pt.net_frames = r.net_frames_sent;
      pt.net_bytes = r.net_bytes_sent;
      pt.mb_s = r.wall_seconds > 0
                    ? static_cast<double>(r.net_bytes_sent) / r.wall_seconds /
                          1e6
                    : 0.0;
      pt.syscalls_per_frame =
          r.net_frames_sent > 0
              ? static_cast<double>(r.Bytes(net::kNetSendSyscalls)) /
                    static_cast<double>(r.net_frames_sent)
              : 0.0;
      pt.digest = Hex(digest.value());
      if (reference_digest.empty()) {
        reference_digest = pt.digest;
      } else if (pt.digest != reference_digest) {
        digests_agree = false;
        std::fprintf(stderr,
                     "DIGEST DIVERGENCE: %s @ %zu B chunks: %s != %s\n",
                     transport.c_str(), chunk, pt.digest.c_str(),
                     reference_digest.c_str());
      }
      table.AddRow({transport, HumanBytes(double(chunk)),
                    HumanSeconds(pt.wall_s), std::to_string(pt.pushed),
                    std::to_string(pt.diverted), std::to_string(pt.net_frames),
                    HumanBytes(double(pt.net_bytes)), Fixed(pt.mb_s),
                    Fixed(pt.syscalls_per_frame), pt.digest});
      csv.Row(transport, chunk, pt.wall_s, pt.pushed, pt.diverted, pt.mb_s,
              pt.syscalls_per_frame, pt.digest,
              WireCsvCells(r.net_bytes_sent, r.net_bytes_received,
                           r.net_frames_sent, r.net_frames_received,
                           r.net_retransmits, r.net_reconnects,
                           r.net_stall_seconds, r.shuffle_ack_replays));
      points.push_back(pt);
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nExpected shape: finer chunks => more frames for the same "
              "payload (framing +\nper-send overhead); tcp pays one send(2) "
              "per frame.\n");

  bench::Banner("Wire saturation: raw chunk frames over tcp, no engine");
  const std::size_t wire_bytes =
      static_cast<std::size_t>(cfg.GetInt("wire_mb", 64)) << 20;
  TextTable wire_table;
  wire_table.AddRow({"Chunk bytes", "Payload", "Wall time", "MB/s",
                     "Sys/frame"});
  std::vector<WirePoint> wire_points;
  for (const std::size_t chunk : chunks) {
    const auto pt = SaturateWire(chunk, wire_bytes);
    wire_table.AddRow({HumanBytes(double(pt.chunk_bytes)),
                       HumanBytes(double(pt.payload_bytes)),
                       HumanSeconds(pt.wall_s), Fixed(pt.mb_s),
                       Fixed(pt.syscalls_per_frame, 3)});
    wire_points.push_back(pt);
  }
  std::printf("%s", wire_table.ToString().c_str());
  std::printf("\noutput digests across transports: %s\n",
              digests_agree ? "IDENTICAL" : "DIVERGED");

  const auto json_path = bench::OutDir() / "BENCH_transport.json";
  if (std::FILE* out = std::fopen(json_path.string().c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"ablation_transport\",\n"
                 "  \"records\": %llu,\n"
                 "  \"points\": [\n",
                 static_cast<unsigned long long>(gen.num_records));
    for (std::size_t p = 0; p < points.size(); ++p) {
      const auto& pt = points[p];
      std::fprintf(out,
                   "    { \"transport\": \"%s\", \"chunk_bytes\": %zu, "
                   "\"wall_s\": %.4f, \"pushed_chunks\": %lld, "
                   "\"diverted_chunks\": %lld, \"net_frames_sent\": %lld, "
                   "\"net_bytes_sent\": %lld, \"mb_s\": %.2f, "
                   "\"syscalls_per_frame\": %.3f, \"digest\": \"%s\" }%s\n",
                   pt.transport.c_str(), pt.chunk_bytes, pt.wall_s,
                   static_cast<long long>(pt.pushed),
                   static_cast<long long>(pt.diverted),
                   static_cast<long long>(pt.net_frames),
                   static_cast<long long>(pt.net_bytes), pt.mb_s,
                   pt.syscalls_per_frame, pt.digest.c_str(),
                   p + 1 < points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"wire\": [\n");
    for (std::size_t p = 0; p < wire_points.size(); ++p) {
      const auto& pt = wire_points[p];
      std::fprintf(out,
                   "    { \"transport\": \"tcp\", \"chunk_bytes\": %zu, "
                   "\"payload_bytes\": %lld, \"wall_s\": %.4f, "
                   "\"mb_s\": %.2f, \"syscalls_per_frame\": %.3f }%s\n",
                   pt.chunk_bytes, pt.payload_bytes, pt.wall_s, pt.mb_s,
                   pt.syscalls_per_frame,
                   p + 1 < wire_points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ]\n"
                 "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.string().c_str());
  }
  return digests_agree ? 0 : 1;
}
