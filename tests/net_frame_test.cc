// Frame codec tests, fuzz-style: every message type round-trips through
// the encoder and an incremental decoder; truncated, bit-flipped, and
// oversized inputs must surface as structured DecodeStatus / WireError
// values — never a crash, never a silently accepted corrupt frame.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "net/wire.h"

namespace opmr::net {
namespace {

Frame DecodeOne(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kOk);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

// True iff `msg` survives ToFrame -> frame encoder -> decoder -> Parse whole.
template <typename Msg>
bool RoundTrips(const Msg& msg) {
  return Msg::Parse(DecodeOne(EncodeFrame(msg.ToFrame()))) == msg;
}

// --- One sample table for every message type ---------------------------------
//
// Each row is one message, its frame and the frame's bytes (type byte, then
// payload, in hex) as the protocol-v9 encoder wrote them.  The table drives
// three checks: the encoding matches the golden bytes, Parse(ToFrame(m)) == m
// through the frame codec, and every proper prefix of every payload — and the
// payload plus one trailing byte — is a WireError.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

struct Sample {
  std::string name;
  Frame frame;         // the message's ToFrame()
  std::string golden;  // Hex(type byte + payload)
  // Parses a frame of the sample's type; true iff it equals the message.
  std::function<bool(const Frame&)> parses_to_message;
};

template <typename Msg>
Sample Row(std::string name, const Msg& msg, std::string golden) {
  return {std::move(name), msg.ToFrame(), std::move(golden),
          [msg](const Frame& frame) { return Msg::Parse(frame) == msg; }};
}

std::vector<Sample> Samples() {
  std::vector<Sample> rows;

  HelloMsg hello;
  hello.job = "job";
  hello.num_map_tasks = 7;
  hello.num_reducers = 3;
  hello.worker = "r-0";
  hello.auth = std::string("s\0t", 3);
  rows.push_back(Row("hello", hello,
                     "010b000000030000006a6f62070000000300000003000000722d30"
                     "03000000730074"));

  ChunkMsg chunk;
  chunk.map_task = 4;
  chunk.reducer = 1;
  chunk.sorted = true;
  chunk.records = 99;
  chunk.seq = 12;
  chunk.bytes = std::string("\x00\x01p\xFF", 4);
  rows.push_back(Row("chunk", chunk,
                     "0204000000010000000163000000000000000c0000000000000004"
                     "000000000170ff"));

  SegmentRefMsg ref;
  ref.map_task = 2;
  ref.reducer = 0;
  ref.records = 12;
  ref.offset = 1024;
  ref.length = 512;
  ref.seq = 3;
  ref.path = "/m2";
  rows.push_back(Row("segment_ref", ref,
                     "030200000000000000000c00000000000000000400000000000000"
                     "020000000000000300000000000000030000002f6d32"));

  SegmentDataMsg data;
  data.map_task = 1;
  data.reducer = 2;
  data.sorted = true;
  data.records = 5;
  data.seq = 4;
  data.bytes = std::string(5, '\x7f');
  rows.push_back(Row("segment_data", data,
                     "040100000002000000010500000000000000040000000000000005"
                     "0000007f7f7f7f7f"));

  MapDoneMsg done;
  done.map_task = 6;
  done.input_records = 1000;
  done.output_records = 900;
  done.seq = 5;
  rows.push_back(Row("map_done", done,
                     "0506000000e8030000000000008403000000000000050000000000"
                     "0000"));

  CreditMsg credit;
  credit.reducer = 2;
  credit.credits = 3;
  rows.push_back(Row("credit", credit,
                     "060200000003000000"));

  AckMsg ack;
  ack.upto = 0xDEADBEEFCAFEull;
  rows.push_back(Row("ack", ack,
                     "0dfecaefbeadde0000"));

  GoneMsg gone;
  gone.reducer = 1;
  rows.push_back(Row("gone", gone,
                     "0701000000"));

  AbortMsg abort_msg;
  abort_msg.reason = "r1 failed";
  rows.push_back(Row("abort", abort_msg,
                     "08090000007231206661696c6564"));

  ByeMsg bye;
  bye.frames_sent = 10;
  bye.bytes_sent = 123456;
  bye.retransmits = 2;
  bye.reconnects = 1;
  bye.stall_nanos = 5'000'000;
  bye.ack_replays = 1;
  bye.ack_replayed_frames = 4;
  rows.push_back(Row("bye", bye,
                     "090a0000000000000040e201000000000002000000000000000100"
                     "000000000000404b4c000000000001000000000000000400000000"
                     "000000"));

  RegisterMsg reg;
  reg.worker = "m-1";
  reg.endpoint = "h:91";
  reg.role = WireRole::kReduce;
  reg.auth = std::string("s\0t", 3);
  rows.push_back(Row("register", reg,
                     "0a030000006d2d3104000000683a39310103000000730074"));

  MembershipMsg view;
  view.epoch = 12;
  view.entries.push_back({"m-0", "-", WireRole::kMap});
  view.entries.push_back({"r-0", "h:4", WireRole::kReduce});
  rows.push_back(Row("membership", view,
                     "0c0c0000000000000002000000030000006d2d30010000002d0003"
                     "000000722d3003000000683a3401"));

  // Default: no entries.
  rows.push_back(Row("membership_default", MembershipMsg{},
                     "0c000000000000000000000000"));

  SnapshotAnnounceMsg announce;
  announce.job = "j";
  announce.version = 12;
  announce.watermark = 345'678;
  announce.bytes = 9'000;
  announce.crc = 0xCAFEF00D;
  rows.push_back(Row("snapshot_announce", announce,
                     "0e010000006a0c000000000000004e460500000000002823000000"
                     "0000000df0feca"));

  SnapshotFetchMsg fetch;
  fetch.job = "j";
  fetch.version = 12;
  fetch.reply = true;
  fetch.crc = 7;
  fetch.bytes = std::string("i\0b", 3);
  rows.push_back(Row("snapshot_fetch", fetch,
                     "0f010000006a0c00000000000000010700000003000000690062"));

  QueryMsg query;
  query.id = 31337;
  query.tenant = "t";
  query.op = QueryOp::kScan;
  query.key = "b";
  query.end_key = "e";
  query.limit = 42;
  query.staleness_budget = 500;
  rows.push_back(Row("query", query,
                     "10697a000000000000010000007402010000006201000000652a00"
                     "0000f401000000000000"));

  QueryResultMsg result;
  result.id = 31337;
  result.status = QueryStatus::kStale;
  result.version = 12;
  result.watermark = 340'000;
  result.lag = 5'678;
  result.rows.emplace_back("k1", std::string("\x01\0", 2));
  result.rows.emplace_back("k2", "v");
  result.error = "lag";
  rows.push_back(Row("query_result", result,
                     "11697a000000000000020c0000000000000020300500000000002e"
                     "1600000000000002000000020000006b3102000000010002000000"
                     "6b320100000076030000006c6167"));

  return rows;
}

TEST(NetFrame, EveryMessageTypeRoundTrips) {
  std::set<FrameType> covered;
  for (const Sample& row : Samples()) {
    SCOPED_TRACE(row.name);
    covered.insert(row.frame.type);
    const std::string typed =
        static_cast<char>(row.frame.type) + row.frame.payload;
    EXPECT_EQ(Hex(typed), row.golden);
    EXPECT_TRUE(row.parses_to_message(DecodeOne(EncodeFrame(row.frame))));
  }
  EXPECT_EQ(covered.size(), 16u) << "every message type has a sample";
}

TEST(NetFrame, EveryPayloadPrefixAndOverrunIsWireError) {
  for (const Sample& row : Samples()) {
    SCOPED_TRACE(row.name);
    const std::string& payload = row.frame.payload;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const Frame prefix{row.frame.type, payload.substr(0, cut)};
      EXPECT_THROW((void)row.parses_to_message(prefix), WireError)
          << "prefix of " << cut << " of " << payload.size() << " bytes";
    }
    const Frame overrun{row.frame.type, payload + '\0'};
    EXPECT_THROW((void)row.parses_to_message(overrun), WireError);
  }
}

TEST(NetFrame, HelloFromAnotherProtocolVersionIsWireError) {
  for (const std::uint32_t version : {7u, 8u, 9u, 10u}) {
    HelloMsg hello;
    hello.version = version;
    try {
      (void)HelloMsg::Parse(hello.ToFrame());
      FAIL() << "a v" << version << " hello parsed";
    } catch (const WireError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(std::to_string(version)), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::to_string(kProtocolVersion)),
                std::string::npos)
          << what;
    }
  }
}

// The per-family round trips use realistic field sizes (long names, 2 KiB
// images, binary-safe secrets) next to the sample table's compact rows.

TEST(NetFrame, CoordinationMessagesRoundTrip) {
  HelloMsg hello;
  hello.job = "cluster job";
  hello.worker = "reduce-0";
  hello.auth = "s3cret";
  EXPECT_TRUE(RoundTrips(hello));

  AckMsg ack;
  ack.upto = 0xDEADBEEFCAFEull;
  EXPECT_TRUE(RoundTrips(ack));

  RegisterMsg reg;
  reg.worker = "map-1";
  reg.endpoint = "10.0.0.7:9131";
  reg.role = WireRole::kReduce;
  reg.auth = std::string("shared secret\0with nul", 22);
  EXPECT_TRUE(RoundTrips(reg));

  MembershipMsg view;
  view.epoch = 12;
  view.entries.push_back({"map-0", "-", WireRole::kMap});
  view.entries.push_back({"map-1", "-", WireRole::kMap});
  view.entries.push_back({"reduce-0", "127.0.0.1:40001", WireRole::kReduce});
  EXPECT_TRUE(RoundTrips(view));
}

TEST(NetFrame, CoordinationFrameEveryTruncationIsNeedMore) {
  std::vector<std::string> wires;
  MembershipMsg view;
  view.epoch = 7;
  view.entries.push_back({"map-0", "host-a:1", WireRole::kMap});
  view.entries.push_back({"reduce-0", "host-b:2", WireRole::kReduce});
  wires.push_back(EncodeFrame(view.ToFrame()));
  RegisterMsg reg;
  reg.worker = "map-0";
  reg.endpoint = "host-a:1";
  reg.auth = "secret";
  wires.push_back(EncodeFrame(reg.ToFrame()));
  for (const std::string& wire : wires) {
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      FrameDecoder decoder;
      decoder.Feed(wire.data(), cut);
      Frame frame;
      EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore)
          << "truncated to " << cut << " bytes";
      EXPECT_FALSE(decoder.poisoned());
    }
  }
}

TEST(NetFrame, CoordinationFrameEverySingleBitFlipIsDetected) {
  // Same integrity property as the data-plane frames, over each of the new
  // coordination frame types: no single-bit flip may decode as kOk.
  std::vector<std::string> wires;
  RegisterMsg reg;
  reg.worker = "map-0";
  reg.endpoint = "10.1.2.3:4567";
  reg.auth = "secret";
  wires.push_back(EncodeFrame(reg.ToFrame()));
  MembershipMsg view;
  view.epoch = 3;
  view.entries.push_back({"map-0", "10.1.2.3:4567", WireRole::kMap});
  wires.push_back(EncodeFrame(view.ToFrame()));
  AckMsg ack;
  ack.upto = 41;
  wires.push_back(EncodeFrame(ack.ToFrame()));

  for (const std::string& wire : wires) {
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupt = wire;
        corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
        FrameDecoder decoder;
        decoder.Feed(corrupt.data(), corrupt.size());
        Frame frame;
        EXPECT_NE(decoder.Next(&frame), DecodeStatus::kOk)
            << "flip of bit " << bit << " in byte " << byte
            << " decoded as a valid frame";
      }
    }
  }
}

TEST(NetFrame, CoordinationPayloadSemanticCorruptionIsWireError) {
  // CRC-clean but semantically damaged payloads: truncated body, trailing
  // junk, and a Membership entry count pointing past the payload (the
  // classic length-field lie — must error, not preallocate or overread).
  RegisterMsg reg;
  reg.worker = "map-0";
  reg.endpoint = "h:1";
  Frame frame = reg.ToFrame();
  frame.payload.resize(frame.payload.size() / 2);
  EXPECT_THROW((void)RegisterMsg::Parse(DecodeOne(EncodeFrame(frame))),
               WireError);

  MembershipMsg view;
  view.entries.push_back({"w", "e:1", WireRole::kMap});
  Frame padded = view.ToFrame();
  padded.payload += "junk";
  EXPECT_THROW((void)MembershipMsg::Parse(DecodeOne(EncodeFrame(padded))),
               WireError);

  Frame lying = MembershipMsg{}.ToFrame();
  // epoch(u64) then count(u32): claim 2^31 entries with an empty body.
  ASSERT_GE(lying.payload.size(), 12u);
  lying.payload[8] = '\x00';
  lying.payload[9] = '\x00';
  lying.payload[10] = '\x00';
  lying.payload[11] = '\x40';
  EXPECT_THROW((void)MembershipMsg::Parse(DecodeOne(EncodeFrame(lying))),
               WireError);
}

TEST(NetFrame, ServingMessagesRoundTrip) {
  SnapshotAnnounceMsg announce;
  announce.job = "live job";
  announce.version = 12;
  announce.watermark = 345'678;
  announce.bytes = 9'000;
  announce.crc = 0xCAFEF00D;
  EXPECT_TRUE(RoundTrips(announce));

  SnapshotFetchMsg fetch;
  fetch.job = "live job";
  fetch.version = 12;
  fetch.reply = true;
  fetch.crc = 7;
  fetch.bytes = std::string(9'000, '\0');  // the announced image
  EXPECT_TRUE(RoundTrips(fetch));

  QueryMsg query;
  query.id = 31337;
  query.tenant = "tenant-a";
  query.op = QueryOp::kScan;
  query.key = "begin";
  query.end_key = "end";
  query.limit = 42;
  query.staleness_budget = 500;
  EXPECT_TRUE(RoundTrips(query));

  QueryResultMsg result;
  result.id = 31337;
  result.status = QueryStatus::kStale;
  result.version = 12;
  result.watermark = 340'000;
  result.lag = 5'678;
  result.rows.emplace_back("k1", std::string("\x01\0\0\0\0\0\0\0", 8));
  result.rows.emplace_back("k2", "text value");
  result.error = "replica lag 5678 exceeds staleness budget 500";
  EXPECT_TRUE(RoundTrips(result));
}

TEST(NetFrame, ServingFrameEveryTruncationIsNeedMore) {
  QueryResultMsg result;
  result.id = 1;
  result.rows.emplace_back("key", "value");
  result.error = "e";
  const std::string wire = EncodeFrame(result.ToFrame());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore)
        << "truncated to " << cut << " bytes";
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(NetFrame, ServingFrameEverySingleBitFlipIsDetected) {
  std::vector<std::string> wires;
  SnapshotAnnounceMsg announce;
  announce.job = "j";
  announce.version = 3;
  announce.crc = 0xAB;
  wires.push_back(EncodeFrame(announce.ToFrame()));
  SnapshotFetchMsg fetch;
  fetch.job = "j";
  fetch.version = 3;
  fetch.reply = true;
  fetch.bytes = "img";
  wires.push_back(EncodeFrame(fetch.ToFrame()));
  QueryMsg query;
  query.id = 9;
  query.op = QueryOp::kPoint;
  query.key = "k";
  wires.push_back(EncodeFrame(query.ToFrame()));
  QueryResultMsg result;
  result.id = 9;
  result.rows.emplace_back("k", "v");
  wires.push_back(EncodeFrame(result.ToFrame()));

  for (const std::string& wire : wires) {
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupt = wire;
        corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
        FrameDecoder decoder;
        decoder.Feed(corrupt.data(), corrupt.size());
        Frame frame;
        EXPECT_NE(decoder.Next(&frame), DecodeStatus::kOk)
            << "flip of bit " << bit << " in byte " << byte
            << " decoded as a valid frame";
      }
    }
  }
}

TEST(NetFrame, ServingPayloadSemanticCorruptionIsWireError) {
  // CRC-clean but semantically damaged serving payloads: truncated body,
  // trailing junk, out-of-range enum bytes, and a row count pointing past
  // the payload.
  QueryMsg query;
  query.op = QueryOp::kTopK;
  query.limit = 5;
  Frame truncated = query.ToFrame();
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_THROW((void)QueryMsg::Parse(DecodeOne(EncodeFrame(truncated))),
               WireError);

  SnapshotAnnounceMsg announce;
  announce.job = "j";
  Frame padded = announce.ToFrame();
  padded.payload += "junk";
  EXPECT_THROW(
      (void)SnapshotAnnounceMsg::Parse(DecodeOne(EncodeFrame(padded))),
      WireError);

  // op byte past the enum range must be rejected, not cast through.
  Frame bad_op = QueryMsg{}.ToFrame();
  bool mutated = false;
  for (std::size_t i = 0; i < bad_op.payload.size(); ++i) {
    // id(u64) + tenant len(u32) + op(u8): the op byte sits at offset 12
    // when the tenant is empty.
    if (i == 12) {
      bad_op.payload[i] = '\x7F';
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  EXPECT_THROW((void)QueryMsg::Parse(DecodeOne(EncodeFrame(bad_op))),
               WireError);

  QueryResultMsg result;
  result.id = 1;
  Frame lying = result.ToFrame();
  // id(u64) + status(u8) + version(u64) + watermark(u64) + lag(u64) then
  // row count(u32): claim 2^30 rows with an empty body.
  ASSERT_GE(lying.payload.size(), 37u);
  lying.payload[33] = '\x00';
  lying.payload[34] = '\x00';
  lying.payload[35] = '\x00';
  lying.payload[36] = '\x40';
  EXPECT_THROW((void)QueryResultMsg::Parse(DecodeOne(EncodeFrame(lying))),
               WireError);
}

TEST(NetFrame, ByteAtATimeFeedReassembles) {
  ChunkMsg msg;
  msg.map_task = 0;
  msg.reducer = 0;
  msg.bytes = "drip-fed payload";
  const std::string wire = EncodeFrame(msg.ToFrame());

  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Feed(&wire[i], 1);
    ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore)
        << "complete frame after only " << (i + 1) << " of " << wire.size()
        << " bytes";
  }
  decoder.Feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kOk);
  EXPECT_EQ(ChunkMsg::Parse(frame).bytes, "drip-fed payload");
  EXPECT_FALSE(decoder.poisoned());
}

TEST(NetFrame, MultipleFramesDrainInOrder) {
  std::string wire;
  for (int i = 0; i < 5; ++i) {
    MapDoneMsg msg;
    msg.map_task = i;
    AppendFrame(&wire, msg.ToFrame());
  }
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  for (int i = 0; i < 5; ++i) {
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kOk);
    EXPECT_EQ(MapDoneMsg::Parse(frame).map_task, i);
  }
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
}

TEST(NetFrame, EveryTruncationIsNeedMoreNeverOk) {
  SegmentDataMsg msg;
  msg.bytes = std::string(257, 'q');
  const std::string wire = EncodeFrame(msg.ToFrame());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore)
        << "truncated to " << cut << " bytes";
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(NetFrame, EverySingleBitFlipIsDetected) {
  // The core integrity property: no single-bit corruption anywhere in the
  // frame may decode as kOk.  Depending on which field the flip lands in it
  // surfaces as kBadMagic / kBadType / kOversized / kBadCrc — or as
  // kNeedMore when the length field grew (the stream stalls, which a real
  // connection converts into a timeout) — but never as an accepted frame.
  ChunkMsg msg;
  msg.map_task = 3;
  msg.reducer = 1;
  msg.records = 7;
  msg.bytes = "bit-flip target payload";
  const std::string wire = EncodeFrame(msg.ToFrame());

  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      FrameDecoder decoder;
      decoder.Feed(corrupt.data(), corrupt.size());
      Frame frame;
      const DecodeStatus status = decoder.Next(&frame);
      EXPECT_NE(status, DecodeStatus::kOk)
          << "flip of bit " << bit << " in byte " << byte
          << " decoded as a valid frame";
      if (status != DecodeStatus::kNeedMore) {
        EXPECT_TRUE(decoder.poisoned());
        EXPECT_EQ(decoder.Next(&frame), status)
            << "poisoned decoder must repeat its error";
      }
    }
  }
}

TEST(NetFrame, OversizedLengthIsRejectedStructurally) {
  // Hand-craft a header whose declared payload length exceeds the cap; the
  // decoder must reject it from the header alone instead of waiting for a
  // gigabyte that will never arrive.
  std::string header;
  const auto put_u32 = [&header](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(kFrameMagic);
  header.push_back(static_cast<char>(FrameType::kChunk));
  header.push_back('\0');  // flags
  header.push_back('\0');  // reserved
  header.push_back('\0');
  put_u32(kMaxFramePayload + 1);
  put_u32(0);  // crc (never reached)
  ASSERT_EQ(header.size(), kFrameHeaderBytes);

  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kOversized);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(NetFrame, EncoderRefusesOversizedPayload) {
  Frame frame;
  frame.type = FrameType::kChunk;
  frame.payload.resize(16);
  std::string out;
  AppendFrame(&out, frame);  // small is fine
  Frame big;
  big.type = FrameType::kChunk;
  big.payload.resize(static_cast<std::size_t>(kMaxFramePayload) + 1);
  EXPECT_THROW(EncodeFrame(big), std::length_error);
}

TEST(NetFrame, PoisoningIsPermanent) {
  // A good frame queued behind garbage must never be surfaced: framing is
  // stateful and the stream is untrustworthy after the first error.
  std::string wire = "garbage!";
  MapDoneMsg msg;
  msg.map_task = 0;
  AppendFrame(&wire, msg.ToFrame());

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadMagic);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadMagic);
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadMagic);
}

TEST(NetFrame, SemanticallyTruncatedPayloadIsWireError) {
  // A frame can pass CRC yet carry a payload too short for its message type
  // (a bug in the peer, or a CRC collision).  Parse must throw WireError,
  // not read out of bounds.
  ChunkMsg msg;
  msg.bytes = "full payload";
  Frame frame = msg.ToFrame();
  frame.payload.resize(frame.payload.size() / 2);  // re-framed as valid
  const Frame reframed = DecodeOne(EncodeFrame(frame));
  EXPECT_THROW((void)ChunkMsg::Parse(reframed), WireError);

  // Trailing junk after a well-formed message is equally structural.
  Frame padded = msg.ToFrame();
  padded.payload += "trailing junk";
  const Frame reframed2 = DecodeOne(EncodeFrame(padded));
  EXPECT_THROW((void)ChunkMsg::Parse(reframed2), WireError);
}

TEST(NetFrame, ChunkParsedFromAnRvalueFrameTakesThePayload) {
  ChunkMsg msg;
  msg.map_task = 3;
  msg.reducer = 1;
  msg.records = 42;
  msg.seq = 9;
  msg.bytes = std::string(100'000, 'c');
  Frame frame = msg.ToFrame();
  EXPECT_EQ(ChunkMsg::Parse(frame), msg);
  EXPECT_EQ(ChunkMsg::Parse(std::move(frame)), msg);

  // The consuming path rejects what the copying path rejects.
  Frame truncated = msg.ToFrame();
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_THROW((void)ChunkMsg::Parse(std::move(truncated)), WireError);
  Frame padded = msg.ToFrame();
  padded.payload += "trailing junk";
  EXPECT_THROW((void)ChunkMsg::Parse(std::move(padded)), WireError);
}

TEST(NetFrame, ConstantTimeEqualsMatchesOnlyExactSecrets) {
  EXPECT_TRUE(ConstantTimeEquals("", ""));
  EXPECT_TRUE(ConstantTimeEquals("s3cret", "s3cret"));
  EXPECT_FALSE(ConstantTimeEquals("s3cret", "S3cret"));   // case differs
  EXPECT_FALSE(ConstantTimeEquals("s3cret", "s3cre"));    // proper prefix
  EXPECT_FALSE(ConstantTimeEquals("s3cret", "s3cretX"));  // proper suffix
  EXPECT_FALSE(ConstantTimeEquals("s3cret", ""));
  EXPECT_FALSE(ConstantTimeEquals("", "guess"));
  // Embedded NULs are ordinary bytes, not terminators.
  const std::string with_nul("a\0b", 3);
  const std::string with_nul_c("a\0c", 3);
  EXPECT_TRUE(ConstantTimeEquals(with_nul, with_nul));
  EXPECT_FALSE(ConstantTimeEquals(with_nul, with_nul_c));
  EXPECT_FALSE(ConstantTimeEquals(with_nul, std::string("a", 1)));
}

TEST(NetFrame, UnknownTypeByteIsBadType) {
  // 0x63 is far outside the known range; 11 was the coordinator heartbeat,
  // 18-22 the coordinator replication frames, 23 and 24 the XOR multicast
  // shuffle frames and 25 and 26 the block frames, all removed.
  for (const std::uint8_t type :
       {0x63, 11, 18, 19, 20, 21, 22, 23, 24, 25, 26}) {
    MapDoneMsg msg;
    std::string wire = EncodeFrame(msg.ToFrame());
    wire[4] = static_cast<char>(type);
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadType)
        << "type byte " << int{type};
    EXPECT_FALSE(IsKnownFrameType(type));
  }
  EXPECT_TRUE(IsKnownFrameType(static_cast<std::uint8_t>(FrameType::kBye)));
  EXPECT_TRUE(
      IsKnownFrameType(static_cast<std::uint8_t>(FrameType::kQueryResult)));
}

}  // namespace
}  // namespace opmr::net
