// Frame codec tests, fuzz-style: every message type round-trips through
// the encoder and an incremental decoder; truncated, bit-flipped, and
// oversized inputs must surface as structured DecodeStatus / WireError
// values — never a crash, never a silently accepted corrupt frame.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstdint>
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

TEST(NetFrame, EveryMessageTypeRoundTrips) {
  HelloMsg hello;
  hello.job = "unit job";
  hello.num_map_tasks = 7;
  hello.num_reducers = 3;
  const auto hello2 = HelloMsg::Parse(DecodeOne(EncodeFrame(hello.ToFrame())));
  EXPECT_EQ(hello2.version, kProtocolVersion);
  EXPECT_EQ(hello2.job, "unit job");
  EXPECT_EQ(hello2.num_map_tasks, 7);
  EXPECT_EQ(hello2.num_reducers, 3);

  ChunkMsg chunk;
  chunk.map_task = 4;
  chunk.reducer = 1;
  chunk.sorted = true;
  chunk.records = 99;
  chunk.bytes = std::string("\x00\x01payload\xFF", 10);
  const auto chunk2 = ChunkMsg::Parse(DecodeOne(EncodeFrame(chunk.ToFrame())));
  EXPECT_EQ(chunk2.map_task, 4);
  EXPECT_EQ(chunk2.reducer, 1);
  EXPECT_TRUE(chunk2.sorted);
  EXPECT_EQ(chunk2.records, 99u);
  EXPECT_EQ(chunk2.bytes, chunk.bytes);

  SegmentRefMsg ref;
  ref.map_task = 2;
  ref.reducer = 0;
  ref.records = 12;
  ref.offset = 1024;
  ref.length = 512;
  ref.path = "/tmp/opmr/map_out_2";
  const auto ref2 =
      SegmentRefMsg::Parse(DecodeOne(EncodeFrame(ref.ToFrame())));
  EXPECT_EQ(ref2.offset, 1024u);
  EXPECT_EQ(ref2.length, 512u);
  EXPECT_EQ(ref2.path, ref.path);

  SegmentDataMsg data;
  data.map_task = 1;
  data.reducer = 2;
  data.sorted = true;
  data.records = 5;
  data.bytes = std::string(4096, '\x7f');
  const auto data2 =
      SegmentDataMsg::Parse(DecodeOne(EncodeFrame(data.ToFrame())));
  EXPECT_EQ(data2.bytes, data.bytes);
  EXPECT_EQ(data2.records, 5u);

  MapDoneMsg done;
  done.map_task = 6;
  done.input_records = 1000;
  done.output_records = 900;
  const auto done2 =
      MapDoneMsg::Parse(DecodeOne(EncodeFrame(done.ToFrame())));
  EXPECT_EQ(done2.map_task, 6);
  EXPECT_EQ(done2.input_records, 1000u);
  EXPECT_EQ(done2.output_records, 900u);

  CreditMsg credit;
  credit.reducer = 2;
  credit.credits = 3;
  const auto credit2 =
      CreditMsg::Parse(DecodeOne(EncodeFrame(credit.ToFrame())));
  EXPECT_EQ(credit2.reducer, 2);
  EXPECT_EQ(credit2.credits, 3u);

  GoneMsg gone;
  gone.reducer = 1;
  EXPECT_EQ(GoneMsg::Parse(DecodeOne(EncodeFrame(gone.ToFrame()))).reducer, 1);

  AbortMsg abort_msg;
  abort_msg.reason = "reduce task 1 failed";
  EXPECT_EQ(AbortMsg::Parse(DecodeOne(EncodeFrame(abort_msg.ToFrame()))).reason,
            abort_msg.reason);

  ByeMsg bye;
  bye.frames_sent = 10;
  bye.bytes_sent = 123456;
  bye.retransmits = 2;
  bye.reconnects = 1;
  bye.stall_nanos = 5'000'000;
  bye.ack_replays = 1;
  bye.ack_replayed_frames = 4;
  const auto bye2 = ByeMsg::Parse(DecodeOne(EncodeFrame(bye.ToFrame())));
  EXPECT_EQ(bye2.frames_sent, 10u);
  EXPECT_EQ(bye2.bytes_sent, 123456u);
  EXPECT_EQ(bye2.retransmits, 2u);
  EXPECT_EQ(bye2.reconnects, 1u);
  EXPECT_EQ(bye2.stall_nanos, 5'000'000u);
  EXPECT_EQ(bye2.ack_replays, 1u);
  EXPECT_EQ(bye2.ack_replayed_frames, 4u);
}

TEST(NetFrame, CoordinationMessagesRoundTrip) {
  HelloMsg hello;
  hello.job = "cluster job";
  hello.worker = "reduce-0";
  hello.auth = "s3cret";
  const auto hello2 = HelloMsg::Parse(DecodeOne(EncodeFrame(hello.ToFrame())));
  EXPECT_EQ(hello2.worker, "reduce-0");
  EXPECT_EQ(hello2.auth, "s3cret");

  AckMsg ack;
  ack.upto = 0xDEADBEEFCAFEull;
  EXPECT_EQ(AckMsg::Parse(DecodeOne(EncodeFrame(ack.ToFrame()))).upto,
            0xDEADBEEFCAFEull);

  RegisterMsg reg;
  reg.worker = "map-1";
  reg.endpoint = "10.0.0.7:9131";
  reg.role = WireRole::kReduce;
  reg.auth = std::string("shared secret\0with nul", 22);
  const auto reg2 = RegisterMsg::Parse(DecodeOne(EncodeFrame(reg.ToFrame())));
  EXPECT_EQ(reg2.worker, reg.worker);
  EXPECT_EQ(reg2.endpoint, reg.endpoint);
  EXPECT_EQ(reg2.role, WireRole::kReduce);
  EXPECT_EQ(reg2.auth, reg.auth);

  HeartbeatMsg hb;
  hb.worker = "map-1";
  hb.generation = 3;
  hb.seq = 99;
  hb.load = {2, 1, 7};  // v6 trailing load vector (kLoad* layout)
  const auto hb2 = HeartbeatMsg::Parse(DecodeOne(EncodeFrame(hb.ToFrame())));
  EXPECT_EQ(hb2.worker, "map-1");
  EXPECT_EQ(hb2.generation, 3u);
  EXPECT_EQ(hb2.seq, 99u);
  EXPECT_EQ(hb2.load, (std::vector<std::uint32_t>{2, 1, 7}));

  // A loadless heartbeat round-trips as an empty vector (LoadAt reads 0s).
  HeartbeatMsg bare_hb;
  bare_hb.worker = "map-2";
  EXPECT_TRUE(
      HeartbeatMsg::Parse(DecodeOne(EncodeFrame(bare_hb.ToFrame()))).load
          .empty());

  // The encode side enforces the same cap the parser does: a load vector
  // past kMaxLoadEntries never reaches the wire.
  HeartbeatMsg oversized;
  oversized.worker = "map-3";
  oversized.load.assign(kMaxLoadEntries + 1, 1);
  EXPECT_THROW((void)oversized.ToFrame(), WireError);

  MembershipMsg view;
  view.epoch = 12;
  view.leader_epoch = 5;
  view.leader = 2;
  view.entries.push_back({"map-0", "-", WireRole::kMap, 1, true});
  view.entries.push_back({"map-1", "-", WireRole::kMap, 4, false});
  view.entries.push_back({"reduce-0", "127.0.0.1:40001", WireRole::kReduce,
                          2, true});
  const auto view2 =
      MembershipMsg::Parse(DecodeOne(EncodeFrame(view.ToFrame())));
  EXPECT_EQ(view2.epoch, 12u);
  EXPECT_EQ(view2.leader_epoch, 5u);
  EXPECT_EQ(view2.leader, 2u);
  ASSERT_EQ(view2.entries.size(), 3u);
  EXPECT_EQ(view2.entries[1].worker, "map-1");
  EXPECT_EQ(view2.entries[1].generation, 4u);
  EXPECT_FALSE(view2.entries[1].alive);
  EXPECT_EQ(view2.entries[2].endpoint, "127.0.0.1:40001");
  EXPECT_EQ(view2.entries[2].role, WireRole::kReduce);

  // Unreplicated default: the trailing leadership fields decode as zero.
  const auto bare = MembershipMsg::Parse(
      DecodeOne(EncodeFrame(MembershipMsg{}.ToFrame())));
  EXPECT_EQ(bare.leader_epoch, 0u);
  EXPECT_EQ(bare.leader, 0u);
}

TEST(NetFrame, CoordinationFrameEveryTruncationIsNeedMore) {
  std::vector<std::string> wires;
  MembershipMsg view;
  view.epoch = 7;
  view.entries.push_back({"map-0", "host-a:1", WireRole::kMap, 1, true});
  view.entries.push_back({"reduce-0", "host-b:2", WireRole::kReduce, 2, true});
  wires.push_back(EncodeFrame(view.ToFrame()));
  HeartbeatMsg hb;
  hb.worker = "map-0";
  hb.generation = 2;
  hb.seq = 17;
  hb.load = {1, 0, 3};  // the v6 extension gets the same truncation sweep
  wires.push_back(EncodeFrame(hb.ToFrame()));
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
  HeartbeatMsg hb;
  hb.worker = "map-0";
  hb.generation = 2;
  hb.seq = 17;
  hb.load = {3, 0, 5};
  wires.push_back(EncodeFrame(hb.ToFrame()));
  MembershipMsg view;
  view.epoch = 3;
  view.entries.push_back({"map-0", "10.1.2.3:4567", WireRole::kMap, 2, true});
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
  view.entries.push_back({"w", "e:1", WireRole::kMap, 1, true});
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

  // v6 heartbeat load-vector lies.  Payload layout: worker len(u32) +
  // "map-0"(5) + generation(u64) + seq(u64) puts the load count at byte 25.
  HeartbeatMsg hb;
  hb.worker = "map-0";
  Frame hb_lying = hb.ToFrame();
  ASSERT_GE(hb_lying.payload.size(), 29u);
  // Claim kMaxLoadEntries + 1 entries with an empty body: over-cap is
  // rejected before any allocation or read.
  hb_lying.payload[25] = static_cast<char>(kMaxLoadEntries + 1);
  EXPECT_THROW((void)HeartbeatMsg::Parse(DecodeOne(EncodeFrame(hb_lying))),
               WireError);
  // Claim 2^30 entries: same rejection, no preallocation from the lie.
  hb_lying.payload[25] = '\x00';
  hb_lying.payload[28] = '\x40';
  EXPECT_THROW((void)HeartbeatMsg::Parse(DecodeOne(EncodeFrame(hb_lying))),
               WireError);
  // An in-cap count pointing past the payload must be a clean WireError.
  hb_lying.payload[25] = '\x02';
  hb_lying.payload[28] = '\x00';
  EXPECT_THROW((void)HeartbeatMsg::Parse(DecodeOne(EncodeFrame(hb_lying))),
               WireError);
  // Trailing junk after a well-formed load vector is rejected too.
  HeartbeatMsg hb_loaded;
  hb_loaded.worker = "map-0";
  hb_loaded.load = {1, 2};
  Frame hb_padded = hb_loaded.ToFrame();
  hb_padded.payload += "junk";
  EXPECT_THROW((void)HeartbeatMsg::Parse(DecodeOne(EncodeFrame(hb_padded))),
               WireError);
}

// --- Replication frames (v4: kLogAppend/kLogAck/kSnapshotOffer/kVote/
// kLeaderClaim) get the same four-way fuzz treatment as every other
// protocol family: round-trip, every truncation, every bit flip, and
// CRC-clean semantic lies.

std::vector<std::string> ReplicationWires() {
  std::vector<std::string> wires;
  LogAppendMsg append;
  append.epoch = 3;
  append.index = 41;
  append.record_type = 2;
  append.record = std::string("\x01payload\x00z", 11);
  append.auth = "s3cret";
  wires.push_back(EncodeFrame(append.ToFrame()));
  LogAckMsg ack;
  ack.replica = 2;
  ack.epoch = 3;
  ack.index = 41;
  ack.auth = "s3cret";
  wires.push_back(EncodeFrame(ack.ToFrame()));
  SnapshotOfferMsg offer;
  offer.epoch = 3;
  offer.index = 40;
  offer.crc = 0xDEADBEEF;
  offer.bytes = std::string(512, '\x5a');
  offer.auth = "s3cret";
  wires.push_back(EncodeFrame(offer.ToFrame()));
  VoteMsg vote;
  vote.replica = 1;
  vote.epoch = 3;
  vote.index = 41;
  vote.auth = "s3cret";
  wires.push_back(EncodeFrame(vote.ToFrame()));
  LeaderClaimMsg claim;
  claim.replica = 2;
  claim.epoch = 4;
  claim.endpoint = "127.0.0.1:7102";
  claim.auth = "s3cret";
  wires.push_back(EncodeFrame(claim.ToFrame()));
  return wires;
}

TEST(NetFrame, ReplicationMessagesRoundTrip) {
  LogAppendMsg append;
  append.epoch = 7;
  append.index = 123;
  append.record_type = 1;
  append.record = std::string("record\x00 bytes", 13);
  append.auth = std::string("peer secret\0nul", 15);  // binary-safe
  const auto append2 =
      LogAppendMsg::Parse(DecodeOne(EncodeFrame(append.ToFrame())));
  EXPECT_EQ(append2.epoch, 7u);
  EXPECT_EQ(append2.index, 123u);
  EXPECT_EQ(append2.record_type, 1);
  EXPECT_EQ(append2.record, append.record);
  EXPECT_EQ(append2.auth, append.auth);

  LogAckMsg ack;
  ack.replica = 3;
  ack.epoch = 7;
  ack.index = 123;
  ack.auth = "peer secret";
  const auto ack2 = LogAckMsg::Parse(DecodeOne(EncodeFrame(ack.ToFrame())));
  EXPECT_EQ(ack2.replica, 3u);
  EXPECT_EQ(ack2.epoch, 7u);
  EXPECT_EQ(ack2.index, 123u);
  EXPECT_EQ(ack2.auth, "peer secret");

  SnapshotOfferMsg offer;
  offer.epoch = 7;
  offer.index = 120;
  offer.crc = 0xCAFEF00D;
  offer.bytes = std::string(2048, '\x33');
  offer.auth = "peer secret";
  const auto offer2 =
      SnapshotOfferMsg::Parse(DecodeOne(EncodeFrame(offer.ToFrame())));
  EXPECT_EQ(offer2.epoch, 7u);
  EXPECT_EQ(offer2.index, 120u);
  EXPECT_EQ(offer2.crc, 0xCAFEF00Du);
  EXPECT_EQ(offer2.bytes, offer.bytes);
  EXPECT_EQ(offer2.auth, "peer secret");

  VoteMsg vote;
  vote.replica = 2;
  vote.epoch = 7;
  vote.index = 99;
  vote.auth = "peer secret";
  const auto vote2 = VoteMsg::Parse(DecodeOne(EncodeFrame(vote.ToFrame())));
  EXPECT_EQ(vote2.replica, 2u);
  EXPECT_EQ(vote2.epoch, 7u);
  EXPECT_EQ(vote2.index, 99u);
  EXPECT_EQ(vote2.auth, "peer secret");

  LeaderClaimMsg claim;
  claim.replica = 2;
  claim.epoch = 8;
  claim.endpoint = "10.0.0.2:7102";
  claim.auth = "peer secret";
  const auto claim2 =
      LeaderClaimMsg::Parse(DecodeOne(EncodeFrame(claim.ToFrame())));
  EXPECT_EQ(claim2.replica, 2u);
  EXPECT_EQ(claim2.epoch, 8u);
  EXPECT_EQ(claim2.endpoint, "10.0.0.2:7102");
  EXPECT_EQ(claim2.auth, "peer secret");

  // Auth-less (auth off) frames round-trip with an empty field — the
  // encoding always carries it.
  const auto bare = VoteMsg::Parse(DecodeOne(EncodeFrame(VoteMsg{}.ToFrame())));
  EXPECT_TRUE(bare.auth.empty());
}

TEST(NetFrame, ReplicationFrameEveryTruncationIsNeedMore) {
  for (const std::string& wire : ReplicationWires()) {
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

TEST(NetFrame, ReplicationFrameEverySingleBitFlipIsDetected) {
  for (const std::string& wire : ReplicationWires()) {
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

TEST(NetFrame, ReplicationPayloadSemanticCorruptionIsWireError) {
  // Truncated body after a CRC-clean re-encode.
  LogAppendMsg append;
  append.epoch = 1;
  append.index = 2;
  append.record = "0123456789";
  Frame frame = append.ToFrame();
  frame.payload.resize(frame.payload.size() / 2);
  EXPECT_THROW((void)LogAppendMsg::Parse(DecodeOne(EncodeFrame(frame))),
               WireError);

  // Trailing junk past a well-formed message.
  VoteMsg vote;
  vote.replica = 1;
  Frame padded = vote.ToFrame();
  padded.payload += "junk";
  EXPECT_THROW((void)VoteMsg::Parse(DecodeOne(EncodeFrame(padded))),
               WireError);

  // The length-field lie: a record length pointing far past the payload.
  // LogAppend layout: epoch(u64) index(u64) type(u8) then len(u32) at 17.
  Frame lying = append.ToFrame();
  ASSERT_GE(lying.payload.size(), 21u);
  lying.payload[17] = '\x00';
  lying.payload[18] = '\x00';
  lying.payload[19] = '\x00';
  lying.payload[20] = '\x40';
  EXPECT_THROW((void)LogAppendMsg::Parse(DecodeOne(EncodeFrame(lying))),
               WireError);

  // Same lie on a snapshot offer's image bytes:
  // epoch(u64) index(u64) crc(u32) then len(u32) at 20.
  SnapshotOfferMsg offer;
  offer.bytes = "image";
  Frame lying_offer = offer.ToFrame();
  ASSERT_GE(lying_offer.payload.size(), 24u);
  lying_offer.payload[20] = '\x00';
  lying_offer.payload[21] = '\x00';
  lying_offer.payload[22] = '\x00';
  lying_offer.payload[23] = '\x40';
  EXPECT_THROW(
      (void)SnapshotOfferMsg::Parse(DecodeOne(EncodeFrame(lying_offer))),
      WireError);
}

TEST(NetFrame, ServingMessagesRoundTrip) {
  SnapshotAnnounceMsg announce;
  announce.job = "live job";
  announce.version = 12;
  announce.watermark = 345'678;
  announce.bytes = 9'000;
  announce.crc = 0xCAFEF00D;
  const auto announce2 =
      SnapshotAnnounceMsg::Parse(DecodeOne(EncodeFrame(announce.ToFrame())));
  EXPECT_EQ(announce2.job, "live job");
  EXPECT_EQ(announce2.version, 12u);
  EXPECT_EQ(announce2.watermark, 345'678u);
  EXPECT_EQ(announce2.bytes, 9'000u);
  EXPECT_EQ(announce2.crc, 0xCAFEF00Du);

  SnapshotFetchMsg fetch;
  fetch.job = "live job";
  fetch.version = 12;
  fetch.reply = true;
  fetch.crc = 7;
  fetch.bytes = std::string("image\0bytes", 11);  // binary-safe
  const auto fetch2 =
      SnapshotFetchMsg::Parse(DecodeOne(EncodeFrame(fetch.ToFrame())));
  EXPECT_EQ(fetch2.job, "live job");
  EXPECT_EQ(fetch2.version, 12u);
  EXPECT_TRUE(fetch2.reply);
  EXPECT_EQ(fetch2.bytes, fetch.bytes);

  QueryMsg query;
  query.id = 31337;
  query.tenant = "tenant-a";
  query.op = QueryOp::kScan;
  query.key = "begin";
  query.end_key = "end";
  query.limit = 42;
  query.staleness_budget = 500;
  const auto query2 = QueryMsg::Parse(DecodeOne(EncodeFrame(query.ToFrame())));
  EXPECT_EQ(query2.id, 31337u);
  EXPECT_EQ(query2.tenant, "tenant-a");
  EXPECT_EQ(query2.op, QueryOp::kScan);
  EXPECT_EQ(query2.key, "begin");
  EXPECT_EQ(query2.end_key, "end");
  EXPECT_EQ(query2.limit, 42u);
  EXPECT_EQ(query2.staleness_budget, 500u);

  QueryResultMsg result;
  result.id = 31337;
  result.status = QueryStatus::kStale;
  result.version = 12;
  result.watermark = 340'000;
  result.lag = 5'678;
  result.rows.emplace_back("k1", std::string("\x01\0\0\0\0\0\0\0", 8));
  result.rows.emplace_back("k2", "text value");
  result.error = "replica lag 5678 exceeds staleness budget 500";
  const auto result2 =
      QueryResultMsg::Parse(DecodeOne(EncodeFrame(result.ToFrame())));
  EXPECT_EQ(result2.id, 31337u);
  EXPECT_EQ(result2.status, QueryStatus::kStale);
  EXPECT_EQ(result2.version, 12u);
  EXPECT_EQ(result2.watermark, 340'000u);
  EXPECT_EQ(result2.lag, 5'678u);
  EXPECT_EQ(result2.rows, result.rows);
  EXPECT_EQ(result2.error, result.error);
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

// --- Coded-shuffle frames (v5: kCodedChunk/kCodedAck) get the same
// four-way fuzz treatment: round-trip, every truncation, every bit flip,
// and CRC-clean semantic lies (lying part counts, part lengths past the
// payload, receiver lists out of order).

std::vector<std::string> CodedWires() {
  std::vector<std::string> wires;
  CodedChunkMsg chunk;
  chunk.group = 3;
  chunk.sender = 1;
  chunk.seq = 42;
  chunk.parts.push_back({0, 5});
  chunk.parts.push_back({2, 3});
  chunk.bytes = std::string("\x01\x00\x03\xFF\x05", 5);
  wires.push_back(EncodeFrame(chunk.ToFrame()));
  CodedAckMsg ack;
  ack.upto = 41;
  ack.decoded = 17;
  wires.push_back(EncodeFrame(ack.ToFrame()));
  return wires;
}

TEST(NetFrame, CodedMessagesRoundTrip) {
  CodedChunkMsg chunk;
  chunk.group = 9;
  chunk.sender = 4;
  chunk.seq = 0xFEEDFACEull;
  chunk.parts.push_back({1, 7});
  chunk.parts.push_back({3, 6});
  chunk.parts.push_back({8, 7});
  chunk.bytes = std::string("xor-pad\0"
                            "extra",
                            7);  // length == longest part
  const auto chunk2 =
      CodedChunkMsg::Parse(DecodeOne(EncodeFrame(chunk.ToFrame())));
  EXPECT_EQ(chunk2.group, 9u);
  EXPECT_EQ(chunk2.sender, 4u);
  EXPECT_EQ(chunk2.seq, 0xFEEDFACEull);
  ASSERT_EQ(chunk2.parts.size(), 3u);
  EXPECT_EQ(chunk2.parts[1].node, 3u);
  EXPECT_EQ(chunk2.parts[1].part_len, 6u);
  EXPECT_EQ(chunk2.bytes, chunk.bytes);

  // A group whose receivers are all owed nothing still ships its frames —
  // the decoder needs every member frame to know the group completed.
  CodedChunkMsg empty;
  empty.group = 0;
  empty.sender = 2;
  empty.seq = 1;
  empty.parts.push_back({0, 0});
  empty.parts.push_back({1, 0});
  const auto empty2 =
      CodedChunkMsg::Parse(DecodeOne(EncodeFrame(empty.ToFrame())));
  EXPECT_EQ(empty2.parts.size(), 2u);
  EXPECT_TRUE(empty2.bytes.empty());

  CodedAckMsg ack;
  ack.upto = 123;
  ack.decoded = 456;
  const auto ack2 = CodedAckMsg::Parse(DecodeOne(EncodeFrame(ack.ToFrame())));
  EXPECT_EQ(ack2.upto, 123u);
  EXPECT_EQ(ack2.decoded, 456u);
}

TEST(NetFrame, CodedFrameEveryTruncationIsNeedMore) {
  for (const std::string& wire : CodedWires()) {
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

TEST(NetFrame, CodedFrameEverySingleBitFlipIsDetected) {
  for (const std::string& wire : CodedWires()) {
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

TEST(NetFrame, CodedPayloadSemanticCorruptionIsWireError) {
  // An empty part list is structurally meaningless.
  CodedChunkMsg no_parts;
  no_parts.group = 1;
  EXPECT_THROW(
      (void)CodedChunkMsg::Parse(DecodeOne(EncodeFrame(no_parts.ToFrame()))),
      WireError);

  // A part length pointing past the payload.
  CodedChunkMsg oversold;
  oversold.parts.push_back({0, 9});
  oversold.bytes = "short";
  EXPECT_THROW(
      (void)CodedChunkMsg::Parse(DecodeOne(EncodeFrame(oversold.ToFrame()))),
      WireError);

  // Payload longer than the longest advertised part: padding nobody owns.
  CodedChunkMsg padded_parts;
  padded_parts.parts.push_back({0, 2});
  padded_parts.parts.push_back({1, 3});
  padded_parts.bytes = "12345";
  EXPECT_THROW((void)CodedChunkMsg::Parse(
                   DecodeOne(EncodeFrame(padded_parts.ToFrame()))),
               WireError);

  // Receiver list must be strictly increasing (it mirrors the group's
  // sorted node order with the sender skipped).
  CodedChunkMsg unsorted;
  unsorted.parts.push_back({2, 1});
  unsorted.parts.push_back({2, 1});
  unsorted.bytes = "x";
  EXPECT_THROW(
      (void)CodedChunkMsg::Parse(DecodeOne(EncodeFrame(unsorted.ToFrame()))),
      WireError);

  // The length-field lie: group(u32) sender(u32) seq(u64) then
  // part count(u32) at offset 16 — claim 2^30 parts with a tiny body.
  CodedChunkMsg chunk;
  chunk.parts.push_back({0, 1});
  chunk.bytes = "z";
  Frame lying = chunk.ToFrame();
  ASSERT_GE(lying.payload.size(), 20u);
  lying.payload[16] = '\x00';
  lying.payload[17] = '\x00';
  lying.payload[18] = '\x00';
  lying.payload[19] = '\x40';
  EXPECT_THROW((void)CodedChunkMsg::Parse(DecodeOne(EncodeFrame(lying))),
               WireError);

  // Truncated body and trailing junk after a CRC-clean re-encode.
  Frame truncated = chunk.ToFrame();
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_THROW((void)CodedChunkMsg::Parse(DecodeOne(EncodeFrame(truncated))),
               WireError);
  CodedAckMsg ack;
  ack.upto = 1;
  Frame junk = ack.ToFrame();
  junk.payload += "junk";
  EXPECT_THROW((void)CodedAckMsg::Parse(DecodeOne(EncodeFrame(junk))),
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
  // 0x63 is far outside the known range; 25 and 26 were the block frames
  // protocol v8 removed.
  for (const std::uint8_t type : {0x63, 25, 26}) {
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
      IsKnownFrameType(static_cast<std::uint8_t>(FrameType::kCodedAck)));
}

}  // namespace
}  // namespace opmr::net
