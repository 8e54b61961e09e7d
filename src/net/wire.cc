#include "net/wire.h"

#include "common/slice.h"

namespace opmr::net {

namespace {

void ExpectType(const Frame& frame, FrameType want) {
  if (frame.type != want) {
    throw WireError(std::string("wire: expected ") + FrameTypeName(want) +
                    " frame, got " + FrameTypeName(frame.type));
  }
}

void AppendBytes(std::string* out, const std::string& bytes) {
  AppendU32(*out, static_cast<std::uint32_t>(bytes.size()));
  out->append(bytes);
}

}  // namespace

bool ConstantTimeEquals(const std::string& secret,
                        const std::string& guess) noexcept {
  // Fold every byte of the guess into one accumulator; no data-dependent
  // branch or early exit.  When lengths differ the result is forced
  // non-zero up front but the scan still covers all of `guess`, so timing
  // depends only on the guess length (which the frame size reveals anyway).
  unsigned char acc =
      secret.size() == guess.size() ? 0 : 1;
  for (std::size_t i = 0; i < guess.size(); ++i) {
    const unsigned char s = secret.empty()
                                ? 0
                                : static_cast<unsigned char>(
                                      secret[i < secret.size() ? i : 0]);
    acc = static_cast<unsigned char>(
        acc | (s ^ static_cast<unsigned char>(guess[i])));
  }
  return acc == 0;
}

const char* WireReader::Take(std::size_t n) {
  if (body_.size() - pos_ < n) {
    throw WireError("wire: truncated message payload");
  }
  const char* p = body_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::U8() {
  return static_cast<std::uint8_t>(*Take(1));
}
std::uint32_t WireReader::U32() { return DecodeU32(Take(4)); }
std::uint64_t WireReader::U64() { return DecodeU64(Take(8)); }
std::int32_t WireReader::I32() {
  return static_cast<std::int32_t>(DecodeU32(Take(4)));
}

std::string WireReader::Bytes() {
  const std::uint32_t n = U32();
  return std::string(Take(n), n);
}

void WireReader::ExpectExhausted(const char* what) const {
  if (pos_ != body_.size()) {
    throw WireError(std::string("wire: trailing bytes after ") + what);
  }
}

// --- Hello -------------------------------------------------------------------

Frame HelloMsg::ToFrame() const {
  Frame frame{FrameType::kHello, {}};
  AppendU32(frame.payload, version);
  AppendBytes(&frame.payload, job);
  AppendU32(frame.payload, static_cast<std::uint32_t>(num_map_tasks));
  AppendU32(frame.payload, static_cast<std::uint32_t>(num_reducers));
  AppendBytes(&frame.payload, worker);
  AppendBytes(&frame.payload, auth);
  return frame;
}

HelloMsg HelloMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kHello);
  WireReader in(frame.payload);
  HelloMsg msg;
  msg.version = in.U32();
  msg.job = in.Bytes();
  msg.num_map_tasks = in.I32();
  msg.num_reducers = in.I32();
  msg.worker = in.Bytes();
  msg.auth = in.Bytes();
  in.ExpectExhausted("hello");
  return msg;
}

// --- Chunk -------------------------------------------------------------------

Frame ChunkMsg::ToFrame() const {
  Frame frame{FrameType::kChunk, {}};
  frame.payload.reserve(29 + bytes.size());
  AppendU32(frame.payload, static_cast<std::uint32_t>(map_task));
  AppendU32(frame.payload, static_cast<std::uint32_t>(reducer));
  frame.payload.push_back(sorted ? 1 : 0);
  AppendU64(frame.payload, records);
  AppendU64(frame.payload, seq);
  AppendBytes(&frame.payload, bytes);
  return frame;
}

ChunkMsg ChunkMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kChunk);
  WireReader in(frame.payload);
  ChunkMsg msg;
  msg.map_task = in.I32();
  msg.reducer = in.I32();
  msg.sorted = in.U8() != 0;
  msg.records = in.U64();
  msg.seq = in.U64();
  msg.bytes = in.Bytes();
  in.ExpectExhausted("chunk");
  return msg;
}

// --- SegmentRef --------------------------------------------------------------

Frame SegmentRefMsg::ToFrame() const {
  Frame frame{FrameType::kSegmentRef, {}};
  AppendU32(frame.payload, static_cast<std::uint32_t>(map_task));
  AppendU32(frame.payload, static_cast<std::uint32_t>(reducer));
  frame.payload.push_back(sorted ? 1 : 0);
  AppendU64(frame.payload, records);
  AppendU64(frame.payload, offset);
  AppendU64(frame.payload, length);
  AppendU64(frame.payload, seq);
  AppendBytes(&frame.payload, path);
  return frame;
}

SegmentRefMsg SegmentRefMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kSegmentRef);
  WireReader in(frame.payload);
  SegmentRefMsg msg;
  msg.map_task = in.I32();
  msg.reducer = in.I32();
  msg.sorted = in.U8() != 0;
  msg.records = in.U64();
  msg.offset = in.U64();
  msg.length = in.U64();
  msg.seq = in.U64();
  msg.path = in.Bytes();
  in.ExpectExhausted("segment_ref");
  return msg;
}

// --- SegmentData -------------------------------------------------------------

Frame SegmentDataMsg::ToFrame() const {
  Frame frame{FrameType::kSegmentData, {}};
  frame.payload.reserve(29 + bytes.size());
  AppendU32(frame.payload, static_cast<std::uint32_t>(map_task));
  AppendU32(frame.payload, static_cast<std::uint32_t>(reducer));
  frame.payload.push_back(sorted ? 1 : 0);
  AppendU64(frame.payload, records);
  AppendU64(frame.payload, seq);
  AppendBytes(&frame.payload, bytes);
  return frame;
}

SegmentDataMsg SegmentDataMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kSegmentData);
  WireReader in(frame.payload);
  SegmentDataMsg msg;
  msg.map_task = in.I32();
  msg.reducer = in.I32();
  msg.sorted = in.U8() != 0;
  msg.records = in.U64();
  msg.seq = in.U64();
  msg.bytes = in.Bytes();
  in.ExpectExhausted("segment_data");
  return msg;
}

// --- MapDone -----------------------------------------------------------------

Frame MapDoneMsg::ToFrame() const {
  Frame frame{FrameType::kMapDone, {}};
  AppendU32(frame.payload, static_cast<std::uint32_t>(map_task));
  AppendU64(frame.payload, input_records);
  AppendU64(frame.payload, output_records);
  AppendU64(frame.payload, seq);
  return frame;
}

MapDoneMsg MapDoneMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kMapDone);
  WireReader in(frame.payload);
  MapDoneMsg msg;
  msg.map_task = in.I32();
  msg.input_records = in.U64();
  msg.output_records = in.U64();
  msg.seq = in.U64();
  in.ExpectExhausted("map_done");
  return msg;
}

// --- Credit ------------------------------------------------------------------

Frame CreditMsg::ToFrame() const {
  Frame frame{FrameType::kCredit, {}};
  AppendU32(frame.payload, static_cast<std::uint32_t>(reducer));
  AppendU32(frame.payload, credits);
  return frame;
}

CreditMsg CreditMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kCredit);
  WireReader in(frame.payload);
  CreditMsg msg;
  msg.reducer = in.I32();
  msg.credits = in.U32();
  in.ExpectExhausted("credit");
  return msg;
}

// --- Gone --------------------------------------------------------------------

Frame GoneMsg::ToFrame() const {
  Frame frame{FrameType::kGone, {}};
  AppendU32(frame.payload, static_cast<std::uint32_t>(reducer));
  return frame;
}

GoneMsg GoneMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kGone);
  WireReader in(frame.payload);
  GoneMsg msg;
  msg.reducer = in.I32();
  in.ExpectExhausted("gone");
  return msg;
}

// --- Abort -------------------------------------------------------------------

Frame AbortMsg::ToFrame() const {
  Frame frame{FrameType::kAbort, {}};
  AppendBytes(&frame.payload, reason);
  return frame;
}

AbortMsg AbortMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kAbort);
  WireReader in(frame.payload);
  AbortMsg msg;
  msg.reason = in.Bytes();
  in.ExpectExhausted("abort");
  return msg;
}

// --- Bye ---------------------------------------------------------------------

Frame ByeMsg::ToFrame() const {
  Frame frame{FrameType::kBye, {}};
  AppendU64(frame.payload, frames_sent);
  AppendU64(frame.payload, bytes_sent);
  AppendU64(frame.payload, retransmits);
  AppendU64(frame.payload, reconnects);
  AppendU64(frame.payload, stall_nanos);
  AppendU64(frame.payload, ack_replays);
  AppendU64(frame.payload, ack_replayed_frames);
  return frame;
}

ByeMsg ByeMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kBye);
  WireReader in(frame.payload);
  ByeMsg msg;
  msg.frames_sent = in.U64();
  msg.bytes_sent = in.U64();
  msg.retransmits = in.U64();
  msg.reconnects = in.U64();
  msg.stall_nanos = in.U64();
  msg.ack_replays = in.U64();
  msg.ack_replayed_frames = in.U64();
  in.ExpectExhausted("bye");
  return msg;
}

// --- Ack ---------------------------------------------------------------------

Frame AckMsg::ToFrame() const {
  Frame frame{FrameType::kAck, {}};
  AppendU64(frame.payload, upto);
  return frame;
}

AckMsg AckMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kAck);
  WireReader in(frame.payload);
  AckMsg msg;
  msg.upto = in.U64();
  in.ExpectExhausted("ack");
  return msg;
}

// --- CodedChunk / CodedAck ---------------------------------------------------

Frame CodedChunkMsg::ToFrame() const {
  Frame frame{FrameType::kCodedChunk, {}};
  AppendU32(frame.payload, group);
  AppendU32(frame.payload, sender);
  AppendU64(frame.payload, seq);
  AppendU32(frame.payload, static_cast<std::uint32_t>(parts.size()));
  for (const CodedPart& part : parts) {
    AppendU32(frame.payload, part.node);
    AppendU32(frame.payload, part.part_len);
  }
  AppendBytes(&frame.payload, bytes);
  return frame;
}

CodedChunkMsg CodedChunkMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kCodedChunk);
  WireReader in(frame.payload);
  CodedChunkMsg msg;
  msg.group = in.U32();
  msg.sender = in.U32();
  msg.seq = in.U64();
  const std::uint32_t part_count = in.U32();
  if (part_count == 0) {
    throw WireError("coded chunk: empty part list");
  }
  if (part_count > kMaxCodedParts) {
    throw WireError("coded chunk: part count " + std::to_string(part_count) +
                    " exceeds cap " + std::to_string(kMaxCodedParts));
  }
  msg.parts.reserve(part_count);
  for (std::uint32_t i = 0; i < part_count; ++i) {
    CodedPart part;
    part.node = in.U32();
    part.part_len = in.U32();
    if (i > 0 && part.node <= msg.parts.back().node) {
      throw WireError("coded chunk: receiver list not strictly increasing");
    }
    msg.parts.push_back(part);
  }
  msg.bytes = in.Bytes();
  in.ExpectExhausted("coded_chunk");
  std::uint32_t longest = 0;
  for (const CodedPart& part : msg.parts) {
    if (part.part_len > msg.bytes.size()) {
      throw WireError("coded chunk: part length " +
                      std::to_string(part.part_len) + " exceeds payload " +
                      std::to_string(msg.bytes.size()));
    }
    if (part.part_len > longest) longest = part.part_len;
  }
  if (longest != msg.bytes.size()) {
    throw WireError("coded chunk: payload length " +
                    std::to_string(msg.bytes.size()) +
                    " does not match longest part " + std::to_string(longest));
  }
  return msg;
}

Frame CodedAckMsg::ToFrame() const {
  Frame frame{FrameType::kCodedAck, {}};
  AppendU64(frame.payload, upto);
  AppendU64(frame.payload, decoded);
  return frame;
}

CodedAckMsg CodedAckMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kCodedAck);
  WireReader in(frame.payload);
  CodedAckMsg msg;
  msg.upto = in.U64();
  msg.decoded = in.U64();
  in.ExpectExhausted("coded_ack");
  return msg;
}

// --- Register ----------------------------------------------------------------

Frame RegisterMsg::ToFrame() const {
  Frame frame{FrameType::kRegister, {}};
  AppendBytes(&frame.payload, worker);
  AppendBytes(&frame.payload, endpoint);
  frame.payload.push_back(static_cast<char>(role));
  AppendBytes(&frame.payload, auth);
  return frame;
}

RegisterMsg RegisterMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kRegister);
  WireReader in(frame.payload);
  RegisterMsg msg;
  msg.worker = in.Bytes();
  msg.endpoint = in.Bytes();
  const std::uint8_t role = in.U8();
  if (role > static_cast<std::uint8_t>(WireRole::kFrontend)) {
    throw WireError("wire: unknown worker role " + std::to_string(role));
  }
  msg.role = static_cast<WireRole>(role);
  msg.auth = in.Bytes();
  in.ExpectExhausted("register");
  return msg;
}

// --- Heartbeat ---------------------------------------------------------------

Frame HeartbeatMsg::ToFrame() const {
  if (load.size() > kMaxLoadEntries) {
    throw WireError("wire: heartbeat load vector has " +
                    std::to_string(load.size()) + " entries (cap " +
                    std::to_string(kMaxLoadEntries) + ")");
  }
  Frame frame{FrameType::kHeartbeat, {}};
  AppendBytes(&frame.payload, worker);
  AppendU64(frame.payload, generation);
  AppendU64(frame.payload, seq);
  AppendU32(frame.payload, static_cast<std::uint32_t>(load.size()));
  for (std::uint32_t v : load) AppendU32(frame.payload, v);
  return frame;
}

HeartbeatMsg HeartbeatMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kHeartbeat);
  WireReader in(frame.payload);
  HeartbeatMsg msg;
  msg.worker = in.Bytes();
  msg.generation = in.U64();
  msg.seq = in.U64();
  const std::uint32_t n = in.U32();
  if (n > kMaxLoadEntries) {
    throw WireError("wire: heartbeat load vector claims " + std::to_string(n) +
                    " entries (cap " + std::to_string(kMaxLoadEntries) + ")");
  }
  msg.load.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) msg.load.push_back(in.U32());
  in.ExpectExhausted("heartbeat");
  return msg;
}

// --- Membership --------------------------------------------------------------

Frame MembershipMsg::ToFrame() const {
  Frame frame{FrameType::kMembership, {}};
  AppendU64(frame.payload, epoch);
  AppendU32(frame.payload, static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    AppendBytes(&frame.payload, e.worker);
    AppendBytes(&frame.payload, e.endpoint);
    frame.payload.push_back(static_cast<char>(e.role));
    AppendU64(frame.payload, e.generation);
    frame.payload.push_back(e.alive ? 1 : 0);
  }
  AppendU64(frame.payload, leader_epoch);
  AppendU32(frame.payload, leader);
  return frame;
}

MembershipMsg MembershipMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kMembership);
  WireReader in(frame.payload);
  MembershipMsg msg;
  msg.epoch = in.U64();
  // No reserve(n): a corrupt count would pre-allocate gigabytes; the
  // bounds-checked reads below cap real work at the payload size.
  const std::uint32_t n = in.U32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Entry e;
    e.worker = in.Bytes();
    e.endpoint = in.Bytes();
    const std::uint8_t role = in.U8();
    if (role > static_cast<std::uint8_t>(WireRole::kFrontend)) {
      throw WireError("wire: unknown worker role " + std::to_string(role));
    }
    e.role = static_cast<WireRole>(role);
    e.generation = in.U64();
    e.alive = in.U8() != 0;
    msg.entries.push_back(std::move(e));
  }
  msg.leader_epoch = in.U64();
  msg.leader = in.U32();
  in.ExpectExhausted("membership");
  return msg;
}

// --- LogAppend ---------------------------------------------------------------

Frame LogAppendMsg::ToFrame() const {
  Frame frame{FrameType::kLogAppend, {}};
  frame.payload.reserve(25 + record.size() + auth.size());
  AppendU64(frame.payload, epoch);
  AppendU64(frame.payload, index);
  frame.payload.push_back(static_cast<char>(record_type));
  AppendBytes(&frame.payload, record);
  AppendBytes(&frame.payload, auth);
  return frame;
}

LogAppendMsg LogAppendMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kLogAppend);
  WireReader in(frame.payload);
  LogAppendMsg msg;
  msg.epoch = in.U64();
  msg.index = in.U64();
  msg.record_type = in.U8();
  msg.record = in.Bytes();
  msg.auth = in.Bytes();
  in.ExpectExhausted("log_append");
  return msg;
}

// --- LogAck ------------------------------------------------------------------

Frame LogAckMsg::ToFrame() const {
  Frame frame{FrameType::kLogAck, {}};
  AppendU32(frame.payload, replica);
  AppendU64(frame.payload, epoch);
  AppendU64(frame.payload, index);
  AppendBytes(&frame.payload, auth);
  return frame;
}

LogAckMsg LogAckMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kLogAck);
  WireReader in(frame.payload);
  LogAckMsg msg;
  msg.replica = in.U32();
  msg.epoch = in.U64();
  msg.index = in.U64();
  msg.auth = in.Bytes();
  in.ExpectExhausted("log_ack");
  return msg;
}

// --- SnapshotOffer -----------------------------------------------------------

Frame SnapshotOfferMsg::ToFrame() const {
  Frame frame{FrameType::kSnapshotOffer, {}};
  frame.payload.reserve(28 + bytes.size() + auth.size());
  AppendU64(frame.payload, epoch);
  AppendU64(frame.payload, index);
  AppendU32(frame.payload, crc);
  AppendBytes(&frame.payload, bytes);
  AppendBytes(&frame.payload, auth);
  return frame;
}

SnapshotOfferMsg SnapshotOfferMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kSnapshotOffer);
  WireReader in(frame.payload);
  SnapshotOfferMsg msg;
  msg.epoch = in.U64();
  msg.index = in.U64();
  msg.crc = in.U32();
  msg.bytes = in.Bytes();
  msg.auth = in.Bytes();
  in.ExpectExhausted("snapshot_offer");
  return msg;
}

// --- Vote --------------------------------------------------------------------

Frame VoteMsg::ToFrame() const {
  Frame frame{FrameType::kVote, {}};
  AppendU32(frame.payload, replica);
  AppendU64(frame.payload, epoch);
  AppendU64(frame.payload, index);
  AppendBytes(&frame.payload, auth);
  return frame;
}

VoteMsg VoteMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kVote);
  WireReader in(frame.payload);
  VoteMsg msg;
  msg.replica = in.U32();
  msg.epoch = in.U64();
  msg.index = in.U64();
  msg.auth = in.Bytes();
  in.ExpectExhausted("vote");
  return msg;
}

// --- LeaderClaim -------------------------------------------------------------

Frame LeaderClaimMsg::ToFrame() const {
  Frame frame{FrameType::kLeaderClaim, {}};
  AppendU32(frame.payload, replica);
  AppendU64(frame.payload, epoch);
  AppendBytes(&frame.payload, endpoint);
  AppendBytes(&frame.payload, auth);
  return frame;
}

LeaderClaimMsg LeaderClaimMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kLeaderClaim);
  WireReader in(frame.payload);
  LeaderClaimMsg msg;
  msg.replica = in.U32();
  msg.epoch = in.U64();
  msg.endpoint = in.Bytes();
  msg.auth = in.Bytes();
  in.ExpectExhausted("leader_claim");
  return msg;
}

// --- SnapshotAnnounce --------------------------------------------------------

Frame SnapshotAnnounceMsg::ToFrame() const {
  Frame frame{FrameType::kSnapshotAnnounce, {}};
  AppendBytes(&frame.payload, job);
  AppendU64(frame.payload, version);
  AppendU64(frame.payload, watermark);
  AppendU64(frame.payload, bytes);
  AppendU32(frame.payload, crc);
  return frame;
}

SnapshotAnnounceMsg SnapshotAnnounceMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kSnapshotAnnounce);
  WireReader in(frame.payload);
  SnapshotAnnounceMsg msg;
  msg.job = in.Bytes();
  msg.version = in.U64();
  msg.watermark = in.U64();
  msg.bytes = in.U64();
  msg.crc = in.U32();
  in.ExpectExhausted("snapshot_announce");
  return msg;
}

// --- SnapshotFetch -----------------------------------------------------------

Frame SnapshotFetchMsg::ToFrame() const {
  Frame frame{FrameType::kSnapshotFetch, {}};
  frame.payload.reserve(21 + job.size() + bytes.size());
  AppendBytes(&frame.payload, job);
  AppendU64(frame.payload, version);
  frame.payload.push_back(reply ? 1 : 0);
  AppendU32(frame.payload, crc);
  AppendBytes(&frame.payload, bytes);
  return frame;
}

SnapshotFetchMsg SnapshotFetchMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kSnapshotFetch);
  WireReader in(frame.payload);
  SnapshotFetchMsg msg;
  msg.job = in.Bytes();
  msg.version = in.U64();
  msg.reply = in.U8() != 0;
  msg.crc = in.U32();
  msg.bytes = in.Bytes();
  in.ExpectExhausted("snapshot_fetch");
  return msg;
}

// --- Query -------------------------------------------------------------------

const char* QueryStatusName(QueryStatus status) noexcept {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kNotFound: return "not_found";
    case QueryStatus::kStale: return "stale";
    case QueryStatus::kThrottled: return "throttled";
    case QueryStatus::kBadRequest: return "bad_request";
  }
  return "unknown";
}

Frame QueryMsg::ToFrame() const {
  Frame frame{FrameType::kQuery, {}};
  AppendU64(frame.payload, id);
  AppendBytes(&frame.payload, tenant);
  frame.payload.push_back(static_cast<char>(op));
  AppendBytes(&frame.payload, key);
  AppendBytes(&frame.payload, end_key);
  AppendU32(frame.payload, limit);
  AppendU64(frame.payload, staleness_budget);
  return frame;
}

QueryMsg QueryMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kQuery);
  WireReader in(frame.payload);
  QueryMsg msg;
  msg.id = in.U64();
  msg.tenant = in.Bytes();
  const std::uint8_t op = in.U8();
  if (op > static_cast<std::uint8_t>(QueryOp::kScan)) {
    throw WireError("wire: unknown query op " + std::to_string(op));
  }
  msg.op = static_cast<QueryOp>(op);
  msg.key = in.Bytes();
  msg.end_key = in.Bytes();
  msg.limit = in.U32();
  msg.staleness_budget = in.U64();
  in.ExpectExhausted("query");
  return msg;
}

// --- QueryResult -------------------------------------------------------------

Frame QueryResultMsg::ToFrame() const {
  Frame frame{FrameType::kQueryResult, {}};
  AppendU64(frame.payload, id);
  frame.payload.push_back(static_cast<char>(status));
  AppendU64(frame.payload, version);
  AppendU64(frame.payload, watermark);
  AppendU64(frame.payload, lag);
  AppendU32(frame.payload, static_cast<std::uint32_t>(rows.size()));
  for (const auto& [key, value] : rows) {
    AppendBytes(&frame.payload, key);
    AppendBytes(&frame.payload, value);
  }
  AppendBytes(&frame.payload, error);
  return frame;
}

QueryResultMsg QueryResultMsg::Parse(const Frame& frame) {
  ExpectType(frame, FrameType::kQueryResult);
  WireReader in(frame.payload);
  QueryResultMsg msg;
  msg.id = in.U64();
  const std::uint8_t status = in.U8();
  if (status > static_cast<std::uint8_t>(QueryStatus::kBadRequest)) {
    throw WireError("wire: unknown query status " + std::to_string(status));
  }
  msg.status = static_cast<QueryStatus>(status);
  msg.version = in.U64();
  msg.watermark = in.U64();
  msg.lag = in.U64();
  // No reserve(n): a corrupt count would pre-allocate gigabytes; the
  // bounds-checked reads below cap real work at the payload size.
  const std::uint32_t n = in.U32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = in.Bytes();
    std::string value = in.Bytes();
    msg.rows.emplace_back(std::move(key), std::move(value));
  }
  msg.error = in.Bytes();
  in.ExpectExhausted("query_result");
  return msg;
}

}  // namespace opmr::net
