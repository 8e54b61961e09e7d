#include "net/wire.h"

namespace opmr::net {

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

namespace {

// Checks a decoded message's cross-field invariants (most have none).
void CheckDecoded(const auto&) {}

void CheckDecoded(const HelloMsg& msg) {
  if (msg.version != kProtocolVersion) {
    throw WireError("wire: peer speaks protocol v" +
                    std::to_string(msg.version) + ", this build speaks v" +
                    std::to_string(kProtocolVersion));
  }
}

template <typename Msg>
Frame Encode(FrameType type, const Msg& msg) {
  return Frame{type, EncodeFields(msg)};
}

// `F` is const Frame& or Frame; from an rvalue frame a trailing byte-string
// field takes the payload buffer instead of a copy.
template <typename Msg, typename F>
Msg Decode(FrameType type, F&& frame) {
  if (frame.type != type) {
    throw WireError(std::string("wire: expected ") + FrameTypeName(type) +
                    " frame, got " + FrameTypeName(frame.type));
  }
  Msg msg;
  DecodeFields(std::forward<F>(frame).payload, msg, FrameTypeName(type));
  CheckDecoded(msg);
  return msg;
}

}  // namespace

// --- Field lists -------------------------------------------------------------
//
// One per message: the order of the fields is the payload layout.  They are
// namespace-scope (not in the anonymous namespace) so the codec's
// argument-dependent lookup finds them.

// Defines Msg::ToFrame and Msg::Parse from Msg's field list.
#define OPMR_WIRE_MESSAGE(Msg, frame_type)            \
  Frame Msg::ToFrame() const {                        \
    return Encode(FrameType::frame_type, *this);      \
  }                                                   \
  Msg Msg::Parse(const Frame& frame) {                \
    return Decode<Msg>(FrameType::frame_type, frame); \
  }

static void Fields(Like<HelloMsg> auto& m, auto& io) {
  io(m.version, m.job, m.num_map_tasks, m.num_reducers, m.worker, m.auth);
}
OPMR_WIRE_MESSAGE(HelloMsg, kHello)

static void Fields(Like<ChunkMsg> auto& m, auto& io) {
  io(m.map_task, m.reducer, m.sorted, m.records, m.seq, m.bytes);
}
OPMR_WIRE_MESSAGE(ChunkMsg, kChunk)
ChunkMsg ChunkMsg::Parse(Frame&& frame) {
  return Decode<ChunkMsg>(FrameType::kChunk, std::move(frame));
}

static void Fields(Like<SegmentRefMsg> auto& m, auto& io) {
  io(m.map_task, m.reducer, m.sorted, m.records, m.offset, m.length, m.seq,
     m.path);
}
OPMR_WIRE_MESSAGE(SegmentRefMsg, kSegmentRef)

static void Fields(Like<SegmentDataMsg> auto& m, auto& io) {
  io(m.map_task, m.reducer, m.sorted, m.records, m.seq, m.bytes);
}
OPMR_WIRE_MESSAGE(SegmentDataMsg, kSegmentData)

static void Fields(Like<MapDoneMsg> auto& m, auto& io) {
  io(m.map_task, m.input_records, m.output_records, m.seq);
}
OPMR_WIRE_MESSAGE(MapDoneMsg, kMapDone)

static void Fields(Like<CreditMsg> auto& m, auto& io) {
  io(m.reducer, m.credits);
}
OPMR_WIRE_MESSAGE(CreditMsg, kCredit)

static void Fields(Like<AckMsg> auto& m, auto& io) { io(m.upto); }
OPMR_WIRE_MESSAGE(AckMsg, kAck)

static void Fields(Like<GoneMsg> auto& m, auto& io) { io(m.reducer); }
OPMR_WIRE_MESSAGE(GoneMsg, kGone)

static void Fields(Like<AbortMsg> auto& m, auto& io) { io(m.reason); }
OPMR_WIRE_MESSAGE(AbortMsg, kAbort)

static void Fields(Like<ByeMsg> auto& m, auto& io) {
  io(m.frames_sent, m.bytes_sent, m.retransmits, m.reconnects, m.stall_nanos,
     m.ack_replays, m.ack_replayed_frames);
}
OPMR_WIRE_MESSAGE(ByeMsg, kBye)

static void Fields(Like<RegisterMsg> auto& m, auto& io) {
  io(m.worker, m.endpoint, m.role, m.auth);
}
OPMR_WIRE_MESSAGE(RegisterMsg, kRegister)

static void Fields(Like<MembershipMsg::Entry> auto& m, auto& io) {
  io(m.worker, m.endpoint, m.role);
}

static void Fields(Like<MembershipMsg> auto& m, auto& io) {
  io(m.epoch, m.entries);
}
OPMR_WIRE_MESSAGE(MembershipMsg, kMembership)

static void Fields(Like<SnapshotAnnounceMsg> auto& m, auto& io) {
  io(m.job, m.version, m.watermark, m.bytes, m.crc);
}
OPMR_WIRE_MESSAGE(SnapshotAnnounceMsg, kSnapshotAnnounce)

static void Fields(Like<SnapshotFetchMsg> auto& m, auto& io) {
  io(m.job, m.version, m.reply, m.crc, m.bytes);
}
OPMR_WIRE_MESSAGE(SnapshotFetchMsg, kSnapshotFetch)

static void Fields(Like<QueryMsg> auto& m, auto& io) {
  io(m.id, m.tenant, m.op, m.key, m.end_key, m.limit, m.staleness_budget);
}
OPMR_WIRE_MESSAGE(QueryMsg, kQuery)

static void Fields(Like<QueryResultMsg> auto& m, auto& io) {
  io(m.id, m.status, m.version, m.watermark, m.lag, m.rows, m.error);
}
OPMR_WIRE_MESSAGE(QueryResultMsg, kQueryResult)

#undef OPMR_WIRE_MESSAGE

}  // namespace opmr::net
