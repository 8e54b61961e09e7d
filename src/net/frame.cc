#include "net/frame.h"

#include <stdexcept>

#include "common/crc32c.h"
#include "common/slice.h"

namespace opmr::net {

const char* FrameTypeName(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kChunk: return "chunk";
    case FrameType::kSegmentRef: return "segment_ref";
    case FrameType::kSegmentData: return "segment_data";
    case FrameType::kMapDone: return "map_done";
    case FrameType::kCredit: return "credit";
    case FrameType::kGone: return "gone";
    case FrameType::kAbort: return "abort";
    case FrameType::kBye: return "bye";
    case FrameType::kRegister: return "register";
    case FrameType::kMembership: return "membership";
    case FrameType::kAck: return "ack";
    case FrameType::kSnapshotAnnounce: return "snapshot_announce";
    case FrameType::kSnapshotFetch: return "snapshot_fetch";
    case FrameType::kQuery: return "query";
    case FrameType::kQueryResult: return "query_result";
  }
  return "unknown";
}

bool IsKnownFrameType(std::uint8_t type) noexcept {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kQueryResult) &&
         type != 11;  // the retired heartbeat
}

void AppendFrame(std::string* out, const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw std::length_error("net frame payload exceeds cap: " +
                            std::to_string(frame.payload.size()));
  }
  const char covered[4] = {static_cast<char>(frame.type), /*flags=*/0,
                           /*reserved=*/0, 0};
  std::uint32_t crc = Crc32cUpdate(kCrc32cInit, covered, sizeof(covered));
  crc = Crc32cFinal(
      Crc32cUpdate(crc, frame.payload.data(), frame.payload.size()));
  AppendU32(*out, kFrameMagic);
  out->append(covered, sizeof(covered));
  AppendU32(*out, static_cast<std::uint32_t>(frame.payload.size()));
  AppendU32(*out, crc);
  out->append(frame.payload);
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  AppendFrame(&out, frame);
  return out;
}

void FrameDecoder::Feed(const char* data, std::size_t size) {
  // Compact the decoded prefix before it dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

DecodeStatus FrameDecoder::Next(Frame* out) {
  if (error_ != DecodeStatus::kOk) return error_;
  const char* base = buffer_.data() + consumed_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  if (DecodeU32(base) != kFrameMagic) {
    return error_ = DecodeStatus::kBadMagic;
  }
  const std::uint8_t type_byte = static_cast<std::uint8_t>(base[4]);
  if (!IsKnownFrameType(type_byte)) {
    return error_ = DecodeStatus::kBadType;
  }
  const std::uint32_t len = DecodeU32(base + 8);
  if (len > kMaxFramePayload) {
    return error_ = DecodeStatus::kOversized;
  }
  if (avail < kFrameHeaderBytes + len) return DecodeStatus::kNeedMore;
  const std::uint32_t expected_crc = DecodeU32(base + 12);
  std::uint32_t crc = Crc32cUpdate(kCrc32cInit, base + 4, 4);
  crc = Crc32cFinal(Crc32cUpdate(crc, base + kFrameHeaderBytes, len));
  if (crc != expected_crc) {
    return error_ = DecodeStatus::kBadCrc;
  }
  out->type = static_cast<FrameType>(type_byte);
  out->payload.assign(base + kFrameHeaderBytes, len);
  consumed_ += kFrameHeaderBytes + len;
  return DecodeStatus::kOk;
}

const char* DecodeStatusName(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need_more";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadType: return "bad_type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadCrc: return "bad_crc";
  }
  return "unknown";
}

}  // namespace opmr::net
