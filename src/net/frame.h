// Length-prefixed, CRC-32C-protected message framing for the shuffle
// transport.
//
// Wire layout of one frame (little-endian):
//
//   [u32 magic 'OPFR'] [u8 type] [u8 flags] [u16 reserved]
//   [u32 payload_len]  [u32 crc] [payload_len payload bytes]
//
// `crc` is CRC-32C (Castagnoli — hardware-accelerated where the CPU can,
// see common/crc32c.h) over type, flags, reserved, and the payload — every byte
// after the magic except the length and the checksum itself.  A corrupted
// length either shifts the CRC window (caught as kBadCrc), exceeds the
// payload cap (kOversized), or asks for bytes that never arrive (the
// stream stalls at kNeedMore); no single-bit corruption can yield a frame
// that decodes successfully.
//
// FrameDecoder is incremental: feed it arbitrary byte slices as they
// arrive from a socket and drain complete frames with Next().  Any error
// poisons the decoder — framing is stateful, so after one bad header the
// rest of the stream cannot be trusted and the connection must be dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace opmr::net {

enum class FrameType : std::uint8_t {
  kHello = 1,        // first frame on a connection: peer introduction
  kChunk = 2,        // pushed in-memory map-output chunk
  kSegmentRef = 3,   // file-segment descriptor (shared-filesystem peers)
  kSegmentData = 4,  // file-segment payload shipped inline (remote peers)
  kMapDone = 5,      // one map task completed (with its record stats)
  kCredit = 6,       // back-pressure credit grant, reducer consumed a chunk
  kGone = 7,         // a reducer terminally failed; stop pushing to it
  kAbort = 8,        // sender's job is failing; peer should unwind
  kBye = 9,          // orderly close, carries the sender's wire stats
  kRegister = 10,    // worker joins the coordinator's group registry
  kHeartbeat = 11,   // lease renewal for a registered worker
  kMembership = 12,  // coordinator's worker-group view (epoch + entries)
  kAck = 13,         // cumulative receipt ack for sequenced data frames
  kSnapshotAnnounce = 14,  // publisher: a new snapshot version is servable
  kSnapshotFetch = 15,     // replica <-> publisher: image request / bytes
  kQuery = 16,             // client -> frontend: point / top-k / scan
  kQueryResult = 17,       // frontend -> client: rows or rejection status
};

[[nodiscard]] const char* FrameTypeName(FrameType type) noexcept;
[[nodiscard]] bool IsKnownFrameType(std::uint8_t type) noexcept;

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

inline constexpr std::uint32_t kFrameMagic = 0x5246504Fu;  // "OPFR"
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Generous cap: chunks are ~hundreds of KiB, segments a few MiB.  Anything
// bigger is a corrupt length field, not a message.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

// Serializes `frame` onto the end of `out`.  Throws std::length_error when
// the payload exceeds kMaxFramePayload.
void AppendFrame(std::string* out, const Frame& frame);
[[nodiscard]] std::string EncodeFrame(const Frame& frame);

enum class DecodeStatus {
  kOk,        // a frame was produced
  kNeedMore,  // buffered bytes form no complete frame yet
  kBadMagic,  // stream is not frame-aligned / corrupt header
  kBadType,   // unknown frame type byte
  kOversized, // declared payload length exceeds kMaxFramePayload
  kBadCrc,    // checksum mismatch over type/flags/reserved/payload
};

[[nodiscard]] const char* DecodeStatusName(DecodeStatus status) noexcept;

class FrameDecoder {
 public:
  // Buffers `size` more stream bytes.  Cheap; no parsing happens here.
  void Feed(const char* data, std::size_t size);

  // Attempts to decode the next frame from the buffered bytes.  kOk fills
  // `*out`; kNeedMore means wait for more input; any other status poisons
  // the decoder permanently (subsequent calls return the same error).
  [[nodiscard]] DecodeStatus Next(Frame* out);

  [[nodiscard]] bool poisoned() const noexcept {
    return error_ != DecodeStatus::kOk;
  }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  // decoded prefix, compacted lazily
  DecodeStatus error_ = DecodeStatus::kOk;  // kOk = healthy
};

}  // namespace opmr::net
