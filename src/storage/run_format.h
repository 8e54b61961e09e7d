// On-disk record framing shared by map-output segments, reduce spills and
// merge runs:  [u32 key_len][u32 value_len][key bytes][value bytes]*
//
// A "run" is a sequence of framed records; the sort-merge path additionally
// guarantees non-decreasing key order inside a run, which RunReader exposes
// but does not enforce (the merger validates it in debug builds).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "common/slice.h"
#include "storage/io.h"
#include "storage/record_stream.h"

namespace opmr {

// Sink interface over (key, value) record writers, so reducers can swap a
// plain RunWriter for a compressed one transparently.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void Append(Slice key, Slice value) = 0;
  // Pushes buffered frames to the file so bytes_written() names a durable
  // prefix — what a checkpoint manifest records as the run's committed
  // length.  The sink stays open for further appends.
  virtual void Flush() {}
  virtual void Close() = 0;
  [[nodiscard]] virtual std::uint64_t bytes_written() const = 0;
  [[nodiscard]] virtual std::uint64_t num_records() const = 0;
};

class RunWriter final : public RecordSink {
 public:
  RunWriter(const std::filesystem::path& path, IoChannel channel,
            std::size_t buffer_bytes = 1 << 16)
      : writer_(path, channel, buffer_bytes) {}

  void Append(Slice key, Slice value) override {
    writer_.AppendFrame(key, value);
    ++num_records_;
  }

  void Flush(bool sync) { writer_.Flush(sync); }
  void Flush() override { writer_.Flush(false); }
  void Close() override { writer_.Close(); }

  [[nodiscard]] std::uint64_t bytes_written() const override {
    return writer_.bytes_written();
  }
  [[nodiscard]] std::uint64_t num_records() const override {
    return num_records_;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return writer_.path();
  }

 private:
  SequentialWriter writer_;
  std::uint64_t num_records_ = 0;
};

class RunReader final : public RecordStream {
 public:
  RunReader(const std::filesystem::path& path, IoChannel channel)
      : reader_(path, channel) {}

  // Reads a byte range [offset, offset+length) of the file as the run
  // (used for partition segments inside a map-output file).  length of 0
  // means "until EOF".
  void Restrict(std::uint64_t offset, std::uint64_t length) {
    reader_.Seek(offset);
    remaining_ = length == 0 ? reader_.FileSize() - offset : length;
    restricted_ = true;
  }

  // Advances to the next record.  Returns false at end of run.
  bool Next() override {
    if (restricted_ && remaining_ == 0) return false;
    std::uint32_t klen = 0;
    if (!reader_.ReadU32(&klen)) return false;
    std::uint32_t vlen = 0;
    if (!reader_.ReadU32(&vlen)) {
      throw std::runtime_error("RunReader: truncated record header");
    }
    const std::uint64_t len = std::uint64_t{klen} + vlen;
    if (restricted_) {
      if (8 + len > remaining_) {
        throw std::runtime_error("RunReader: record crosses segment boundary");
      }
      remaining_ -= 8 + len;
    }
    // A corrupt length must not become an allocation or a key that points
    // past the buffer.
    if (!reader_.HasBytes(len)) {
      throw std::runtime_error("RunReader: truncated record payload (" +
                               std::to_string(len) +
                               " bytes declared past the end of the file)");
    }
    buffer_.resize(len);
    if (len > 0 && !reader_.ReadExact(buffer_.data(), len)) {
      throw std::runtime_error("RunReader: truncated record payload");
    }
    key_ = Slice(buffer_.data(), klen);
    value_ = Slice(buffer_.data() + klen, vlen);
    return true;
  }

  // Valid until the following Next() call.
  [[nodiscard]] Slice key() const override { return key_; }
  [[nodiscard]] Slice value() const override { return value_; }

 private:
  SequentialReader reader_;
  std::vector<char> buffer_;
  Slice key_;
  Slice value_;
  bool restricted_ = false;
  std::uint64_t remaining_ = 0;
};

}  // namespace opmr
