// Block-compressed run files: the framed-record run format wrapped in OZ
// compressed blocks.  Records never span blocks, so the reader inflates
// one block at a time and streams frames out of it.
//
// File layout:  ([u32 compressed_size][compressed block])*
// where each inflated block is a sequence of standard record frames.
//
// The IoChannel sees only the *compressed* bytes — exactly what a bench
// measuring spill I/O volume should observe.
#pragma once

#include <filesystem>
#include <string>

#include "storage/codec.h"
#include "storage/io.h"
#include "storage/record_stream.h"
#include "storage/run_format.h"

namespace opmr {

class CompressedRunWriter final : public RecordSink {
 public:
  static constexpr std::size_t kBlockBytes = 64u << 10;

  CompressedRunWriter(const std::filesystem::path& path, IoChannel channel)
      : writer_(path, channel) {}

  void Append(Slice key, Slice value) override {
    AppendU32(block_, static_cast<std::uint32_t>(key.size()));
    AppendU32(block_, static_cast<std::uint32_t>(value.size()));
    block_.append(key.data(), key.size());
    block_.append(value.data(), value.size());
    ++num_records_;
    if (block_.size() >= kBlockBytes) FlushBlock();
  }

  // Writes the current (possibly short) block out; the file stays a valid
  // block sequence, the reader just sees one undersized block.
  void Flush() override {
    FlushBlock();
    writer_.Flush(false);
  }

  void Close() override {
    FlushBlock();
    writer_.Close();
  }

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
  void FlushBlock() {
    if (block_.empty()) return;
    const std::string compressed = OzCompress(block_);
    writer_.AppendU32(static_cast<std::uint32_t>(compressed.size()));
    writer_.Append(compressed);
    block_.clear();
  }

  SequentialWriter writer_;
  std::string block_;
  std::uint64_t num_records_ = 0;
};

class CompressedRunReader final : public RecordStream {
 public:
  CompressedRunReader(const std::filesystem::path& path, IoChannel channel)
      : reader_(path, channel) {}

  bool Next() override {
    while (pos_ >= block_.size()) {
      if (!LoadBlock()) return false;
    }
    if (pos_ + 8 > block_.size()) {
      throw std::runtime_error("CompressedRunReader: truncated frame header");
    }
    const std::uint32_t klen = DecodeU32(block_.data() + pos_);
    const std::uint32_t vlen = DecodeU32(block_.data() + pos_ + 4);
    pos_ += 8;
    if (pos_ + klen + vlen > block_.size()) {
      throw std::runtime_error("CompressedRunReader: frame crosses block");
    }
    key_ = Slice(block_.data() + pos_, klen);
    value_ = Slice(block_.data() + pos_ + klen, vlen);
    pos_ += klen + vlen;
    return true;
  }

  [[nodiscard]] Slice key() const override { return key_; }
  [[nodiscard]] Slice value() const override { return value_; }

 private:
  bool LoadBlock() {
    std::uint32_t compressed_size = 0;
    if (!reader_.ReadU32(&compressed_size)) return false;
    if (!reader_.HasBytes(compressed_size)) {
      throw std::runtime_error("CompressedRunReader: truncated block");
    }
    compressed_.resize(compressed_size);
    if (compressed_size > 0 &&
        !reader_.ReadExact(compressed_.data(), compressed_size)) {
      throw std::runtime_error("CompressedRunReader: truncated block");
    }
    block_ = OzDecompress(Slice(compressed_.data(), compressed_.size()));
    pos_ = 0;
    return true;
  }

  SequentialReader reader_;
  std::vector<char> compressed_;
  std::string block_;
  std::size_t pos_ = 0;
  Slice key_;
  Slice value_;
};

}  // namespace opmr
