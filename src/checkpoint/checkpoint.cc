#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "storage/codec.h"
#include "storage/io.h"
#include "storage/io_stats.h"

namespace opmr {

namespace {

constexpr char kMagic[8] = {'O', 'P', 'M', 'R', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint8_t kFlagCompressed = 0x01;

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string SanitizeForFilename(const std::string& name) {
  std::string out = name.empty() ? std::string("job") : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!ok) c = '-';
  }
  return out;
}

}  // namespace

std::string SerializeCheckpointImage(const CheckpointImage& image) {
  std::string body;
  AppendU64(body, image.watermark);
  AppendU32(body, static_cast<std::uint32_t>(image.feeds.size()));
  for (const auto& [feed, records] : image.feeds) {
    AppendU32(body, feed);
    AppendU64(body, records);
  }
  AppendU32(body, static_cast<std::uint32_t>(image.spill_files.size()));
  for (const auto& spill : image.spill_files) {
    AppendBytes(body, spill.path);
    AppendU64(body, spill.committed_bytes);
  }
  AppendU32(body, static_cast<std::uint32_t>(image.sketch.size()));
  for (const auto& entry : image.sketch) {
    AppendBytes(body, entry.key);
    AppendU64(body, entry.count);
    AppendU64(body, entry.error);
  }
  AppendU64(body, image.sketch_stream_length);
  AppendU64(body, static_cast<std::uint64_t>(image.entries.size()));
  for (const auto& entry : image.entries) {
    AppendU32(body, static_cast<std::uint32_t>(entry.key.size()));
    AppendU32(body, static_cast<std::uint32_t>(entry.state.size()));
    body.push_back(entry.early_emitted ? '\1' : '\0');
    body.append(entry.key);
    body.append(entry.state);
  }
  return body;
}

CheckpointImage ParseCheckpointImage(const std::string& body) {
  ByteReader in(body);
  CheckpointImage image;
  image.watermark = in.U64();
  // Every count is checked against the bytes left (each item's minimum
  // encoded size) before anything is reserved from it.
  image.feeds.resize(in.Count(4 + 8));
  for (auto& [feed, records] : image.feeds) {
    feed = in.U32();
    records = in.U64();
  }
  image.spill_files.resize(in.Count(4 + 8));
  for (auto& spill : image.spill_files) {
    spill.path = in.Bytes();
    spill.committed_bytes = in.U64();
  }
  image.sketch.resize(in.Count(4 + 8 + 8));
  for (auto& entry : image.sketch) {
    entry.key = in.Bytes();
    entry.count = in.U64();
    entry.error = in.U64();
  }
  image.sketch_stream_length = in.U64();
  image.entries.resize(in.Count<std::uint64_t>(4 + 4 + 1));
  for (auto& entry : image.entries) {
    const std::uint32_t klen = in.U32();
    const std::uint32_t slen = in.U32();
    entry.early_emitted = in.U8() != 0;
    entry.key = in.Bytes(klen);
    entry.state = in.Bytes(slen);
  }
  in.ExpectExhausted("checkpoint image");
  return image;
}

std::string CheckpointJobPrefix(const std::string& job) {
  return SanitizeForFilename(job) + "_w";
}

CheckpointManager::CheckpointManager(std::filesystem::path dir,
                                     const std::string& job, int worker,
                                     CheckpointOptions options,
                                     MetricRegistry* metrics)
    : dir_(std::move(dir)),
      prefix_(SanitizeForFilename(job) + "_w" + std::to_string(worker) + "_"),
      options_(options),
      metrics_(metrics),
      last_write_seconds_(MonotonicSeconds()) {
  if (options_.retain < 1) {
    throw std::invalid_argument("CheckpointOptions: retain must be >= 1");
  }
  std::filesystem::create_directories(dir_);
}

std::filesystem::path CheckpointManager::PathFor(std::uint64_t seq) const {
  return dir_ / (prefix_ + std::to_string(seq) + ".ckpt");
}

std::vector<std::pair<std::uint64_t, std::filesystem::path>>
CheckpointManager::ListOnDisk() const {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix_, 0) != 0) continue;
    const std::string rest = name.substr(prefix_.size());
    const auto dot = rest.find(".ckpt");
    if (dot == std::string::npos || dot + 5 != rest.size()) continue;
    try {
      found.emplace_back(std::stoull(rest.substr(0, dot)), entry.path());
    } catch (const std::exception&) {
      // Not one of ours (non-numeric seq); ignore.
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

void CheckpointManager::Reset() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix_, 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  next_seq_ = 1;
  retained_.clear();
  records_since_ = 0;
  bytes_since_ = 0;
  last_write_seconds_ = MonotonicSeconds();
}

void CheckpointManager::OnProgress(std::uint64_t records,
                                   std::uint64_t bytes) {
  records_since_ += records;
  bytes_since_ += bytes;
}

bool CheckpointManager::Due() const {
  if (!options_.enabled) return false;
  if (options_.interval_records > 0 &&
      records_since_ >= options_.interval_records) {
    return true;
  }
  if (options_.interval_bytes > 0 && bytes_since_ >= options_.interval_bytes) {
    return true;
  }
  if (options_.interval_seconds > 0.0 &&
      MonotonicSeconds() - last_write_seconds_ >= options_.interval_seconds) {
    return true;
  }
  return false;
}

std::uint64_t CheckpointManager::Write(CheckpointImage* image) {
  image->seq = next_seq_;
  std::string payload = SerializeCheckpointImage(*image);
  std::uint8_t flags = 0;
  if (options_.compress) {
    payload = OzCompress(payload);
    flags |= kFlagCompressed;
  }
  const std::uint32_t crc = Crc32c(payload.data(), payload.size());

  const auto final_path = PathFor(image->seq);
  const auto tmp_path =
      std::filesystem::path(final_path.string() + ".tmp");
  {
    SequentialWriter writer(tmp_path,
                            IoChannel(metrics_, device::kCheckpointWrite));
    writer.Append(Slice(kMagic, sizeof(kMagic)));
    writer.AppendU32(kVersion);
    writer.Append(Slice(reinterpret_cast<const char*>(&flags), 1));
    writer.AppendU64(image->seq);
    writer.AppendU32(crc);
    writer.AppendU64(payload.size());
    writer.Append(payload);
    writer.Flush(/*sync=*/true);
    writer.Close();
  }
  // The rename is the commit point: loaders only ever see a fully-written,
  // synced image or none at all.
  std::filesystem::rename(tmp_path, final_path);

  ++next_seq_;
  ++written_;
  retained_.emplace_back(image->seq, image->watermark);
  while (static_cast<int>(retained_.size()) > options_.retain) {
    std::error_code ec;
    std::filesystem::remove(PathFor(retained_.front().first), ec);
    retained_.erase(retained_.begin());
  }

  records_since_ = 0;
  bytes_since_ = 0;
  last_write_seconds_ = MonotonicSeconds();
  if (metrics_ != nullptr) metrics_->Get(kCheckpointsWritten)->Increment();
  const std::uint64_t bytes =
      sizeof(kMagic) + 4 + 1 + 8 + 4 + 8 + payload.size();
  return bytes;
}

std::optional<CheckpointImage> CheckpointManager::LoadLatest() {
  const double begin = MonotonicSeconds();
  auto on_disk = ListOnDisk();
  for (auto it = on_disk.rbegin(); it != on_disk.rend(); ++it) {
    try {
      SequentialReader reader(it->second,
                              IoChannel(metrics_, device::kCheckpointRead));
      char magic[sizeof(kMagic)];
      if (!reader.ReadExact(magic, sizeof(magic)) ||
          !std::equal(magic, magic + sizeof(kMagic), kMagic)) {
        throw std::runtime_error("bad checkpoint magic");
      }
      std::uint32_t version = 0;
      if (!reader.ReadU32(&version) || version != kVersion) {
        throw std::runtime_error("unsupported checkpoint version");
      }
      char flags_byte = 0;
      if (!reader.ReadExact(&flags_byte, 1)) {
        throw std::runtime_error("truncated checkpoint header");
      }
      std::uint64_t seq = 0;
      std::uint32_t crc = 0;
      std::uint64_t payload_size = 0;
      if (!reader.ReadU64(&seq) || !reader.ReadU32(&crc) ||
          !reader.ReadU64(&payload_size)) {
        throw std::runtime_error("truncated checkpoint header");
      }
      if (payload_size > reader.FileSize()) {
        throw std::runtime_error("checkpoint payload size exceeds file");
      }
      std::string payload(payload_size, '\0');
      if (payload_size > 0 && !reader.ReadExact(payload.data(), payload_size)) {
        throw std::runtime_error("truncated checkpoint payload");
      }
      if (Crc32c(payload.data(), payload.size()) != crc) {
        throw std::runtime_error("checkpoint CRC mismatch");
      }
      if ((static_cast<std::uint8_t>(flags_byte) & kFlagCompressed) != 0) {
        payload = OzDecompress(payload);
      }
      CheckpointImage image = ParseCheckpointImage(payload);
      image.seq = seq;
      // Continue numbering past everything on disk so a post-recovery write
      // never collides with (or is shadowed by) an existing file.
      next_seq_ = std::max(next_seq_, on_disk.back().first + 1);
      if (metrics_ != nullptr) {
        metrics_->Get(kCheckpointsLoaded)->Increment();
        metrics_->Get(kCheckpointRecoverUs)
            ->Add(static_cast<std::int64_t>(
                (MonotonicSeconds() - begin) * 1e6));
      }
      return image;
    } catch (const std::exception&) {
      // Corrupt or torn image: count it and fall back to the next-oldest.
      if (metrics_ != nullptr) metrics_->Get("checkpoint.corrupt")->Increment();
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Get(kCheckpointRecoverUs)
        ->Add(static_cast<std::int64_t>((MonotonicSeconds() - begin) * 1e6));
  }
  return std::nullopt;
}

std::optional<std::uint64_t> CheckpointManager::OldestRetainedWatermark()
    const {
  if (retained_.empty()) return std::nullopt;
  return retained_.front().second;
}

int CheckpointManager::SweepFinishedJobs(const std::filesystem::path& dir,
                                         const std::string& finished_job) {
  // Match "<job prefix><digits>_<digits>.ckpt" (optionally "+ .tmp" for a
  // commit interrupted mid-rename), never a mere job-name prefix collision:
  // job "a" must not sweep job "a-long"'s images because both sanitize to
  // names starting with "a".  Serve-plane snapshots live under the
  // "<job>.serve" pseudo-job and are reclaimed by the same sweep.
  const std::string prefixes[] = {
      CheckpointJobPrefix(finished_job),
      CheckpointJobPrefix(finished_job + kServeJobSuffix)};
  auto matches_prefix = [&](const std::string& name, const std::string& prefix) {
    if (name.rfind(prefix, 0) != 0) return false;
    std::string rest = name.substr(prefix.size());
    for (const char* suffix : {".ckpt.tmp", ".ckpt"}) {
      const std::string s(suffix);
      if (rest.size() > s.size() &&
          rest.compare(rest.size() - s.size(), s.size(), s) == 0) {
        rest.resize(rest.size() - s.size());
        const auto underscore = rest.find('_');
        if (underscore == std::string::npos || underscore == 0 ||
            underscore + 1 == rest.size()) {
          return false;
        }
        const auto digits = [](const std::string& t) {
          return !t.empty() && std::all_of(t.begin(), t.end(), [](char c) {
            return c >= '0' && c <= '9';
          });
        };
        return digits(rest.substr(0, underscore)) &&
               digits(rest.substr(underscore + 1));
      }
    }
    return false;
  };
  auto is_image_of_job = [&](const std::string& name) {
    for (const std::string& prefix : prefixes) {
      if (matches_prefix(name, prefix)) return true;
    }
    return false;
  };
  int removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (is_image_of_job(entry.path().filename().string())) {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace opmr
