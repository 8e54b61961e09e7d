#include "engine/shuffle.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "storage/io.h"

namespace opmr {

ShuffleService::ShuffleService(int num_map_tasks, int num_reducers,
                               MetricRegistry* metrics,
                               std::size_t push_queue_chunks)
    : num_map_tasks_(num_map_tasks),
      num_reducers_(num_reducers),
      push_queue_chunks_(push_queue_chunks),
      shuffle_read_(metrics, device::kShuffleRead),
      retain_write_(metrics, device::kRetainWrite),
      replay_records_(metrics != nullptr
                          ? metrics->Get(kReplayRecords)
                          : nullptr),
      queues_(num_reducers) {
  if (num_reducers <= 0) {
    throw std::invalid_argument("ShuffleService: need at least one reducer");
  }
}

void ShuffleService::Enqueue(int reducer, ShuffleItem item) {
  {
    std::scoped_lock lock(mu_);
    queues_.at(reducer).items.push_back(std::move(item));
    ++activity_;
  }
  cv_.notify_all();
}

void ShuffleService::RegisterFile(const MapOutputFile& file) {
  for (int r = 0; r < static_cast<int>(file.partitions.size()); ++r) {
    const Segment& seg = file.partitions[r];
    if (seg.bytes == 0) continue;
    ShuffleItem item;
    item.map_task = file.map_task;
    item.sorted = file.sorted;
    item.records = seg.records;
    item.from_file = true;
    item.path = file.path;
    item.segment = seg;
    Enqueue(r, std::move(item));
  }
}

void ShuffleService::RegisterSegment(int map_task,
                                     const std::filesystem::path& path,
                                     int reducer, const Segment& segment,
                                     bool sorted) {
  if (segment.bytes == 0) return;
  ShuffleItem item;
  item.map_task = map_task;
  item.sorted = sorted;
  item.records = segment.records;
  item.from_file = true;
  item.path = path;
  item.segment = segment;
  Enqueue(reducer, std::move(item));
}

PushResult ShuffleService::TryPush(int reducer, ShuffleItem chunk) {
  {
    std::scoped_lock lock(mu_);
    ReducerQueue& q = queues_.at(reducer);
    if (q.gone) return PushResult::kReducerGone;
    if (q.pushed_outstanding >= push_queue_chunks_) return PushResult::kBusy;
    ++q.pushed_outstanding;
    q.items.push_back(std::move(chunk));
    ++activity_;
  }
  cv_.notify_all();
  return PushResult::kAccepted;
}

void ShuffleService::ForcePush(int reducer, ShuffleItem chunk) {
  {
    std::scoped_lock lock(mu_);
    ReducerQueue& q = queues_.at(reducer);
    ++q.pushed_outstanding;
    q.items.push_back(std::move(chunk));
    ++activity_;
  }
  cv_.notify_all();
}

void ShuffleService::MarkReducerGone(int reducer) {
  {
    std::scoped_lock lock(mu_);
    queues_.at(reducer).gone = true;
    ++activity_;
  }
  cv_.notify_all();
  if (gone_probe_) gone_probe_(reducer);
}

void ShuffleService::MapTaskDone(int /*map_task*/) {
  {
    std::scoped_lock lock(mu_);
    ++maps_done_;
    if (maps_done_ > num_map_tasks_) {
      throw std::logic_error("ShuffleService: more completions than tasks");
    }
    ++activity_;
  }
  cv_.notify_all();
}

void ShuffleService::NoteActivity() {
  {
    std::scoped_lock lock(mu_);
    ++activity_;
  }
  cv_.notify_all();
}

void ShuffleService::Abort(const std::string& reason) {
  {
    std::scoped_lock lock(mu_);
    aborted_ = true;
    abort_reason_ = reason;
    ++activity_;
  }
  cv_.notify_all();
}

bool ShuffleService::NextItem(int reducer, ShuffleItem* item) {
  std::unique_lock lock(mu_);
  ReducerQueue& q = queues_.at(reducer);
  const auto ready = [&] {
    return aborted_ || !q.items.empty() || maps_done_ == num_map_tasks_;
  };
  if (idle_timeout_s_ <= 0) {
    cv_.wait(lock, ready);
  } else {
    // Deadline-based: a wakeup alone proves nothing (NextItem notifies
    // consumers without touching activity_) — only a full quiet window with
    // no activity counts as the mapper process being gone.
    const auto window =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(idle_timeout_s_));
    auto deadline = std::chrono::steady_clock::now() + window;
    while (!ready()) {
      const std::uint64_t before = activity_;
      const auto status = cv_.wait_until(lock, deadline);
      if (activity_ != before) {
        deadline = std::chrono::steady_clock::now() + window;
        continue;
      }
      if (status == std::cv_status::timeout && !ready()) {
        throw std::runtime_error(
            "shuffle idle timeout: no activity for " +
            std::to_string(idle_timeout_s_) + "s with " +
            std::to_string(maps_done_) + "/" +
            std::to_string(num_map_tasks_) +
            " map task(s) done (mapper process lost?)");
      }
    }
  }
  if (aborted_) {
    throw std::runtime_error("shuffle aborted: " + abort_reason_);
  }
  if (q.items.empty()) return false;
  *item = std::move(q.items.front());
  q.items.pop_front();
  const bool first_consume = item->ordinal == 0;
  if (first_consume) item->ordinal = ++q.next_ordinal;
  if (!item->from_file) {
    --q.pushed_outstanding;
    // A pushed chunk crosses the (simulated) network when consumed.
    shuffle_read_.Add(static_cast<std::int64_t>(item->bytes.size()));
  }
  switch (replay_mode_) {
    case ReplayMode::kNone:
      break;
    case ReplayMode::kFileOnly:
      if (!item->from_file) {
        q.replay_broken = true;
      } else {
        // File items are cheap descriptors (no payload); retaining them
        // lets a failed reduce attempt re-fetch the feed from the start.
        q.retained.push_back(*item);
      }
      break;
    case ReplayMode::kRetainAll:
      q.retained.push_back(*item);
      if (!item->from_file) {
        q.retained_payload_bytes += item->bytes.size();
        SpillRetainedLocked(&q);
      }
      break;
  }
  lock.unlock();
  cv_.notify_all();
  if (chunk_consumed_probe_ && first_consume && !item->from_file) {
    chunk_consumed_probe_(reducer, item->map_task);
  }
  if (fetch_probe_ && item->map_task >= 0) {
    fetch_probe_(reducer, item->map_task);
  }
  return true;
}

void ShuffleService::EnableReplay() {
  std::scoped_lock lock(mu_);
  replay_mode_ = ReplayMode::kFileOnly;
}

void ShuffleService::EnableCheckpointReplay(
    const std::filesystem::path& retain_dir, std::size_t retain_budget_bytes) {
  std::scoped_lock lock(mu_);
  replay_mode_ = ReplayMode::kRetainAll;
  retain_dir_ = retain_dir;
  retain_budget_bytes_ = retain_budget_bytes;
  std::filesystem::create_directories(retain_dir_);
}

void ShuffleService::SpillRetainedLocked(ReducerQueue* q) {
  while (q->retained_payload_bytes > retain_budget_bytes_) {
    auto it = std::find_if(q->retained.begin(), q->retained.end(),
                           [](const ShuffleItem& i) { return !i.from_file; });
    if (it == q->retained.end()) break;
    const auto path =
        retain_dir_ / ("retain_" + std::to_string(++retain_file_seq_) + ".seg");
    SequentialWriter writer(path, retain_write_);
    writer.Append(it->bytes);
    writer.Close();
    q->retained_payload_bytes -= it->bytes.size();
    it->segment = Segment{0, it->bytes.size(), it->records};
    it->bytes.clear();
    it->bytes.shrink_to_fit();
    it->from_file = true;
    it->path = path;
    it->retain_spill = true;
  }
}

void ShuffleService::AcknowledgeLocked(ReducerQueue* q, std::uint64_t upto) {
  q->acked_upto = std::max(q->acked_upto, upto);
  while (!q->retained.empty() && q->retained.front().ordinal <= upto) {
    ShuffleItem& item = q->retained.front();
    if (item.retain_spill) {
      std::error_code ec;
      std::filesystem::remove(item.path, ec);
      q->acked_payload_floor = std::max(q->acked_payload_floor, item.ordinal);
    } else if (!item.from_file) {
      q->retained_payload_bytes -= item.bytes.size();
      q->acked_payload_floor = std::max(q->acked_payload_floor, item.ordinal);
    } else {
      q->acked_files.push_back(std::move(item));
    }
    q->retained.pop_front();
  }
}

void ShuffleService::Acknowledge(int reducer, std::uint64_t upto) {
  std::scoped_lock lock(mu_);
  AcknowledgeLocked(&queues_.at(reducer), upto);
}

bool ShuffleService::Rewind(int reducer, std::uint64_t from_ordinal,
                            std::string* why) {
  std::unique_lock lock(mu_);
  ReducerQueue& q = queues_.at(reducer);
  if (replay_mode_ == ReplayMode::kNone) {
    *why =
        "shuffle replay is not enabled (single-attempt job without "
        "checkpointing)";
    return false;
  }
  if (replay_mode_ == ReplayMode::kFileOnly && q.replay_broken) {
    *why =
        "cannot replay a pushed (pipelined) shuffle feed: in-memory chunks "
        "are consumed destructively, so a re-executed reduce attempt would "
        "lose records — the pipelining / fault-tolerance trade-off of paper "
        "Table III. Use pull shuffle, or enable checkpointing so pushed "
        "chunks are retained until a checkpoint covers them.";
    return false;
  }
  if (from_ordinal < q.acked_payload_floor) {
    *why = "cannot replay the shuffle feed from ordinal " +
           std::to_string(from_ordinal) + ": pushed chunks up to ordinal " +
           std::to_string(q.acked_payload_floor) +
           " were discarded after checkpoint acknowledgement and no valid "
           "checkpoint covers them (paper Table III: pipelined output "
           "cannot be recalled once released)";
    return false;
  }
  // The caller restored a state that covers everything <= from_ordinal;
  // that is an acknowledgement.
  AcknowledgeLocked(&q, from_ordinal);
  // Rebuild the suffix in consumption order: acknowledged file descriptors
  // first (their ordinals precede every retained one), then the retained
  // window.
  std::deque<ShuffleItem> replay;
  for (auto it = q.acked_files.begin(); it != q.acked_files.end();) {
    if (it->ordinal > from_ordinal) {
      replay.push_back(std::move(*it));
      it = q.acked_files.erase(it);
    } else {
      ++it;
    }
  }
  for (ShuffleItem& item : q.retained) replay.push_back(std::move(item));
  q.retained.clear();
  std::uint64_t replayed_records = 0;
  for (ShuffleItem& item : replay) {
    replayed_records += item.records;
    if (!item.from_file) {
      ++q.pushed_outstanding;
      q.retained_payload_bytes -= item.bytes.size();
    }
  }
  q.items.insert(q.items.begin(), std::make_move_iterator(replay.begin()),
                 std::make_move_iterator(replay.end()));
  if (replay_records_ != nullptr) {
    replay_records_->Add(static_cast<std::int64_t>(replayed_records));
  }
  ++activity_;
  lock.unlock();
  cv_.notify_all();
  return true;
}

double ShuffleService::MapsDoneFraction() const {
  std::scoped_lock lock(mu_);
  return num_map_tasks_ == 0
             ? 1.0
             : static_cast<double>(maps_done_) / num_map_tasks_;
}

}  // namespace opmr
