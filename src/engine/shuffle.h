// Shuffle: moves map output to reducers.
//
// Pull (Hadoop): map tasks register completed output files; reducers are
// handed segment descriptors and read the bytes themselves — the in-process
// analogue of "reducers periodically poll a centralized service ... and
// request data directly from the completed mappers" (paper §II-A).
//
// Push (MapReduce Online): map tasks push chunks of output eagerly, bounded
// by a per-reducer queue; when the queue is full the mapper diverts the
// chunk to local disk and registers it for pulling — the paper's adaptive
// load-balancing between mappers and reducers (§III-D).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/map_output.h"
#include "metrics/counters.h"
#include "storage/io_stats.h"

namespace opmr {

// Shuffle records re-delivered to a re-executed or restored reducer (and,
// in a streaming job, source records re-ingested after Recover()).
inline constexpr const char* kReplayRecords = "recovery.replay_records";

// Thrown by a reduce attempt when its shuffle feed cannot be rewound to the
// watermark it needs (e.g. every checkpoint is corrupt and pushed chunks
// below the acknowledgement floor are gone).  Never retryable: another
// attempt would fail the same way.
class ReplayError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by a push-mode map sink when its target reducer has terminally
// failed: pushed output cannot be recalled, so the job fails fast with the
// Table III diagnostic instead of spinning chunks into a dead queue.
class ReducerGoneError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Outcome of attempting to push one in-memory chunk.
enum class PushResult {
  kAccepted,     // queued for the reducer
  kBusy,         // back-pressure: queue full, caller should divert to disk
  kReducerGone,  // reducer terminally failed (or job aborted): fail fast
};

// One unit of shuffled data for a single reducer: either an in-memory chunk
// that was pushed, or a file segment to fetch.
struct ShuffleItem {
  int map_task = -1;
  bool sorted = false;
  std::uint64_t records = 0;

  // Consume ordinal: 1-based position in the reducer's consumption order,
  // assigned the first time the item is handed out by NextItem (0 =  not
  // yet consumed).  Checkpoint watermarks and Rewind/Acknowledge speak in
  // these ordinals.
  std::uint64_t ordinal = 0;

  // In-memory payload (push path); empty when the item is a file segment.
  std::string bytes;

  // File segment (pull path / diverted push chunks).  A pushed chunk
  // (from_file false) also names its persisted copy here, so a remote
  // endpoint can replay it from disk; the in-process ShuffleService ignores
  // path and segment on such items.
  bool from_file = false;
  std::filesystem::path path;
  Segment segment;

  // The file is a retention spill owned by the shuffle (a pushed chunk
  // persisted while awaiting checkpoint acknowledgement); deleted when the
  // item is acknowledged.
  bool retain_spill = false;

  [[nodiscard]] std::uint64_t size_bytes() const noexcept {
    return from_file ? segment.bytes : bytes.size();
  }
};

// The map-facing face of the shuffle.  Map sinks talk to this interface
// only, so the same sink code runs against the in-process ShuffleService
// (loopback) or a ShuffleClient that serialises each call onto a Transport
// connection (tcp / multi-process mode).
class ShuffleMapEndpoint {
 public:
  virtual ~ShuffleMapEndpoint() = default;

  // Publishes every non-empty partition segment of a completed spill file.
  virtual void RegisterFile(const MapOutputFile& file) = 0;

  // Publishes a single diverted segment.
  virtual void RegisterSegment(int map_task, const std::filesystem::path& path,
                               int reducer, const Segment& segment,
                               bool sorted) = 0;

  // Attempts to push an in-memory chunk to `reducer`; `chunk.path` and
  // `chunk.segment` name a flushed on-disk copy of its bytes.  kBusy means
  // the reducer's bounded queue is full (back-pressure) — the caller must
  // divert the chunk to disk.  kReducerGone means the reducer terminally
  // failed: the caller should raise ReducerGoneError.
  virtual PushResult TryPush(int reducer, ShuffleItem chunk) = 0;

  // Marks a map task complete, carrying its record counts (the remote
  // endpoint forwards them so the reduce-side process can report map-side
  // stats).  All the task's output must have been registered or pushed
  // before this call.
  virtual void MapTaskDone(int map_task, std::uint64_t input_records,
                           std::uint64_t output_records) = 0;
};

class ShuffleService : public ShuffleMapEndpoint {
 public:
  ShuffleService(int num_map_tasks, int num_reducers, MetricRegistry* metrics,
                 std::size_t push_queue_chunks);

  // --- map side (ShuffleMapEndpoint) ---------------------------------------

  void RegisterFile(const MapOutputFile& file) override;

  void RegisterSegment(int map_task, const std::filesystem::path& path,
                       int reducer, const Segment& segment,
                       bool sorted) override;

  PushResult TryPush(int reducer, ShuffleItem chunk) override;

  void MapTaskDone(int map_task, std::uint64_t input_records,
                   std::uint64_t output_records) override {
    (void)input_records;
    (void)output_records;
    MapTaskDone(map_task);
  }

  // Marks a map task complete.  All its output must have been registered or
  // pushed before this call.
  void MapTaskDone(int map_task);

  // Unbounded push used by the remote shuffle server when applying chunks
  // that a ShuffleClient already admitted against its credit window.  The
  // client-side credit count is authoritative; re-checking the bounded
  // queue here would spuriously reject chunks whose credits were granted
  // before a Rewind re-queued consumed items.
  void ForcePush(int reducer, ShuffleItem chunk);

  // Marks `reducer` terminally failed: subsequent TryPush calls for it
  // return kReducerGone and the gone probe fires (the remote server relays
  // it to mapper processes as a Gone frame).
  void MarkReducerGone(int reducer);

  // --- reduce side ----------------------------------------------------------

  // Blocks until an item is available for `reducer` or the shuffle is
  // complete.  Returns false when all map tasks are done and the reducer
  // has consumed everything.  Charges the shuffle-read channel.
  bool NextItem(int reducer, ShuffleItem* item);

  // Reduce-task re-execution support.  With replay enabled, every consumed
  // file item is retained so a failed reduce attempt can Rewind() and
  // re-fetch the published map outputs from the beginning — the Hadoop
  // recovery move the paper contrasts with eager pipelining (Table III).
  // In-memory pushed chunks are consumed destructively in this mode;
  // Rewind() reports failure if one was seen.
  void EnableReplay();

  // Checkpointed replay: EVERY consumed item — including pushed in-memory
  // chunks — is retained until the consuming reducer's checkpoint covers it
  // (Acknowledge).  Retained payload beyond `retain_budget_bytes` per
  // reducer is spilled to files under `retain_dir`, so pipelining keeps its
  // bounded memory footprint.  This is what makes reduce recovery possible
  // under push shuffle: the Table III trade-off is bought back with bounded
  // retention instead of giving up pipelining.
  void EnableCheckpointReplay(const std::filesystem::path& retain_dir,
                              std::size_t retain_budget_bytes);

  // Releases retained items with ordinal <= `upto` for `reducer`: pushed
  // payloads (and their retention spills) are discarded; file descriptors
  // are kept — they are cheap and allow a full rewind as the last-resort
  // fallback when every checkpoint is lost.  Callers pass the watermark of
  // the OLDEST retained checkpoint, so any retained checkpoint can still
  // be restored.
  void Acknowledge(int reducer, std::uint64_t upto);

  // Re-queues every consumed item with ordinal > `from_ordinal` for
  // `reducer`, in consumption order, and implicitly acknowledges
  // `from_ordinal` (the caller restored a state that covers it).  Returns
  // false — with a Table III-flavoured diagnostic in `*why` — when the feed
  // cannot be reconstructed: replay was never enabled, a pushed chunk was
  // consumed destructively (EnableReplay mode), or pushed payloads at or
  // below `from_ordinal`'s gap were already discarded by acknowledgement.
  [[nodiscard]] bool Rewind(int reducer, std::uint64_t from_ordinal,
                            std::string* why);

  // Optional probe invoked (outside the lock) after each successful
  // NextItem, with (reducer, map_task).  The fault plane uses it to inject
  // fetch stalls.  Set before reducer threads start; may sleep.
  void SetFetchProbe(std::function<void(int reducer, int map_task)> probe) {
    fetch_probe_ = std::move(probe);
  }

  // Optional probe invoked (outside the lock) the FIRST time a pushed
  // in-memory chunk is consumed for `reducer` — replayed items keep their
  // ordinal and do not re-fire.  The remote shuffle server uses it to grant
  // one flow-control credit back to the mapper that owns `map_task`.  Set
  // before threads start.
  void SetChunkConsumedProbe(
      std::function<void(int reducer, int map_task)> probe) {
    chunk_consumed_probe_ = std::move(probe);
  }

  // Optional probe invoked (outside the lock) by MarkReducerGone.
  void SetGoneProbe(std::function<void(int reducer)> probe) {
    gone_probe_ = std::move(probe);
  }

  // Liveness guard for multi-process mode: when > 0, a NextItem call that
  // sees no shuffle activity at all for `seconds` while map tasks are still
  // outstanding throws (the mapper process likely died without an Abort
  // frame).  0 (default) disables the guard — the seed's in-process
  // behaviour, where map worker threads can always be joined.  It is the
  // reduce side's only mapper-death signal.  The shuffle server calls
  // NoteActivity() for every frame it receives — including duplicates
  // absorbed by the ack watermark — so the guard cannot fire while an
  // ack-window replay is in progress.
  void SetIdleTimeout(double seconds) { idle_timeout_s_ = seconds; }

  // Resets the idle-timeout window.  For shuffle progress that bypasses
  // Enqueue/TryPush — e.g. replayed frames deduplicated away by the remote
  // server's applied-seq watermark, which are proof the mapper is alive
  // even though no new item lands in any queue.
  void NoteActivity();

  // Fraction of map tasks completed (drives HOP snapshot points).
  [[nodiscard]] double MapsDoneFraction() const;

  // Poisons the shuffle after a task failure: all blocked and future
  // NextItem calls throw, so reducer threads unwind instead of waiting for
  // map completions that will never come.
  void Abort(const std::string& reason);

  [[nodiscard]] int num_map_tasks() const noexcept { return num_map_tasks_; }
  [[nodiscard]] int num_reducers() const noexcept { return num_reducers_; }

 private:
  enum class ReplayMode {
    kNone,       // consumed items are gone
    kFileOnly,   // retain file descriptors; pushed chunks break replay
    kRetainAll,  // retain everything until checkpoint acknowledgement
  };

  struct ReducerQueue {
    std::deque<ShuffleItem> items;
    std::size_t pushed_outstanding = 0;  // in-memory chunks awaiting consume
    std::uint64_t next_ordinal = 0;      // last consume ordinal handed out

    // Consumed-but-unacknowledged items, in consumption order.
    std::deque<ShuffleItem> retained;
    // Acknowledged file descriptors (kept: they cost nothing and permit a
    // full-replay fallback), in consumption order.
    std::deque<ShuffleItem> acked_files;
    // Highest ordinal whose pushed payload was discarded; rewinding below
    // this point is impossible.
    std::uint64_t acked_payload_floor = 0;
    // Highest ordinal any acknowledgement has covered (checkpoint
    // watermarks and Rewind's implicit ack).
    std::uint64_t acked_upto = 0;
    // In-memory payload bytes currently held in `retained`.
    std::size_t retained_payload_bytes = 0;

    bool replay_broken = false;  // kFileOnly: a pushed chunk was consumed
    bool gone = false;           // reducer terminally failed
  };

  void Enqueue(int reducer, ShuffleItem item);
  // Ack implementation shared by Acknowledge and Rewind; `mu_` held.
  void AcknowledgeLocked(ReducerQueue* q, std::uint64_t upto);
  // Spills the oldest retained in-memory payloads to `retain_dir_` until
  // the queue is back under the retention budget; `mu_` held.
  void SpillRetainedLocked(ReducerQueue* q);

  const int num_map_tasks_;
  const int num_reducers_;
  const std::size_t push_queue_chunks_;
  IoChannel shuffle_read_;
  IoChannel retain_write_;
  Counter* replay_records_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ReducerQueue> queues_;
  int maps_done_ = 0;
  std::string abort_reason_;
  bool aborted_ = false;
  ReplayMode replay_mode_ = ReplayMode::kNone;
  std::filesystem::path retain_dir_;
  std::size_t retain_budget_bytes_ = 0;
  std::uint64_t retain_file_seq_ = 0;
  std::function<void(int, int)> fetch_probe_;
  std::function<void(int, int)> chunk_consumed_probe_;
  std::function<void(int)> gone_probe_;
  double idle_timeout_s_ = 0;
  // Bumped (under mu_) by every state change NextItem could be waiting on;
  // the idle-timeout guard watches it to distinguish "slow" from "dead".
  std::uint64_t activity_ = 0;
};

}  // namespace opmr
