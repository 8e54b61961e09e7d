// Fault plane: seeded, deterministic fault injection for chaos runs.
//
// A FaultPlan is a declarative list of scheduled fault points — I/O errors
// in the storage layer, DFS replica loss, map/reduce task crashes at record
// N, injected slow nodes, pull-shuffle fetch stalls.  A FaultInjector built
// from the plan is handed to the executor (ClusterOptions::fault_injector);
// every fault decision is a pure function of the plan's seed and the fault
// site's coordinates (task, attempt, record, file tag, byte offset, node),
// never of thread interleaving, so a chaos run replays identically however
// the scheduler interleaves tasks.
//
// Faults fire only while the current attempt number is <= the point's
// `attempts` budget (default 1): a plan that crashes map task 3 at record
// 500 kills the first attempt and lets the re-execution through, which is
// exactly the shape needed to prove the recovery machinery produces output
// byte-identical to a fault-free run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/counters.h"
#include "net/transport.h"
#include "storage/io.h"

namespace opmr {

enum class FaultPoint {
  kMapCrash,     // throw from inside a map task at record N / at rate
  kReduceCrash,  // throw from inside a reduce task at output record N / rate
  kIoWrite,      // throw before a SequentialWriter physical write (EIO)
  kIoRead,       // throw before a SequentialReader physical read
  kReplicaLoss,  // drop replicas from block metadata (degrades locality)
  kSlowNode,     // per-record delay on one node (straggler injection)
  kFetchStall,   // delay a reducer's fetch of one map task's output
  kConnDrop,     // tear a transport connection down before frame N's send
  kNetStall,     // delay a transport frame send (slow network)
  kHeartbeatLoss,      // suppress a worker's coordinator heartbeats
  kRegistryPartition,  // drop a worker's Register before it reaches the wire
  kPeerCrash,    // discard a delivered-but-unapplied frame and kill the conn
};

[[nodiscard]] const char* FaultPointName(FaultPoint point) noexcept;

// One scheduled fault.  Unset filters (-1 / empty / 0) match anything; a
// point with neither `record`/`after_bytes` nor `rate` fires on the first
// eligible site.  For kFetchStall, `task` filters the map task whose output
// is being fetched and `node` filters the fetching reducer.  For
// kReplicaLoss, `node` selects the replica to drop (-1 drops all, or a
// `rate`-drawn subset).  For kConnDrop / kNetStall, `record` filters the
// 1-based frame send ordinal and `attempts` budgets the transmission
// attempt (default 1: the retransmit goes through).  For kHeartbeatLoss,
// `tag` filters the worker id, `record` is the first suppressed heartbeat
// ordinal, and `attempts` budgets the registration GENERATION (default 1:
// only the first generation is starved, so the post-eviction rejoin
// heartbeats flow).  For kRegistryPartition, `tag` filters the worker id
// and `attempts` budgets the Register attempt.  For kPeerCrash, `record`
// is the sequenced frame seq to discard after delivery and `attempts`
// budgets the receive attempt (default 1: the ack-replay copy applies).
struct FaultSpec {
  FaultPoint point = FaultPoint::kMapCrash;
  int task = -1;                 // map/reduce task id filter
  int node = -1;                 // node filter (slow_node, replica_loss)
  std::uint64_t record = 0;      // fire at this 1-based record ordinal
  double rate = 0.0;             // else: fire per site with this probability
  int attempts = 1;              // fire while attempt <= attempts
  std::string tag;               // io points: FileManager file tag filter
  std::uint64_t after_bytes = 0; // io points: fire at the op crossing this
  double delay_ms = 0.0;         // slow_node / fetch_stall delay
  std::uint64_t block = kAnyBlock;  // replica_loss: block id filter

  static constexpr std::uint64_t kAnyBlock = ~0ull;

  [[nodiscard]] std::string ToString() const;
};

// A seed plus the scheduled points.  Text grammar (one plan per string,
// points separated by ';'):
//
//   seed=7;map_crash:task=0,record=500;io_write:tag=map_out,after_bytes=64k;
//   slow_node:node=0,delay_ms=0.5;io_read:tag=dfs_block,rate=0.01,attempts=2
//
// Keys per point: task, node, record, rate, attempts, tag, after_bytes
// (k/m/g suffixes), delay_ms, block.  Load() accepts either a spec string
// or the path of a file holding one point per line ('#' comments).
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  static FaultPlan Parse(const std::string& spec);
  static FaultPlan Load(const std::string& file_or_spec);

  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }
  [[nodiscard]] std::string ToString() const;
};

// Thrown at every fired crash/IO fault point; derives runtime_error so a
// fault surfaces exactly where (and as what) a real device error would.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : runtime_error(what) {}
};

// RAII thread-local task coordinates.  The executor opens a scope around
// every task attempt so deep fault sites (storage-layer I/O hooks, the
// ReducerOutput emit path) know which task/attempt/node they run under
// without threading parameters through every layer.
class FaultScope {
 public:
  enum class Kind { kNone, kMap, kReduce };

  struct Frame {
    Kind kind = Kind::kNone;
    int task = -1;
    int attempt = 1;
    int node = -1;
  };

  FaultScope(Kind kind, int task, int attempt, int node = -1);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  [[nodiscard]] static const Frame& Current() noexcept;

 private:
  Frame saved_;
};

// Every fault fired at any point, the chaos plane's headline counter.
inline constexpr const char* kFaultsInjected = "faults.injected";

// Evaluates a FaultPlan at the engine's fault sites.  Thread-safe and
// stateless between calls: decisions depend only on (seed, coordinates),
// so concurrent tasks cannot perturb each other's faults.  Counts every
// fired fault into the metric registry (kFaultsInjected, "faults.<point>",
// "faults.slowed_records") so chaos activity lands in JobResult::counters.
class FaultInjector final : public IoFaultHook, public net::NetFaultHook {
 public:
  FaultInjector(FaultPlan plan, MetricRegistry* metrics);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // --- engine-side fault sites (record is 1-based within the attempt) ------
  void OnMapRecord(int task, std::uint64_t record);
  void OnReduceRecord(std::uint64_t record);
  // Per folded shuffle record on the reduce side: kSlowNode delays apply
  // here (filtered by the reduce attempt's FaultScope node), so an injected
  // straggler node slows its reducers too, not just its map slots.
  void OnReduceFold(std::uint64_t record);
  void OnShuffleFetch(int reducer, int map_task);
  void FilterReplicas(std::vector<int>* replica_nodes, std::uint64_t block_id);

  // --- storage-layer fault sites (IoFaultHook) -----------------------------
  void BeforeWrite(const std::filesystem::path& path, std::uint64_t offset,
                   std::size_t bytes) override;
  void BeforeRead(const std::filesystem::path& path, std::uint64_t offset,
                  std::size_t bytes) override;

  // --- wire fault sites (net::NetFaultHook) --------------------------------
  // Consulted by the TCP client before each frame send.  kNetStall sleeps;
  // kConnDrop returns true, which makes the transport tear the connection
  // down (before any byte is written) and retransmit.
  bool OnFrameSend(std::uint64_t frame_seq, int attempt) override;
  // Consulted by CoordClient: kHeartbeatLoss starves the lease (true =
  // suppress this heartbeat), kRegistryPartition swallows a Register.
  bool OnHeartbeatSend(const std::string& worker, std::uint64_t ordinal,
                       int generation) override;
  bool OnRegisterSend(const std::string& worker, int attempt) override;
  // Consulted by the shuffle server before applying a sequenced frame:
  // kPeerCrash discards the delivered frame and kills the connection, so
  // only the client's ack-window replay can recover it.
  bool OnServerFrameApply(std::uint64_t seq, int receive_attempt) override;

  [[nodiscard]] std::int64_t injected() const noexcept {
    return injected_->value();
  }

 private:
  void IoFault(FaultPoint point, const std::filesystem::path& path,
               std::uint64_t offset, std::size_t bytes);
  // Deterministic uniform [0,1) draw for site coordinates (a, b).
  [[nodiscard]] double Draw(std::size_t spec_index, std::uint64_t a,
                            std::uint64_t b) const noexcept;
  [[noreturn]] void Fire(std::size_t spec_index, const std::string& site);
  void CountOnly(std::size_t spec_index);

  FaultPlan plan_;
  MetricRegistry* metrics_;
  Counter* injected_;
  Counter* slowed_records_;
  std::vector<Counter*> per_spec_;
  bool has_point_[12] = {};
};

}  // namespace opmr
