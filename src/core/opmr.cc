#include "core/opmr.h"

#include <filesystem>
#include <random>
#include <stdexcept>

#include "storage/record_stream.h"

namespace opmr {

JobOptions HadoopOptions() {
  JobOptions options;
  options.group_by = GroupBy::kSortMerge;
  options.shuffle = Shuffle::kPull;
  options.map_side_combine = true;
  return options;
}

JobOptions MapReduceOnlineOptions() {
  JobOptions options;
  options.group_by = GroupBy::kSortMerge;
  options.shuffle = Shuffle::kPush;
  options.map_side_combine = true;
  options.snapshot_interval = 0.25;
  return options;
}

JobOptions HashOnePassOptions() {
  JobOptions options;
  options.group_by = GroupBy::kHash;
  options.shuffle = Shuffle::kPush;
  options.hash_reduce = HashReduce::kIncremental;
  options.map_side_combine = true;
  return options;
}

JobOptions HotKeyOnePassOptions(std::size_t hot_key_capacity) {
  JobOptions options = HashOnePassOptions();
  options.hash_reduce = HashReduce::kHotKeyIncremental;
  options.hot_key_capacity = hot_key_capacity;
  return options;
}

JobOptions CheckpointedOnePassOptions(std::uint64_t interval_records,
                                      int retain) {
  JobOptions options = HashOnePassOptions();
  options.checkpoint.enabled = true;
  options.checkpoint.interval_records = interval_records;
  options.checkpoint.retain = retain;
  return options;
}

Platform::Platform(PlatformOptions options) {
  if (options.workspace.empty()) {
    std::random_device rd;
    const auto dir = std::filesystem::temp_directory_path() /
                     ("opmr-" + std::to_string(rd()) + std::to_string(rd()));
    files_ = std::make_unique<FileManager>(dir);
  } else {
    files_ = std::make_unique<FileManager>(options.workspace);
  }
  metrics_ = std::make_unique<MetricRegistry>();

  DfsOptions dfs_options;
  dfs_options.num_nodes = options.num_nodes;
  dfs_options.block_bytes = options.block_bytes;
  dfs_options.replication = options.replication;
  dfs_ = std::make_unique<Dfs>(files_.get(), metrics_.get(), dfs_options);

  ClusterOptions cluster;
  cluster.num_nodes = options.num_nodes;
  cluster.map_slots_per_node = options.map_slots_per_node;
  cluster.max_task_attempts = options.max_task_attempts;
  cluster.retry_backoff_base_ms = options.retry_backoff_base_ms;
  cluster.retry_backoff_max_ms = options.retry_backoff_max_ms;
  executor_ = std::make_unique<ClusterExecutor>(dfs_.get(), files_.get(),
                                                metrics_.get(), cluster);
  if (!options.fault_plan.empty()) {
    SetFaultPlan(FaultPlan::Load(options.fault_plan));
  }
}

void Platform::SetFaultPlan(FaultPlan plan) {
  if (plan.empty()) {
    injector_.reset();
    executor_->set_fault_injector(nullptr);
    return;
  }
  injector_ = std::make_unique<FaultInjector>(std::move(plan), metrics_.get());
  executor_->set_fault_injector(injector_.get());
}

JobResult Platform::Run(const JobSpec& spec, const JobOptions& options) {
  return executor_->Run(spec, options);
}

namespace {
// Restores the executor's direct in-process configuration however the run
// exits.
class RoleGuard {
 public:
  RoleGuard(ClusterExecutor* executor, WorkerRole role,
            net::Transport* transport, double idle_timeout_s, bool shared_fs)
      : executor_(executor) {
    executor_->set_worker_role(role);
    executor_->set_shuffle_transport(transport);
    executor_->set_shuffle_idle_timeout(idle_timeout_s);
    executor_->set_shuffle_shared_fs(shared_fs);
  }
  ~RoleGuard() {
    executor_->set_worker_role(WorkerRole::kAll);
    executor_->set_shuffle_transport(nullptr);
    executor_->set_shuffle_idle_timeout(0.0);
    executor_->set_shuffle_shared_fs(true);
  }
  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;

 private:
  ClusterExecutor* executor_;
};
}  // namespace

JobResult Platform::RunWithTransport(const JobSpec& spec,
                                     const JobOptions& options,
                                     net::Transport* transport,
                                     bool shared_fs) {
  RoleGuard guard(executor_.get(), WorkerRole::kAll, transport, 0.0,
                  shared_fs);
  return executor_->Run(spec, options);
}

JobResult Platform::RunMapGroup(const JobSpec& spec, const JobOptions& options,
                                net::Transport* transport, bool shared_fs) {
  RoleGuard guard(executor_.get(), WorkerRole::kMapOnly, transport, 0.0,
                  shared_fs);
  return executor_->Run(spec, options);
}

JobResult Platform::RunReduceGroup(const JobSpec& spec,
                                   const JobOptions& options,
                                   net::Transport* transport,
                                   double idle_timeout_s) {
  RoleGuard guard(executor_.get(), WorkerRole::kReduceOnly, transport,
                  idle_timeout_s, /*shared_fs=*/true);
  return executor_->Run(spec, options);
}

std::vector<std::pair<std::string, std::string>> Platform::ReadOutputFile(
    const std::string& name) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& block : dfs_->ListBlocks(name)) {
    auto reader = dfs_->OpenBlock(block);
    Slice record;
    while (reader->Next(&record)) {
      MemoryRunStream frames(record);
      while (frames.Next()) {
        out.emplace_back(frames.key().ToString(), frames.value().ToString());
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Platform::ReadOutput(
    const std::string& output_prefix, int num_reducers) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (int r = 0; r < num_reducers; ++r) {
    const std::string part = output_prefix + ".part" + std::to_string(r);
    if (!dfs_->Exists(part)) continue;
    auto rows = ReadOutputFile(part);
    out.insert(out.end(), rows.begin(), rows.end());
  }
  return out;
}

}  // namespace opmr
