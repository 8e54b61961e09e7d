#include "fault/fault.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.h"

namespace opmr {

namespace {

thread_local FaultScope::Frame t_frame;

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::string Trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

// "64k" / "4m" / "1g" byte sizes (same suffixes the bench flags accept).
std::uint64_t ParseBytes(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("FaultPlan: empty byte size");
  std::uint64_t mult = 1;
  std::string digits = text;
  switch (std::tolower(static_cast<unsigned char>(text.back()))) {
    case 'k': mult = 1ull << 10; digits.pop_back(); break;
    case 'm': mult = 1ull << 20; digits.pop_back(); break;
    case 'g': mult = 1ull << 30; digits.pop_back(); break;
    default: break;
  }
  return static_cast<std::uint64_t>(std::stoull(digits)) * mult;
}

FaultPoint PointByName(const std::string& name) {
  if (name == "map_crash") return FaultPoint::kMapCrash;
  if (name == "reduce_crash") return FaultPoint::kReduceCrash;
  if (name == "io_write") return FaultPoint::kIoWrite;
  if (name == "io_read") return FaultPoint::kIoRead;
  if (name == "replica_loss") return FaultPoint::kReplicaLoss;
  if (name == "slow_node") return FaultPoint::kSlowNode;
  if (name == "fetch_stall") return FaultPoint::kFetchStall;
  if (name == "conn_drop") return FaultPoint::kConnDrop;
  if (name == "net_stall") return FaultPoint::kNetStall;
  if (name == "heartbeat_loss") return FaultPoint::kHeartbeatLoss;
  if (name == "registry_partition") return FaultPoint::kRegistryPartition;
  if (name == "peer_crash") return FaultPoint::kPeerCrash;
  throw std::invalid_argument("FaultPlan: unknown fault point '" + name + "'");
}

FaultSpec ParsePoint(const std::string& token) {
  FaultSpec spec;
  const auto colon = token.find(':');
  spec.point = PointByName(Trim(token.substr(0, colon)));
  if (colon == std::string::npos) return spec;
  for (const auto& kv : Split(token.substr(colon + 1), ',')) {
    const auto trimmed = Trim(kv);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                  trimmed + "'");
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key == "task") spec.task = std::stoi(value);
    else if (key == "node") spec.node = std::stoi(value);
    else if (key == "record") spec.record = std::stoull(value);
    else if (key == "rate") spec.rate = std::stod(value);
    else if (key == "attempts") spec.attempts = std::stoi(value);
    else if (key == "tag") spec.tag = value;
    else if (key == "after_bytes") spec.after_bytes = ParseBytes(value);
    else if (key == "delay_ms") spec.delay_ms = std::stod(value);
    else if (key == "block") spec.block = std::stoull(value);
    else {
      throw std::invalid_argument("FaultPlan: unknown key '" + key + "'");
    }
  }
  if (spec.rate < 0.0 || spec.rate > 1.0) {
    throw std::invalid_argument("FaultPlan: rate must be in [0, 1]");
  }
  if (spec.attempts < 1) {
    throw std::invalid_argument("FaultPlan: attempts must be >= 1");
  }
  return spec;
}

}  // namespace

const char* FaultPointName(FaultPoint point) noexcept {
  switch (point) {
    case FaultPoint::kMapCrash: return "map_crash";
    case FaultPoint::kReduceCrash: return "reduce_crash";
    case FaultPoint::kIoWrite: return "io_write";
    case FaultPoint::kIoRead: return "io_read";
    case FaultPoint::kReplicaLoss: return "replica_loss";
    case FaultPoint::kSlowNode: return "slow_node";
    case FaultPoint::kFetchStall: return "fetch_stall";
    case FaultPoint::kConnDrop: return "conn_drop";
    case FaultPoint::kNetStall: return "net_stall";
    case FaultPoint::kHeartbeatLoss: return "heartbeat_loss";
    case FaultPoint::kRegistryPartition: return "registry_partition";
    case FaultPoint::kPeerCrash: return "peer_crash";
  }
  return "unknown";
}

std::string FaultSpec::ToString() const {
  std::ostringstream out;
  out << FaultPointName(point);
  std::string sep = ":";
  auto add = [&](const std::string& key, const std::string& value) {
    out << sep << key << "=" << value;
    sep = ",";
  };
  if (task >= 0) add("task", std::to_string(task));
  if (node >= 0) add("node", std::to_string(node));
  if (record > 0) add("record", std::to_string(record));
  if (rate > 0.0) add("rate", std::to_string(rate));
  if (attempts != 1) add("attempts", std::to_string(attempts));
  if (!tag.empty()) add("tag", tag);
  if (after_bytes > 0) add("after_bytes", std::to_string(after_bytes));
  if (delay_ms > 0.0) add("delay_ms", std::to_string(delay_ms));
  if (block != kAnyBlock) add("block", std::to_string(block));
  return out.str();
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  for (const auto& raw : Split(spec, ';')) {
    const auto token = Trim(raw);
    if (token.empty()) continue;
    if (token.rfind("seed=", 0) == 0) {
      plan.seed = std::stoull(token.substr(5));
      continue;
    }
    plan.faults.push_back(ParsePoint(token));
  }
  return plan;
}

FaultPlan FaultPlan::Load(const std::string& file_or_spec) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(file_or_spec, ec)) {
    return Parse(file_or_spec);
  }
  std::ifstream in(file_or_spec);
  if (!in) {
    throw std::runtime_error("FaultPlan: cannot read " + file_or_spec);
  }
  std::string joined, line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = Trim(line);
    if (line.empty()) continue;
    if (!joined.empty()) joined += ';';
    joined += line;
  }
  return Parse(joined);
}

std::string FaultPlan::ToString() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const auto& f : faults) out += ";" + f.ToString();
  return out;
}

// --- FaultScope --------------------------------------------------------------

FaultScope::FaultScope(Kind kind, int task, int attempt, int node)
    : saved_(t_frame) {
  t_frame = Frame{kind, task, attempt, node};
}

FaultScope::~FaultScope() { t_frame = saved_; }

const FaultScope::Frame& FaultScope::Current() noexcept { return t_frame; }

// --- FaultInjector -----------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan, MetricRegistry* metrics)
    : plan_(std::move(plan)), metrics_(metrics) {
  injected_ = metrics_->Get(kFaultsInjected);
  slowed_records_ = metrics_->Get("faults.slowed_records");
  per_spec_.reserve(plan_.faults.size());
  for (const auto& spec : plan_.faults) {
    per_spec_.push_back(
        metrics_->Get(std::string("faults.") + FaultPointName(spec.point)));
    has_point_[static_cast<int>(spec.point)] = true;
  }
}

double FaultInjector::Draw(std::size_t spec_index, std::uint64_t a,
                           std::uint64_t b) const noexcept {
  // Pure function of (seed, spec, site coordinates): the same site draws the
  // same number in every run and on every thread.
  std::uint64_t h = plan_.seed + 0x9e3779b97f4a7c15ULL * (spec_index + 1);
  h = detail::Mix64(h ^ detail::Mix64(a + 0x2545f4914f6cdd1dULL));
  h = detail::Mix64(h ^ detail::Mix64(b + 0xd1342543de82ef95ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void FaultInjector::Fire(std::size_t spec_index, const std::string& site) {
  injected_->Increment();
  per_spec_[spec_index]->Increment();
  throw InjectedFault("injected " + std::string(FaultPointName(
                          plan_.faults[spec_index].point)) +
                      " at " + site + " [" +
                      plan_.faults[spec_index].ToString() + "]");
}

void FaultInjector::CountOnly(std::size_t spec_index) {
  injected_->Increment();
  per_spec_[spec_index]->Increment();
}

void FaultInjector::OnMapRecord(int task, std::uint64_t record) {
  const bool crash = has_point_[static_cast<int>(FaultPoint::kMapCrash)];
  const bool slow = has_point_[static_cast<int>(FaultPoint::kSlowNode)];
  if (!crash && !slow) return;
  const auto& frame = FaultScope::Current();
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (frame.attempt > s.attempts) continue;
    if (s.point == FaultPoint::kSlowNode) {
      if (s.node >= 0 && frame.node != s.node) continue;
      if (s.rate > 0.0 &&
          Draw(i, static_cast<std::uint64_t>(task), record) >= s.rate) {
        continue;
      }
      slowed_records_->Increment();
      SleepMs(s.delay_ms);
    } else if (s.point == FaultPoint::kMapCrash) {
      if (s.task >= 0 && task != s.task) continue;
      if (s.record > 0) {
        if (record != s.record) continue;
      } else if (s.rate > 0.0) {
        if (Draw(i, static_cast<std::uint64_t>(task), record) >= s.rate) {
          continue;
        }
      }
      Fire(i, "map task " + std::to_string(task) + " record " +
                 std::to_string(record) + " attempt " +
                 std::to_string(frame.attempt));
    }
  }
}

void FaultInjector::OnReduceRecord(std::uint64_t record) {
  if (!has_point_[static_cast<int>(FaultPoint::kReduceCrash)]) return;
  const auto& frame = FaultScope::Current();
  if (frame.kind != FaultScope::Kind::kReduce) return;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kReduceCrash) continue;
    if (frame.attempt > s.attempts) continue;
    if (s.task >= 0 && frame.task != s.task) continue;
    if (s.record > 0) {
      if (record != s.record) continue;
    } else if (s.rate > 0.0) {
      if (Draw(i, static_cast<std::uint64_t>(frame.task), record) >= s.rate) {
        continue;
      }
    }
    Fire(i, "reduce task " + std::to_string(frame.task) + " output record " +
               std::to_string(record) + " attempt " +
               std::to_string(frame.attempt));
  }
}

void FaultInjector::OnReduceFold(std::uint64_t record) {
  if (!has_point_[static_cast<int>(FaultPoint::kSlowNode)]) return;
  const auto& frame = FaultScope::Current();
  if (frame.kind != FaultScope::Kind::kReduce) return;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kSlowNode) continue;
    if (frame.attempt > s.attempts) continue;
    if (s.node >= 0 && frame.node != s.node) continue;
    if (s.rate > 0.0 &&
        Draw(i, static_cast<std::uint64_t>(frame.task), record) >= s.rate) {
      continue;
    }
    slowed_records_->Increment();
    SleepMs(s.delay_ms);
  }
}

void FaultInjector::OnShuffleFetch(int reducer, int map_task) {
  if (!has_point_[static_cast<int>(FaultPoint::kFetchStall)]) return;
  const auto& frame = FaultScope::Current();
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kFetchStall) continue;
    if (frame.attempt > s.attempts) continue;
    if (s.task >= 0 && map_task != s.task) continue;
    if (s.node >= 0 && reducer != s.node) continue;
    if (s.rate > 0.0 &&
        Draw(i, static_cast<std::uint64_t>(reducer),
             static_cast<std::uint64_t>(map_task)) >= s.rate) {
      continue;
    }
    CountOnly(i);
    SleepMs(s.delay_ms);
  }
}

void FaultInjector::FilterReplicas(std::vector<int>* replica_nodes,
                                   std::uint64_t block_id) {
  if (!has_point_[static_cast<int>(FaultPoint::kReplicaLoss)]) return;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kReplicaLoss) continue;
    if (s.block != FaultSpec::kAnyBlock && s.block != block_id) continue;
    auto drop = [&](int node) {
      if (s.node >= 0 && node != s.node) return false;
      if (s.rate > 0.0 &&
          Draw(i, block_id, static_cast<std::uint64_t>(node)) >= s.rate) {
        return false;
      }
      CountOnly(i);
      return true;
    };
    replica_nodes->erase(
        std::remove_if(replica_nodes->begin(), replica_nodes->end(), drop),
        replica_nodes->end());
  }
}

void FaultInjector::IoFault(FaultPoint point,
                            const std::filesystem::path& path,
                            std::uint64_t offset, std::size_t bytes) {
  // Never fire while unwinding: the cleanup I/O of an already-failed
  // attempt (e.g. a writer destructor flushing its abandoned buffer) is the
  // same logical fault and must not be counted or thrown twice.
  if (std::uncaught_exceptions() > 0) return;
  const std::string filename = path.filename().string();
  const auto& frame = FaultScope::Current();
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != point) continue;
    if (frame.attempt > s.attempts) continue;
    if (s.task >= 0 && frame.task != s.task) continue;
    if (s.node >= 0 && frame.node != s.node) continue;
    if (!s.tag.empty() && filename.find(s.tag) == std::string::npos) continue;
    if (s.after_bytes > 0) {
      // Fire on the op that crosses the byte threshold.
      if (!(offset < s.after_bytes && offset + bytes >= s.after_bytes)) {
        continue;
      }
    } else if (s.rate > 0.0) {
      // Rate is per physical I/O operation, keyed by (file, offset).
      if (Draw(i, BytesHash(Slice(filename.data(), filename.size()), 0x10f5),
               offset) >= s.rate) {
        continue;
      }
    }
    Fire(i, filename + " offset " + std::to_string(offset) + " (" +
               std::to_string(bytes) + " bytes)");
  }
}

bool FaultInjector::OnFrameSend(std::uint64_t frame_seq, int attempt) {
  const bool drop = has_point_[static_cast<int>(FaultPoint::kConnDrop)];
  const bool stall = has_point_[static_cast<int>(FaultPoint::kNetStall)];
  if (!drop && !stall) return false;
  bool dropped = false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kConnDrop && s.point != FaultPoint::kNetStall) {
      continue;
    }
    if (attempt > s.attempts) continue;
    if (s.record > 0) {
      if (frame_seq != s.record) continue;
    } else if (s.rate > 0.0) {
      if (Draw(i, frame_seq, static_cast<std::uint64_t>(attempt)) >= s.rate) {
        continue;
      }
    }
    CountOnly(i);
    if (s.point == FaultPoint::kNetStall) {
      SleepMs(s.delay_ms);
    } else {
      dropped = true;
    }
  }
  return dropped;
}

bool FaultInjector::OnHeartbeatSend(const std::string& worker,
                                    std::uint64_t ordinal, int generation) {
  if (!has_point_[static_cast<int>(FaultPoint::kHeartbeatLoss)]) return false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kHeartbeatLoss) continue;
    // `attempts` budgets the registration generation: the default of 1
    // starves only the first generation, so once the worker is evicted and
    // rejoins, its generation-2 heartbeats flow and the lease holds.
    if (generation > s.attempts) continue;
    if (!s.tag.empty() && worker != s.tag) continue;
    if (s.record > 0) {
      if (ordinal < s.record) continue;  // suppress from ordinal N onward
    } else if (s.rate > 0.0) {
      if (Draw(i, BytesHash(Slice(worker.data(), worker.size()), 0x48b),
               ordinal) >= s.rate) {
        continue;
      }
    }
    CountOnly(i);
    return true;
  }
  return false;
}

bool FaultInjector::OnRegisterSend(const std::string& worker, int attempt) {
  if (!has_point_[static_cast<int>(FaultPoint::kRegistryPartition)]) {
    return false;
  }
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kRegistryPartition) continue;
    if (attempt > s.attempts) continue;
    if (!s.tag.empty() && worker != s.tag) continue;
    CountOnly(i);
    return true;
  }
  return false;
}

bool FaultInjector::OnServerFrameApply(std::uint64_t seq,
                                       int receive_attempt) {
  if (!has_point_[static_cast<int>(FaultPoint::kPeerCrash)]) return false;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.point != FaultPoint::kPeerCrash) continue;
    if (receive_attempt > s.attempts) continue;
    if (s.record > 0) {
      if (seq != s.record) continue;
    } else if (s.rate > 0.0) {
      if (Draw(i, seq, static_cast<std::uint64_t>(receive_attempt)) >=
          s.rate) {
        continue;
      }
    }
    CountOnly(i);
    return true;
  }
  return false;
}

void FaultInjector::BeforeWrite(const std::filesystem::path& path,
                                std::uint64_t offset, std::size_t bytes) {
  if (!has_point_[static_cast<int>(FaultPoint::kIoWrite)]) return;
  IoFault(FaultPoint::kIoWrite, path, offset, bytes);
}

void FaultInjector::BeforeRead(const std::filesystem::path& path,
                               std::uint64_t offset, std::size_t bytes) {
  if (!has_point_[static_cast<int>(FaultPoint::kIoRead)]) return;
  IoFault(FaultPoint::kIoRead, path, offset, bytes);
}

}  // namespace opmr
