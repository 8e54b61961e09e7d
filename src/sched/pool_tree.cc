#include "sched/pool_tree.h"

#include <algorithm>
#include <stdexcept>

namespace opmr::sched {

PoolConfig ParsePoolConfig(const std::string& text) {
  PoolConfig config;
  std::string head = text;
  std::string rest;
  if (auto colon = text.find(':'); colon != std::string::npos) {
    head = text.substr(0, colon);
    rest = text.substr(colon + 1);
  }
  if (auto slash = head.rfind('/'); slash != std::string::npos) {
    config.parent = head.substr(0, slash);
    config.name = head.substr(slash + 1);
  } else {
    config.name = head;
  }
  if (config.name.empty()) {
    throw std::invalid_argument("pool spec '" + text + "': empty pool name");
  }
  if (!rest.empty()) {
    std::string weight = rest;
    std::string quota;
    if (auto colon = rest.find(':'); colon != std::string::npos) {
      weight = rest.substr(0, colon);
      quota = rest.substr(colon + 1);
    }
    try {
      config.weight = std::stod(weight);
      if (!quota.empty()) config.max_running_jobs = std::stoi(quota);
    } catch (const std::exception&) {
      throw std::invalid_argument("pool spec '" + text +
                                  "': expected name:weight[:max_jobs]");
    }
  }
  if (config.weight <= 0.0) {
    throw std::invalid_argument("pool spec '" + text +
                                "': weight must be positive");
  }
  if (config.max_running_jobs < 0) {
    throw std::invalid_argument("pool spec '" + text +
                                "': max_jobs must be >= 0");
  }
  return config;
}

PoolTree::PoolTree(const std::vector<PoolConfig>& pools) {
  Node root;
  root.name = "";
  nodes_.push_back(root);
  by_name_[""] = 0;
  for (const PoolConfig& config : pools) {
    if (config.name.empty()) {
      throw std::invalid_argument("PoolTree: pool name must be non-empty");
    }
    if (by_name_.count(config.name) != 0) {
      throw std::invalid_argument("PoolTree: duplicate pool '" + config.name +
                                  "'");
    }
    if (config.weight <= 0.0) {
      throw std::invalid_argument("PoolTree: pool '" + config.name +
                                  "' has non-positive weight");
    }
    const auto parent_it = by_name_.find(config.parent);
    if (parent_it == by_name_.end()) {
      throw std::invalid_argument("PoolTree: pool '" + config.name +
                                  "' names unknown parent '" + config.parent +
                                  "' (declare parents first)");
    }
    Node node;
    node.name = config.name;
    node.parent = parent_it->second;
    node.weight = config.weight;
    node.max_running_jobs = config.max_running_jobs;
    const int index = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    by_name_[config.name] = index;
    auto& siblings = nodes_[parent_it->second].children;
    siblings.push_back(index);
    std::sort(siblings.begin(), siblings.end(), [this](int a, int b) {
      return nodes_[a].name < nodes_[b].name;
    });
  }
}

int PoolTree::IndexOf(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

bool PoolTree::HasPool(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return by_name_.count(name) != 0;
}

void PoolTree::JoinJob(int job, const std::string& pool) {
  std::scoped_lock lock(mu_);
  const int index = IndexOf(pool);
  if (index < 0) {
    throw std::invalid_argument("PoolTree: job joins unknown pool '" + pool +
                                "'");
  }
  job_pool_[job] = index;
}

void PoolTree::LeaveJob(int job) {
  std::scoped_lock lock(mu_);
  job_pool_.erase(job);
}

int PoolTree::NodeOfJobLocked(int job) const {
  auto it = job_pool_.find(job);
  return it == job_pool_.end() ? 0 : it->second;
}

void PoolTree::OnGrant(int job) {
  std::scoped_lock lock(mu_);
  for (int n = NodeOfJobLocked(job); n >= 0; n = nodes_[n].parent) {
    ++nodes_[n].usage;
    ++nodes_[n].total_grants;
  }
}

void PoolTree::OnRelease(int job) {
  std::scoped_lock lock(mu_);
  for (int n = NodeOfJobLocked(job); n >= 0; n = nodes_[n].parent) {
    --nodes_[n].usage;
  }
}

bool PoolTree::AtJobQuota(const std::string& pool) const {
  std::scoped_lock lock(mu_);
  // The quota of every ancestor applies: a subtree cap bounds its whole
  // organization, so running-job counts roll up the chain here.
  int running_below = 0;
  for (int n = IndexOf(pool); n >= 0; n = nodes_[n].parent) {
    running_below += nodes_[n].running_jobs;
    if (nodes_[n].max_running_jobs > 0 &&
        running_below >= nodes_[n].max_running_jobs) {
      return true;
    }
  }
  return false;
}

void PoolTree::OnJobStart(const std::string& pool) {
  std::scoped_lock lock(mu_);
  const int index = IndexOf(pool);
  if (index >= 0) ++nodes_[index].running_jobs;
}

void PoolTree::OnJobFinish(const std::string& pool) {
  std::scoped_lock lock(mu_);
  const int index = IndexOf(pool);
  if (index >= 0) --nodes_[index].running_jobs;
}

int PoolTree::Pick(const std::vector<Waiter>& waiters) const {
  std::scoped_lock lock(mu_);
  if (waiters.empty()) return -1;

  // Waiter counts per node: direct (jobs attached to the node itself) and
  // subtree (direct + descendants), so the descent can tell which children
  // are eligible.
  std::vector<int> direct(nodes_.size(), 0);
  std::vector<int> subtree(nodes_.size(), 0);
  for (const Waiter& w : waiters) {
    const int leaf = NodeOfJobLocked(w.job);
    ++direct[leaf];
    for (int n = leaf; n >= 0; n = nodes_[n].parent) ++subtree[n];
  }

  // Descend from the root.  At each node, candidates are the children with
  // waiting subtrees plus (when the node has directly-attached waiters) the
  // node's own direct pool, modeled as an implicit weight-1 child whose
  // usage is whatever the children do not account for.  Minimize
  // usage/weight via the cross-multiplied integer-exact comparison; ties go
  // to the lexicographically smallest name, and the implicit direct pool's
  // empty name sorts first.
  int node = 0;
  while (true) {
    std::int64_t child_usage = 0;
    for (int c : nodes_[node].children) child_usage += nodes_[c].usage;

    int best_child = -1;   // -2 encodes "direct pool of `node`"
    double best_usage = 0.0;
    double best_weight = 1.0;
    std::string best_name;
    const auto consider = [&](int child, std::int64_t usage, double weight,
                              const std::string& name) {
      if (best_child == -1 ||
          static_cast<double>(usage) * best_weight <
              best_usage * weight ||
          (static_cast<double>(usage) * best_weight ==
               best_usage * weight &&
           name < best_name)) {
        best_child = child;
        best_usage = static_cast<double>(usage);
        best_weight = weight;
        best_name = name;
      }
    };
    if (direct[node] > 0) {
      consider(-2, nodes_[node].usage - child_usage, 1.0, "");
    }
    for (int c : nodes_[node].children) {
      if (subtree[c] == 0) continue;
      consider(c, nodes_[c].usage, nodes_[c].weight, nodes_[c].name);
    }
    if (best_child == -1) return -1;  // no eligible waiter anywhere
    if (best_child == -2) break;      // this node's direct pool wins
    node = best_child;
    if (nodes_[node].children.empty()) break;  // leaf: direct waiters only
  }

  // Within the winning pool: earliest admission ordinal, job id as the
  // final deterministic tie-break.
  int best_job = -1;
  std::int64_t best_seq = 0;
  for (const Waiter& w : waiters) {
    if (NodeOfJobLocked(w.job) != node) continue;
    if (best_job == -1 || w.seq < best_seq ||
        (w.seq == best_seq && w.job < best_job)) {
      best_job = w.job;
      best_seq = w.seq;
    }
  }
  return best_job;
}

std::vector<PoolTree::PoolStats> PoolTree::Stats() const {
  std::scoped_lock lock(mu_);
  std::vector<PoolStats> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    PoolStats s;
    s.name = node.name.empty() ? "(root)" : node.name;
    s.weight = node.weight;
    s.running_jobs = node.running_jobs;
    s.slots_held = node.usage;
    s.total_grants = node.total_grants;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace opmr::sched
