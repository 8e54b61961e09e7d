// Per-key aggregator state table used by the incremental reducers.
//
// Unlike the map side's arena table (optimized for bulk flush), this table
// supports the operations incremental processing needs: in-place fold,
// eviction of a single key (hot-key demotion), and early-emission marking.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "common/slice.h"
#include "engine/job.h"

namespace opmr {

class StateTable {
 public:
  struct Entry {
    std::string state;
    bool early_emitted = false;
  };

  explicit StateTable(const Aggregator* aggregator) : aggregator_(aggregator) {
    if (aggregator_ == nullptr) {
      throw std::invalid_argument("StateTable requires an aggregator");
    }
  }

  // Folds `value` into `key`'s state (Init on first sight); returns the
  // entry so callers can check early-emission policy.
  Entry& Fold(Slice key, Slice value, bool value_is_state) {
    auto it = map_.find(key.view());
    if (it == map_.end()) {
      Entry entry;
      if (value_is_state) {
        entry.state.assign(value.data(), value.size());
      } else {
        aggregator_->Init(value, &entry.state);
      }
      bytes_ += key.size() + entry.state.size() + kEntryOverhead;
      it = map_.emplace(std::string(key.view()), std::move(entry)).first;
      return it->second;
    }
    const std::size_t before = it->second.state.size();
    if (value_is_state) {
      aggregator_->Merge(&it->second.state, value);
    } else {
      aggregator_->Update(&it->second.state, value);
    }
    bytes_ += it->second.state.size() - before;
    return it->second;
  }

  // Removes `key`, moving its state into `out_state` (and its early-emit
  // mark into `early_emitted`, when given); false if absent.
  bool Extract(Slice key, std::string* out_state,
               bool* early_emitted = nullptr) {
    auto it = map_.find(key.view());
    if (it == map_.end()) return false;
    bytes_ -= it->first.size() + it->second.state.size() + kEntryOverhead;
    *out_state = std::move(it->second.state);
    if (early_emitted != nullptr) *early_emitted = it->second.early_emitted;
    map_.erase(it);
    return true;
  }

  [[nodiscard]] bool Contains(Slice key) const {
    return map_.count(key.view()) != 0;
  }

  // Point lookup; nullptr when absent.  The pointer is valid until the
  // next mutating call.
  [[nodiscard]] const Entry* Find(Slice key) const {
    auto it = map_.find(key.view());
    return it == map_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] std::size_t MemoryBytes() const noexcept { return bytes_; }

  void ForEach(
      const std::function<void(Slice key, const Entry& entry)>& fn) const {
    for (const auto& [key, entry] : map_) fn(key, entry);
  }

  void Clear() {
    map_.clear();
    bytes_ = 0;
  }

 private:
  // Amortized container overhead per entry (bucket pointer, node header,
  // string headers); used only for budget accounting, not correctness.
  static constexpr std::size_t kEntryOverhead = 96;

  const Aggregator* aggregator_;
  std::unordered_map<std::string, Entry, TransparentStringHash,
                     std::equal_to<>>
      map_;
  std::size_t bytes_ = 0;
};

}  // namespace opmr
