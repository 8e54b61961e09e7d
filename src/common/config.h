// Typed key-value configuration used by examples and bench binaries to
// accept Hadoop-style "-Dkey=value" overrides on the command line.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace opmr {

class Config {
 public:
  Config() = default;

  void Set(std::string key, std::string value) {
    values_[std::move(key)] = std::move(value);
  }

  // Parses argv, consuming "key=value" and "--key=value" tokens.  Unknown
  // positional arguments raise: bench binaries have no positional inputs.
  static Config FromArgs(int argc, char** argv) {
    Config cfg;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      while (!arg.empty() && arg.front() == '-') arg.erase(arg.begin());
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        cfg.Set(arg, "true");  // boolean flag form: --verbose
      } else {
        cfg.Set(arg.substr(0, eq), arg.substr(eq + 1));
      }
    }
    return cfg;
  }

  // Every typed getter goes through Get, which records `key` as read.  That
  // bookkeeping makes reads non-const in effect: use one Config from one
  // thread.
  [[nodiscard]] std::optional<std::string> Get(const std::string& key) const {
    read_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string GetString(const std::string& key,
                                      std::string def) const {
    auto v = Get(key);
    return v ? *v : std::move(def);
  }

  [[nodiscard]] std::int64_t GetInt(const std::string& key,
                                    std::int64_t def) const {
    auto v = Get(key);
    return v ? std::stoll(*v) : def;
  }

  [[nodiscard]] double GetDouble(const std::string& key, double def) const {
    auto v = Get(key);
    return v ? std::stod(*v) : def;
  }

  [[nodiscard]] bool GetBool(const std::string& key, bool def) const {
    auto v = Get(key);
    if (!v) return def;
    return *v == "true" || *v == "1" || *v == "yes";
  }

  // Keys that were set but never read, in sorted order: a caller that has
  // read every key it understands reports these as unknown (typos, removed
  // flags) instead of silently running a different job.
  [[nodiscard]] std::vector<std::string> UnreadKeys() const {
    std::vector<std::string> unread;
    for (const auto& [key, value] : values_) {
      if (!read_.contains(key)) unread.push_back(key);
    }
    return unread;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace opmr
