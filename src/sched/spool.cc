#include "sched/spool.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace opmr::sched {

namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::uint64_t ParseCount(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t n = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return n;
  } catch (...) {
    throw std::invalid_argument("spool: bad number for '" + key +
                                "': " + value);
  }
}

}  // namespace

SpoolSpec ParseSpoolSpec(const std::string& id, std::istream& in) {
  SpoolSpec spec;
  spec.id = id;
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("spool job '" + id +
                                  "': expected key=value, got: " + trimmed);
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key == "workload") {
      spec.workload = value;
    } else if (key == "runtime") {
      spec.runtime = value;
    } else if (key == "transport") {
      if (value != "direct" && value != "loopback" && value != "tcp") {
        throw std::invalid_argument("spool job '" + id +
                                    "': unknown transport: " + value);
      }
      spec.transport = value;
    } else if (key == "records") {
      spec.records = ParseCount(key, value);
    } else if (key == "reducers") {
      spec.reducers = static_cast<int>(ParseCount(key, value));
    } else if (key == "memory_bytes") {
      spec.memory_bytes = static_cast<std::size_t>(ParseCount(key, value));
    } else if (key == "checkpoint_interval") {
      spec.checkpoint_interval = ParseCount(key, value);
    } else if (key == "checkpoint_retain") {
      spec.checkpoint_retain = static_cast<int>(ParseCount(key, value));
    } else {
      throw std::invalid_argument("spool job '" + id + "': unknown key '" +
                                  key + "'");
    }
  }
  if (spec.reducers < 1) {
    throw std::invalid_argument("spool job '" + id +
                                "': reducers must be at least 1");
  }
  return spec;
}

SpoolSpec LoadSpoolFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("spool: cannot open " + path.string());
  }
  return ParseSpoolSpec(path.stem().string(), in);
}

std::vector<SpoolSpec> DrainSpoolDir(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".job") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<SpoolSpec> specs;
  specs.reserve(files.size());
  for (const auto& path : files) {
    specs.push_back(LoadSpoolFile(path));
    std::filesystem::path done = path;
    done += ".done";
    std::filesystem::rename(path, done);
  }
  return specs;
}

}  // namespace opmr::sched
