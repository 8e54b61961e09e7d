// The paper's benchmark tasks as JobSpec builders (Table I):
//
//   * Sessionization        — click stream; holistic reduce; the largest
//                             intermediate data (≈ input size and beyond).
//   * Page-frequency count  — click stream; SUM aggregator; combiner shrinks
//                             intermediate data to ≪ 1 % of input.
//   * Per-user click count  — click stream; SUM aggregator.
//   * Inverted index        — web documents; holistic reduce; substantial
//                             intermediate data (no combiner applies).
//   * Word count            — web documents; SUM aggregator (the canonical
//                             problem page-frequency is a variant of).
#pragma once

#include <string>

#include "engine/job.h"
#include "workloads/clickstream.h"

namespace opmr {

// Gap that closes a session, in click-timestamp units (the paper's task
// definition leaves this to the application; 30 min is the web convention).
inline constexpr std::uint64_t kDefaultSessionGap = 1800;

JobSpec SessionizationJob(const std::string& input, const std::string& output,
                          int num_reducers,
                          ClickFormat format = ClickFormat::kText,
                          std::uint64_t session_gap = kDefaultSessionGap);

// Sessionization via secondary sort: the map key is the user id in a
// fixed-width field followed by the big-endian timestamp, grouping_prefix
// (the user field) keeps whole users together, and the framework's sort
// delivers each user's clicks already time-ordered — the reduce function
// streams with O(1) memory instead of buffering and re-sorting every
// user's click list (the classic Hadoop composite-key idiom).
JobSpec SessionizationSecondarySortJob(
    const std::string& input, const std::string& output, int num_reducers,
    std::uint64_t session_gap = kDefaultSessionGap);

JobSpec PageFrequencyJob(const std::string& input, const std::string& output,
                         int num_reducers,
                         ClickFormat format = ClickFormat::kText);

JobSpec PerUserCountJob(const std::string& input, const std::string& output,
                        int num_reducers,
                        ClickFormat format = ClickFormat::kText);

JobSpec InvertedIndexJob(const std::string& input, const std::string& output,
                         int num_reducers);

JobSpec WordCountJob(const std::string& input, const std::string& output,
                     int num_reducers);

// COUNT(DISTINCT user) GROUP BY url — approximate distinct visitors per
// page via the HyperLogLog aggregator (one-pass, fixed per-key state).
JobSpec DistinctVisitorsJob(const std::string& input,
                            const std::string& output, int num_reducers,
                            unsigned hll_precision = 11);

}  // namespace opmr
