#include "workloads/tasks.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <vector>

#include "engine/aggregators.h"
#include "engine/hll.h"

namespace opmr {

namespace {

// Sessionization value payload: [u64 timestamp][url bytes].
void EncodeClickValue(std::string& out, std::uint64_t ts, Slice url) {
  out.clear();
  AppendU64(out, ts);
  out.append(url.data(), url.size());
}

// Extracts the raw url field of a text click record (third tab field).
Slice TextUrlField(Slice record) {
  std::size_t tabs = 0;
  std::size_t i = 0;
  for (; i < record.size(); ++i) {
    if (record[i] == '\t' && ++tabs == 2) break;
  }
  return {record.data() + i + 1, record.size() - i - 1};
}

// Extracts the raw user field of a text click record (second tab field).
Slice TextUserField(Slice record) {
  std::size_t first = 0;
  while (first < record.size() && record[first] != '\t') ++first;
  std::size_t second = first + 1;
  while (second < record.size() && record[second] != '\t') ++second;
  return {record.data() + first + 1, second - first - 1};
}

// Sets `row` to one sessionization output value, "s<session>\t<ts>\t<url>".
void FormatSessionRow(std::string& row, std::uint32_t session,
                      std::uint64_t ts, Slice url) {
  char digits[20];  // any u64
  row.assign(1, 's');
  row.append(digits, std::to_chars(std::begin(digits), std::end(digits),
                                   session).ptr);
  row.push_back('\t');
  row.append(digits,
             std::to_chars(std::begin(digits), std::end(digits), ts).ptr);
  row.push_back('\t');
  row.append(url.data(), url.size());
}

// The secondary-sort variant's composite key: [u8 user length][user id
// zero-padded to kUserWidth bytes][u64 big-endian timestamp].  The fixed
// width puts every user id, whatever its length, inside one grouping
// prefix, and byte order within a user's group is time order.
constexpr std::size_t kUserWidth = 11;  // 'u' + the 10 digits of any u32
constexpr std::size_t kUserGroupBytes = 1 + kUserWidth;

}  // namespace

JobSpec SessionizationJob(const std::string& input, const std::string& output,
                          int num_reducers, ClickFormat format,
                          std::uint64_t session_gap) {
  JobSpec spec;
  spec.name = "sessionization";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;

  spec.map = [format](Slice record, OutputCollector& out) {
    // Group click logs by user id; the value carries everything the
    // sessionization algorithm needs (paper §III-A).
    if (format == ClickFormat::kText) {
      // One value buffer per map thread: an 8-byte timestamp plus the url
      // outgrows the small-string buffer, so a fresh string per record
      // would allocate.
      static thread_local std::string value;
      const ClickRecord click = ParseClick(record, format);
      EncodeClickValue(value, click.timestamp, TextUrlField(record));
      out.Emit(TextUserField(record), value);
    } else {
      // Pre-parsed input: fields are re-emitted at fixed offsets with no
      // parsing or formatting at all (the SequenceFile advantage §III-B.1
      // investigates).
      char value[12];
      std::memcpy(value, record.data(), 8);       // timestamp
      std::memcpy(value + 8, record.data() + 12, 4);  // url id
      out.Emit(Slice(record.data() + 8, 4), Slice(value, sizeof(value)));
    }
  };

  spec.reduce = [session_gap](Slice user, ValueIterator& values,
                              OutputCollector& out) {
    // Values are either [u64 ts][url text] (text input) or
    // [u64 ts][u32 url] (binary input); the algorithm treats the url
    // payload as opaque bytes either way.
    // The sessionization algorithm: order this user's clicks by time and
    // cut a new session whenever the inter-click gap exceeds the limit.
    // Clicks are buffered as (ts, url range) over one byte buffer, both
    // reused across groups on this reducer thread: no heap object per click.
    struct Click {
      std::uint64_t ts;
      std::size_t offset;
      std::size_t len;
    };
    static thread_local std::vector<Click> clicks;
    static thread_local std::string urls;
    static thread_local std::string row;
    clicks.clear();
    urls.clear();
    Slice v;
    while (values.Next(&v)) {
      if (v.size() < 8) throw std::runtime_error("sessionization: bad value");
      clicks.push_back({DecodeU64(v.data()), urls.size(), v.size() - 8});
      urls.append(v.data() + 8, v.size() - 8);
    }
    // The map sort is stable, so each map task's clicks of a user arrive in
    // input order — time order for click logs — and the sort often has
    // nothing to do.
    const auto by_time = [](const Click& a, const Click& b) {
      return a.ts < b.ts;
    };
    if (!std::is_sorted(clicks.begin(), clicks.end(), by_time)) {
      std::sort(clicks.begin(), clicks.end(), by_time);
    }

    std::uint32_t session = 0;
    for (std::size_t i = 0; i < clicks.size(); ++i) {
      if (i > 0 && clicks[i].ts - clicks[i - 1].ts > session_gap) ++session;
      FormatSessionRow(row, session, clicks[i].ts,
                       Slice(urls.data() + clicks[i].offset, clicks[i].len));
      out.Emit(user, row);
    }
  };
  return spec;
}

JobSpec SessionizationSecondarySortJob(const std::string& input,
                                       const std::string& output,
                                       int num_reducers,
                                       std::uint64_t session_gap) {
  JobSpec spec;
  spec.name = "sessionization_ss";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;
  spec.grouping_prefix = kUserGroupBytes;

  spec.map = [](Slice record, OutputCollector& out) {
    const ClickRecord click = ParseClick(record, ClickFormat::kText);
    const Slice user = TextUserField(record);
    if (user.size() > kUserWidth) {
      throw std::runtime_error("sessionization_ss: user id too long");
    }
    // Key and value buffers are reused per map thread, as in the classic map.
    static thread_local std::string key;
    static thread_local std::string value;
    key.assign(kUserGroupBytes, '\0');
    key[0] = static_cast<char>(user.size());
    std::memcpy(key.data() + 1, user.data(), user.size());
    for (int shift = 56; shift >= 0; shift -= 8) {
      key.push_back(static_cast<char>((click.timestamp >> shift) & 0xff));
    }
    EncodeClickValue(value, click.timestamp, TextUrlField(record));
    out.Emit(key, value);
  };

  spec.reduce = [session_gap](Slice first_key, ValueIterator& values,
                              OutputCollector& out) {
    // Values arrive time-ordered: stream them with O(1) state — no
    // buffering, no per-user sort.
    const Slice user(first_key.data() + 1,
                     static_cast<std::uint8_t>(first_key[0]));
    std::uint32_t session = 0;
    std::uint64_t last_ts = 0;
    bool first = true;
    std::string row;
    Slice v;
    while (values.Next(&v)) {
      if (v.size() < 8) throw std::runtime_error("sessionization_ss: value");
      const std::uint64_t ts = DecodeU64(v.data());
      if (!first && ts - last_ts > session_gap) ++session;
      first = false;
      last_ts = ts;
      FormatSessionRow(row, session, ts, Slice(v.data() + 8, v.size() - 8));
      out.Emit(user, row);
    }
  };
  return spec;
}

JobSpec PageFrequencyJob(const std::string& input, const std::string& output,
                         int num_reducers, ClickFormat format) {
  JobSpec spec;
  spec.name = "page_frequency";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;
  spec.aggregator = std::make_shared<SumAggregator>();

  spec.map = [format](Slice record, OutputCollector& out) {
    // SELECT COUNT(*) FROM visits GROUP BY url  (paper §II).
    static thread_local std::string one = EncodeValueU64(1);
    if (format == ClickFormat::kText) {
      out.Emit(TextUrlField(record), one);
    } else {
      out.Emit(Slice(record.data() + 12, 4), one);  // raw url id field
    }
  };
  return spec;
}

JobSpec PerUserCountJob(const std::string& input, const std::string& output,
                        int num_reducers, ClickFormat format) {
  JobSpec spec;
  spec.name = "per_user_count";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;
  spec.aggregator = std::make_shared<SumAggregator>();

  spec.map = [format](Slice record, OutputCollector& out) {
    // Emits ("user id", 1) pairs — the workload whose map phase spends up
    // to 48 % of CPU cycles sorting in stock Hadoop (Table II).
    static thread_local std::string one = EncodeValueU64(1);
    if (format == ClickFormat::kText) {
      out.Emit(TextUserField(record), one);
    } else {
      out.Emit(Slice(record.data() + 8, 4), one);  // raw user id field
    }
  };
  return spec;
}

JobSpec InvertedIndexJob(const std::string& input, const std::string& output,
                         int num_reducers) {
  JobSpec spec;
  spec.name = "inverted_index";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;

  spec.map = [](Slice record, OutputCollector& out) {
    // "<doc_id>\t<w1> <w2> ..." → (word, "doc:position") per token.
    std::size_t tab = 0;
    while (tab < record.size() && record[tab] != '\t') ++tab;
    const Slice doc(record.data(), tab);

    std::string value;
    std::uint32_t position = 0;
    std::size_t i = tab + 1;
    while (i < record.size()) {
      std::size_t j = i;
      while (j < record.size() && record[j] != ' ') ++j;
      if (j > i) {
        value.assign(doc.data(), doc.size());
        value += ':';
        char buf[16];
        const int n = std::snprintf(buf, sizeof(buf), "%u", position);
        value.append(buf, static_cast<std::size_t>(n));
        out.Emit(Slice(record.data() + i, j - i), value);
        ++position;
      }
      i = j + 1;
    }
  };

  spec.reduce = [](Slice word, ValueIterator& values, OutputCollector& out) {
    // Concatenate the posting list for this word.
    std::string postings;
    Slice v;
    while (values.Next(&v)) {
      if (!postings.empty()) postings += ' ';
      postings.append(v.data(), v.size());
    }
    out.Emit(word, postings);
  };
  return spec;
}

JobSpec DistinctVisitorsJob(const std::string& input,
                            const std::string& output, int num_reducers,
                            unsigned hll_precision) {
  JobSpec spec;
  spec.name = "distinct_visitors";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;
  spec.aggregator = std::make_shared<HllAggregator>(hll_precision);

  spec.map = [](Slice record, OutputCollector& out) {
    // (url, user): the aggregator sketches the distinct users per url.
    out.Emit(TextUrlField(record), TextUserField(record));
  };
  return spec;
}

JobSpec WordCountJob(const std::string& input, const std::string& output,
                     int num_reducers) {
  JobSpec spec;
  spec.name = "word_count";
  spec.input_file = input;
  spec.output_file = output;
  spec.num_reducers = num_reducers;
  spec.aggregator = std::make_shared<SumAggregator>();

  spec.map = [](Slice record, OutputCollector& out) {
    static thread_local std::string one = EncodeValueU64(1);
    std::size_t tab = 0;
    while (tab < record.size() && record[tab] != '\t') ++tab;
    std::size_t i = tab + 1;
    while (i < record.size()) {
      std::size_t j = i;
      while (j < record.size() && record[j] != ' ') ++j;
      if (j > i) out.Emit(Slice(record.data() + i, j - i), one);
      i = j + 1;
    }
  };
  return spec;
}

}  // namespace opmr
