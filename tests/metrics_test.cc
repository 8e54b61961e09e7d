#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "metrics/counter_rows.h"
#include "metrics/counters.h"
#include "metrics/phase_profiler.h"
#include "metrics/stopwatch.h"
#include "metrics/timeline.h"
#include "metrics/timeseries.h"

namespace opmr {
namespace {

TEST(Counters, GetReturnsStablePointer) {
  MetricRegistry registry;
  Counter* a = registry.Get("x");
  Counter* b = registry.Get("x");
  EXPECT_EQ(a, b);
  a->Add(5);
  EXPECT_EQ(registry.Value("x"), 5);
}

TEST(Counters, SnapshotContainsAllCounters) {
  MetricRegistry registry;
  registry.Get("a")->Add(1);
  registry.Get("b")->Add(2);
  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.at("a"), 1);
  EXPECT_EQ(snap.at("b"), 2);
  EXPECT_EQ(registry.Value("absent"), 0);
}

TEST(CounterRows, SkipsZerosSortsByNameAndFormatsByName) {
  const std::map<std::string, std::int64_t> counters = {
      {"shuffle.bytes_read", 2048},
      {"shuffle.bytes_read.ops", 4},
      {"retry.map_task", 3},
      {"retry.reduce_task", 0},
      {"net.stall_nanos", 40'000'000},
      {"checkpoint.recover_us", 1'500'000},
      {"retry.backoff_ms", 250},
      {"checkpoint.bytes_written", 0},
  };
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"checkpoint.recover_us", "1.5 s"},
      {"net.stall_nanos", "40.0 ms"},
      {"retry.backoff_ms", "250.0 ms"},
      {"retry.map_task", "3"},
      {"shuffle.bytes_read", "2.00 KB"},
      {"shuffle.bytes_read.ops", "4"},
  };
  EXPECT_EQ(CounterRows(counters), expected);
  EXPECT_TRUE(CounterRows({{"a", 0}}).empty());
}

TEST(Counters, ConcurrentIncrementsAreLossless) {
  MetricRegistry registry;
  Counter* c = registry.Get("hot");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50'000;
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([c] {
        for (int i = 0; i < kIncrements; ++i) c->Increment();
      });
    }
  }
  EXPECT_EQ(c->value(), kThreads * kIncrements);
}

TEST(Counters, ResetAllZeroes) {
  MetricRegistry registry;
  registry.Get("a")->Add(9);
  registry.ResetAll();
  EXPECT_EQ(registry.Value("a"), 0);
}

TEST(Stopwatch, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100'000; ++i) sink += i;
  EXPECT_GT(t.Nanos(), 0);
}

TEST(Stopwatch, ThreadCpuTimerCountsOwnWorkOnly) {
  // Busy thread accumulates CPU; a sleeping thread barely does.
  ThreadCpuTimer busy;
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 2'000'000; ++i) x = x * 1664525 + 1013904223;
  const auto busy_ns = busy.Nanos();
  EXPECT_GT(busy_ns, 100'000);  // definitely did work

  ThreadCpuTimer idle;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_LT(idle.Nanos(), busy_ns);
}

TEST(PhaseProfiler, AccumulatesPerPhase) {
  PhaseProfiler profiler;
  profiler.AddCpuNanos("map", 1'000'000);
  profiler.AddCpuNanos("map", 2'000'000);
  profiler.AddCpuNanos("sort", 500'000);
  EXPECT_DOUBLE_EQ(profiler.CpuSeconds("map"), 0.003);
  EXPECT_DOUBLE_EQ(profiler.CpuSeconds("sort"), 0.0005);
  EXPECT_DOUBLE_EQ(profiler.CpuSeconds("absent"), 0.0);
  EXPECT_DOUBLE_EQ(profiler.TotalCpuSeconds(), 0.0035);
}

TEST(PhaseProfiler, PhaseScopeChargesOnExit) {
  PhaseProfiler profiler;
  {
    PhaseScope scope(&profiler, "work");
    volatile std::uint64_t x = 1;
    for (int i = 0; i < 1'000'000; ++i) x += i;
  }
  EXPECT_GT(profiler.CpuSeconds("work"), 0.0);
}

TEST(PhaseProfiler, StopIsIdempotent) {
  PhaseProfiler profiler;
  PhaseScope scope(&profiler, "once");
  scope.Stop();
  const double after_first = profiler.CpuSeconds("once");
  scope.Stop();
  EXPECT_DOUBLE_EQ(profiler.CpuSeconds("once"), after_first);
}

TEST(Timeline, ActiveAtCountsOverlaps) {
  TimelineRecorder rec;
  rec.Record(TaskKind::kMap, 0.0, 10.0);
  rec.Record(TaskKind::kMap, 5.0, 15.0);
  rec.Record(TaskKind::kReduce, 8.0, 20.0);
  EXPECT_EQ(rec.ActiveAt(TaskKind::kMap, 7.0), 2);
  EXPECT_EQ(rec.ActiveAt(TaskKind::kMap, 12.0), 1);
  EXPECT_EQ(rec.ActiveAt(TaskKind::kMap, 19.0), 0);
  EXPECT_EQ(rec.ActiveAt(TaskKind::kReduce, 12.0), 1);
  EXPECT_DOUBLE_EQ(rec.EndTime(), 20.0);
}

TEST(Timeline, SampleActiveHasFourKinds) {
  TimelineRecorder rec;
  rec.Record(TaskKind::kMerge, 0.0, 10.0);
  const auto series = rec.SampleActive(20);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[static_cast<int>(TaskKind::kMerge)][0], 1);
  EXPECT_EQ(series[static_cast<int>(TaskKind::kMap)][0], 0);
}

TEST(Timeline, KindNames) {
  EXPECT_STREQ(TaskKindName(TaskKind::kMap), "map");
  EXPECT_STREQ(TaskKindName(TaskKind::kShuffle), "shuffle");
  EXPECT_STREQ(TaskKindName(TaskKind::kMerge), "merge");
  EXPECT_STREQ(TaskKindName(TaskKind::kReduce), "reduce");
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries series("s");
  series.Append(0, 1.0);
  series.Append(1, 3.0);
  series.Append(2, 100.0);
  EXPECT_DOUBLE_EQ(series.MeanIn(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(series.MeanIn(0, 3), 104.0 / 3);
  EXPECT_DOUBLE_EQ(series.MeanIn(5, 9), 0.0);
  EXPECT_DOUBLE_EQ(series.MaxValue(), 100.0);
}

TEST(TimeSeries, AsciiPlotRendersSamples) {
  TimeSeries series("ramp");
  for (int i = 0; i <= 100; ++i) series.Append(i, i / 100.0);
  const std::string plot = AsciiPlot(series, 40, 8, 1.0);
  EXPECT_NE(plot.find("ramp"), std::string::npos);
  EXPECT_NE(plot.find('#'), std::string::npos);
}

TEST(TimeSeries, AsciiPlotEmpty) {
  TimeSeries series("empty");
  EXPECT_NE(AsciiPlot(series).find("(no samples)"), std::string::npos);
}

}  // namespace
}  // namespace opmr
