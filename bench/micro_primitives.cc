// Google-benchmark microbenchmarks of the primitives the runtimes are built
// from.  These are the numbers behind the simulator's calibration constants
// and the paper's core CPU argument: a buffer sort costs Θ(n log n)
// comparisons per block while a hash fold is Θ(n) — the gap the hash
// runtime banks.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/aggregators.h"
#include "engine/key_table.h"
#include "engine/map_output.h"
#include "engine/map_task.h"
#include "frequent/lossy_counting.h"
#include "frequent/misra_gries.h"
#include "frequent/space_saving.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"
#include "storage/merger.h"

namespace opmr {
namespace {

std::vector<std::string> MakeKeys(std::size_t n, std::uint64_t universe,
                                  double theta) {
  ZipfSampler zipf(universe, theta, 7);
  std::vector<std::string> keys;
  keys.reserve(n);
  char buf[16];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "u%06llu",
                  static_cast<unsigned long long>(zipf.Sample()));
    keys.emplace_back(buf);
  }
  return keys;
}

// The Hadoop map-side path: fill the buffer, sort on (partition, key).
void BM_MapBufferSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = MakeKeys(n, 100'000, 0.9);
  const std::string one = EncodeValueU64(1);
  for (auto _ : state) {
    MapOutputBuffer buffer;
    for (const auto& k : keys) {
      buffer.Add(static_cast<std::uint32_t>(BytesHash(k) % 8), k, one);
    }
    buffer.Sort();
    benchmark::DoNotOptimize(buffer.entries().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MapBufferSort)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// The hash map-side replacement: fold into the combine table, hashing and
// partitioning each key the way the map task does.
void BM_MapHashFold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = MakeKeys(n, 100'000, 0.9);
  const std::string one = EncodeValueU64(1);
  SumAggregator sum;
  for (auto _ : state) {
    KeyTable table(&sum, 1u << 12);
    for (const auto& k : keys) {
      const std::uint64_t h = BytesHash(k, kPartitionSeed);
      table.Fold(PartitionOfHash(h, 8), h, k, one, false);
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MapHashFold)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// The reduce-side fold of the incremental state store: combiner states
// merged per key, through the inline u64 path (0: sum) or the generic
// virtual path (1: avg).
void BM_StateFold(benchmark::State& state) {
  const auto keys = MakeKeys(1 << 17, 100'000, 0.9);
  SumAggregator sum;
  AvgAggregator avg;
  const bool generic = state.range(0) == 1;
  const Aggregator* agg = generic ? static_cast<const Aggregator*>(&avg) : &sum;
  std::string one;
  agg->Init(EncodeValueU64(1), &one);
  for (auto _ : state) {
    KeyTable table(agg);
    for (const auto& k : keys) table.Fold(k, one, /*value_is_state=*/true);
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.SetLabel(generic ? "avg" : "sum");
}
BENCHMARK(BM_StateFold)->Arg(0)->Arg(1);

void BM_BytesHash(benchmark::State& state) {
  const auto keys = MakeKeys(4096, 100'000, 0.9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BytesHash(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BytesHash);

void BM_TabulationHash(benchmark::State& state) {
  const TabulationHash hash(42);
  const auto keys = MakeKeys(4096, 100'000, 0.9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TabulationHash);

void BM_SketchOffer(benchmark::State& state) {
  const auto keys = MakeKeys(1 << 16, 100'000, 1.1);
  std::unique_ptr<FrequentSketch> sketch;
  switch (state.range(0)) {
    case 0: sketch = std::make_unique<SpaceSaving>(1024); break;
    case 1: sketch = std::make_unique<MisraGries>(1024); break;
    default: sketch = std::make_unique<LossyCounting>(1e-3); break;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    sketch->Offer(keys[i++ & 0xffff]);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(0) == 0   ? "space_saving"
                 : state.range(0) == 1 ? "misra_gries"
                                       : "lossy_counting");
}
BENCHMARK(BM_SketchOffer)->Arg(0)->Arg(1)->Arg(2);

void BM_KWayMerge(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const std::size_t per_run = 20'000;
  // Pre-build k sorted runs on disk.
  FileManager files = FileManager::CreateTemp("opmr-bench");
  MetricRegistry metrics;
  IoChannel channel(&metrics, "bench.bytes");
  std::vector<std::filesystem::path> paths;
  Rng rng(11);
  for (int r = 0; r < k; ++r) {
    std::vector<std::string> keys;
    keys.reserve(per_run);
    char buf[16];
    for (std::size_t i = 0; i < per_run; ++i) {
      std::snprintf(buf, sizeof(buf), "k%08llu",
                    static_cast<unsigned long long>(rng.Uniform(100'000'000)));
      keys.emplace_back(buf);
    }
    std::sort(keys.begin(), keys.end());
    RunWriter writer(files.NewFile("run"), channel);
    for (const auto& key : keys) writer.Append(key, "v");
    writer.Close();
    paths.push_back(writer.path());
  }
  for (auto _ : state) {
    std::vector<std::unique_ptr<RecordStream>> readers;
    readers.reserve(paths.size());
    for (const auto& p : paths) {
      readers.push_back(std::make_unique<RunReader>(p, channel));
    }
    KWayMerger merger(std::move(readers));
    std::uint64_t count = 0;
    while (merger.Next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * per_run * k);
}
BENCHMARK(BM_KWayMerge)->Arg(4)->Arg(16)->Arg(64);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1'000'000, 1.0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace opmr

BENCHMARK_MAIN();
