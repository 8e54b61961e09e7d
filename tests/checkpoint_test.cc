// Checkpoint subsystem tests: the CheckpointManager commit protocol
// (serialize → CRC → tmp+rename, retention, corruption fallback) and the
// recovery paths built on it — a crashed reduce task under the pipelined
// push shuffle restoring from its image and replaying only the
// un-acknowledged suffix (the Table III cell the paper's compared systems
// leave blank), and a streaming worker recovering mid-stream.
#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "core/opmr.h"
#include "engine/aggregators.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"
#include "stream/streaming_job.h"
#include "workloads/clickstream.h"
#include "workloads/tasks.h"

namespace opmr {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

// --- CheckpointManager ------------------------------------------------------

class CheckpointManagerTest : public ::testing::Test {
 protected:
  CheckpointManagerTest() : files_(FileManager::CreateTemp("ckpt-test")) {}

  CheckpointManager Manager(CheckpointOptions options, int worker = 0) {
    options.enabled = true;
    return CheckpointManager(dir_, "unit job", worker, options, &metrics_);
  }

  static CheckpointImage SampleImage(std::uint64_t watermark) {
    CheckpointImage image;
    image.watermark = watermark;
    image.feeds = {{0, 100}, {3, 42}};
    image.spill_files.push_back({"/tmp/run0", 4096});
    image.sketch.push_back({"hot", 17, 2});
    image.sketch_stream_length = 123;
    image.entries.push_back({"alpha", std::string("\x01\x00s", 3), false});
    image.entries.push_back({"beta", "state-two", true});
    return image;
  }

  FileManager files_;
  std::filesystem::path dir_ = files_.NewDir("images");
  MetricRegistry metrics_;
};

// Header: magic [8] | version u32 @8 | flags u8 @12 | seq u64 @13 |
// crc u32 @21 | payload size u64 @25 | payload @33.  Version 2 images carry
// the CRC-32C of the payload; a version 1 (IEEE CRC-32) image is refused.
TEST_F(CheckpointManagerTest, ImagesAreVersionTwoWithCrc32c) {
  auto manager = Manager({.interval_records = 10});
  CheckpointImage image = SampleImage(777);
  manager.Write(&image);
  std::filesystem::path path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    path = entry.path();
  }
  ASSERT_FALSE(path.empty());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 33u);
  std::uint32_t version = 0;
  std::uint32_t crc = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&crc, bytes.data() + 21, 4);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(crc, Crc32c(bytes.data() + 33, bytes.size() - 33));

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put('\x01');
  }
  EXPECT_FALSE(manager.LoadLatest().has_value());
  EXPECT_EQ(metrics_.Value("checkpoint.corrupt"), 1);
}

TEST_F(CheckpointManagerTest, ImageBytesAreStable) {
  // Images outlive the process that wrote them: pin the payload layout.
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : SerializeCheckpointImage(SampleImage(777))) {
    const auto b = static_cast<unsigned char>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  EXPECT_EQ(hex,
            "090300000000000002000000000000006400000000000000030000002a000000"
            "0000000001000000090000002f746d702f72756e300010000000000000010000"
            "0003000000686f74110000000000000002000000000000007b00000000000000"
            "0200000000000000050000000300000000616c70686101007304000000090000"
            "00016265746173746174652d74776f");
}

// A count the payload cannot hold is a std::runtime_error — the contract
// replicas catch — raised before anything is reserved from it.
TEST_F(CheckpointManagerTest, LyingCountsAreRejectedBeforeAllocation) {
  // Empty image: watermark u64 | feeds u32 @8 | spills u32 @12 |
  // sketch u32 @16 | sketch_stream_length u64 @20 | entries u64 @28.
  const std::string empty = SerializeCheckpointImage(CheckpointImage{});
  ASSERT_EQ(empty.size(), 36u);
  const auto lie = [&empty](std::size_t offset, std::uint64_t count,
                            std::size_t width) {
    std::string body = empty;
    std::memcpy(body.data() + offset, &count, width);
    return body;
  };
  EXPECT_THROW((void)ParseCheckpointImage(lie(28, 1ull << 62, 8)),
               std::runtime_error);
  EXPECT_THROW((void)ParseCheckpointImage(lie(8, 0xFFFFFFFFull, 4)),
               std::runtime_error);
  EXPECT_THROW((void)ParseCheckpointImage(lie(16, 1ull << 28, 4)),
               std::runtime_error);
}

TEST_F(CheckpointManagerTest, RoundTripPreservesEveryField) {
  auto manager = Manager({.interval_records = 10});
  CheckpointImage image = SampleImage(777);
  EXPECT_GT(manager.Write(&image), 0u);
  EXPECT_EQ(image.seq, 1u);

  const auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 1u);
  EXPECT_EQ(loaded->watermark, 777u);
  EXPECT_EQ(loaded->feeds, SampleImage(0).feeds);
  ASSERT_EQ(loaded->spill_files.size(), 1u);
  EXPECT_EQ(loaded->spill_files[0].path, "/tmp/run0");
  EXPECT_EQ(loaded->spill_files[0].committed_bytes, 4096u);
  ASSERT_EQ(loaded->sketch.size(), 1u);
  EXPECT_EQ(loaded->sketch[0].key, "hot");
  EXPECT_EQ(loaded->sketch[0].count, 17u);
  EXPECT_EQ(loaded->sketch[0].error, 2u);
  EXPECT_EQ(loaded->sketch_stream_length, 123u);
  ASSERT_EQ(loaded->entries.size(), 2u);
  EXPECT_EQ(loaded->entries[0].key, "alpha");
  EXPECT_EQ(loaded->entries[0].state, std::string("\x01\x00s", 3));
  EXPECT_FALSE(loaded->entries[0].early_emitted);
  EXPECT_TRUE(loaded->entries[1].early_emitted);
  EXPECT_EQ(metrics_.Value(kCheckpointsWritten), 1);
  EXPECT_EQ(metrics_.Value(kCheckpointsLoaded), 1);
}

TEST_F(CheckpointManagerTest, CompressedImagesRoundTrip) {
  auto manager = Manager({.interval_records = 10, .compress = true});
  CheckpointImage image = SampleImage(5);
  // Pad with repetitive states so compression has something to chew on.
  for (int i = 0; i < 500; ++i) {
    image.entries.push_back({"key-" + std::to_string(i),
                             std::string(64, 'a'), false});
  }
  manager.Write(&image);
  const auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entries.size(), image.entries.size());
  EXPECT_EQ(loaded->entries.back().state, std::string(64, 'a'));
}

TEST_F(CheckpointManagerTest, RetentionKeepsOnlyLastK) {
  auto manager = Manager({.interval_records = 10, .retain = 2});
  for (std::uint64_t wm : {10u, 20u, 30u}) {
    CheckpointImage image = SampleImage(wm);
    manager.Write(&image);
  }
  std::size_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    on_disk += entry.path().extension() == ".ckpt" ? 1 : 0;
  }
  EXPECT_EQ(on_disk, 2u);
  // The ack point trails the retention window: any retained image restores.
  ASSERT_TRUE(manager.OldestRetainedWatermark().has_value());
  EXPECT_EQ(*manager.OldestRetainedWatermark(), 20u);
  const auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->watermark, 30u);
}

TEST_F(CheckpointManagerTest, CorruptLatestFallsBackToOlderImage) {
  auto manager = Manager({.interval_records = 10, .retain = 2});
  CheckpointImage first = SampleImage(100);
  manager.Write(&first);
  CheckpointImage second = SampleImage(200);
  manager.Write(&second);

  // Flip a payload byte in the newest image: CRC must reject it.
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  const auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->watermark, 100u);
  EXPECT_EQ(metrics_.Value("checkpoint.corrupt"), 1);
}

TEST_F(CheckpointManagerTest, ResetDeletesStaleImages) {
  auto manager = Manager({.interval_records = 10});
  CheckpointImage image = SampleImage(7);
  manager.Write(&image);
  manager.Reset();
  EXPECT_FALSE(manager.LoadLatest().has_value());
  EXPECT_FALSE(manager.OldestRetainedWatermark().has_value());
}

TEST_F(CheckpointManagerTest, WorkersDoNotSeeEachOthersImages) {
  auto w0 = Manager({.interval_records = 10}, /*worker=*/0);
  auto w1 = Manager({.interval_records = 10}, /*worker=*/1);
  CheckpointImage image = SampleImage(50);
  w0.Write(&image);
  EXPECT_FALSE(w1.LoadLatest().has_value());
  ASSERT_TRUE(w0.LoadLatest().has_value());
}

TEST_F(CheckpointManagerTest, DueTracksConfiguredIntervals) {
  auto manager = Manager({.interval_records = 100, .interval_bytes = 1 << 20});
  EXPECT_FALSE(manager.Due());
  manager.OnProgress(99, 0);
  EXPECT_FALSE(manager.Due());
  manager.OnProgress(1, 0);
  EXPECT_TRUE(manager.Due());
  CheckpointImage image = SampleImage(1);
  manager.Write(&image);  // resets the trigger accounting
  EXPECT_FALSE(manager.Due());
  manager.OnProgress(0, 2u << 20);  // byte interval fires independently
  EXPECT_TRUE(manager.Due());
}

// --- multi-job GC of a shared checkpoint directory --------------------------

class CheckpointSweepTest : public CheckpointManagerTest {
 protected:
  CheckpointManager ManagerFor(const std::string& job, int worker) {
    CheckpointOptions options;
    options.enabled = true;
    options.interval_records = 10;
    return CheckpointManager(dir_, job, worker, options, &metrics_);
  }

  void WriteImage(CheckpointManager* manager, std::uint64_t watermark) {
    CheckpointImage image = SampleImage(watermark);
    manager->Write(&image);
  }
};

TEST_F(CheckpointSweepTest, SweepRemovesOnlyTheFinishedJobsImages) {
  auto done_w0 = ManagerFor("finished job", 0);
  auto done_w1 = ManagerFor("finished job", 1);
  auto live = ManagerFor("still running", 0);
  WriteImage(&done_w0, 10);
  WriteImage(&done_w1, 20);
  WriteImage(&live, 30);

  EXPECT_EQ(CheckpointManager::SweepFinishedJobs(dir_, "finished job"), 2);

  // The live job's image is untouched and still restorable.
  const auto survivor = live.LoadLatest();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->watermark, 30u);
  // Every worker's image of the finished job is gone.
  EXPECT_FALSE(ManagerFor("finished job", 0).LoadLatest().has_value());
  EXPECT_FALSE(ManagerFor("finished job", 1).LoadLatest().has_value());
  // Sweeping again finds nothing.
  EXPECT_EQ(CheckpointManager::SweepFinishedJobs(dir_, "finished job"), 0);
}

TEST_F(CheckpointSweepTest, SweepCollectsDanglingTmpFiles) {
  // A crash between write and rename leaves a `.ckpt.tmp` sibling; the
  // sweep must collect it along with the committed images.
  auto manager = ManagerFor("crashy job", 0);
  WriteImage(&manager, 5);
  const auto tmp =
      dir_ / (CheckpointJobPrefix("crashy job") + "0_9.ckpt.tmp");
  { std::ofstream(tmp) << "torn write"; }
  ASSERT_TRUE(std::filesystem::exists(tmp));

  EXPECT_EQ(CheckpointManager::SweepFinishedJobs(dir_, "crashy job"), 2);
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST_F(CheckpointSweepTest, SweepNeverMatchesOnAMereNamePrefix) {
  // Job "alpha" and job "alpha_w2" both produce filenames starting with
  // "alpha_w"; the sweep must parse the worker/seq structure, not just the
  // string prefix.  Unrelated files in the directory are also off-limits.
  auto alpha = ManagerFor("alpha", 0);
  auto lookalike = ManagerFor("alpha_w2", 0);
  WriteImage(&alpha, 1);
  WriteImage(&lookalike, 2);
  const auto note = dir_ / "alpha_w0_notes.txt";
  { std::ofstream(note) << "not a checkpoint"; }

  EXPECT_EQ(CheckpointManager::SweepFinishedJobs(dir_, "alpha"), 1);
  const auto kept = ManagerFor("alpha_w2", 0).LoadLatest();
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->watermark, 2u);
  EXPECT_TRUE(std::filesystem::exists(note));
}

TEST_F(CheckpointSweepTest, SweepOfMissingDirectoryIsZeroNotAnError) {
  EXPECT_EQ(CheckpointManager::SweepFinishedJobs(dir_ / "never-created",
                                                 "any job"),
            0);
}

// --- batch engine: checkpointed recovery under push shuffle -----------------

struct RunOutcome {
  JobResult result;
  Rows rows;
};

RunOutcome RunCheckpointedPerUserCount(const std::string& fault_plan,
                                       std::uint64_t interval_records) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.max_task_attempts = 2;
  popts.retry_backoff_base_ms = 0.1;
  popts.retry_backoff_max_ms = 1.0;
  popts.fault_plan = fault_plan;
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 60'000;
  gen.num_users = 8'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  RunOutcome out;
  out.result = platform.Run(PerUserCountJob("clicks", "out", 2),
                            CheckpointedOnePassOptions(interval_records));
  for (int r = 0; r < 2; ++r) {
    const auto part = platform.ReadOutputFile("out.part" + std::to_string(r));
    out.rows.insert(out.rows.end(), part.begin(), part.end());
  }
  return out;
}

// The PR's acceptance scenario: a reduce crash inside a push-pipelined job
// with checkpointing completes byte-identically to the clean run and
// replays only the records after the last checkpoint.
TEST(CheckpointRecovery, PushReduceCrashRestoresAndReplaysOnlySuffix) {
  // Interval chosen to land the last checkpoint mid-feed (~half the
  // reducer's records), leaving a real suffix for the replay to cover.
  const auto clean = RunCheckpointedPerUserCount("", 4'000);
  const auto chaos = RunCheckpointedPerUserCount(
      "seed=11;reduce_crash:task=1,record=50", 4'000);

  EXPECT_EQ(chaos.result.Bytes(kRetryReduceTask), 1);
  EXPECT_EQ(chaos.result.Bytes(kFaultsInjected), 1);
  EXPECT_GT(chaos.result.Bytes(kCheckpointsWritten), 0);
  EXPECT_GE(chaos.result.Bytes(kCheckpointsLoaded), 1);
  EXPECT_GT(chaos.result.Bytes(device::kCheckpointWrite), 0);
  // On completion the executor GCs the job's images from the checkpoint
  // directory (multi-job sweep).
  EXPECT_GT(chaos.result.Bytes(kCheckpointsSwept), 0);
  // Suffix-only replay: more than nothing (the crash happened after the
  // last image), far less than the reducer's whole feed.
  EXPECT_GT(chaos.result.Bytes(kReplayRecords), 0);
  EXPECT_LT(chaos.result.Bytes(kReplayRecords),
            static_cast<std::int64_t>(chaos.result.map_output_records));
  ASSERT_GT(clean.rows.size(), 0u);
  EXPECT_EQ(chaos.rows, clean.rows);  // byte-identical, order included
}

TEST(CheckpointRecovery, CheckpointedOutputMatchesPlainHashRuntime) {
  // Checkpointing must be invisible in the answer: same rows as the plain
  // one-pass runtime (checkpointed parts are key-sorted, so compare as maps).
  const auto checkpointed = RunCheckpointedPerUserCount("", 2'000);
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 60'000;
  gen.num_users = 8'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  platform.Run(PerUserCountJob("clicks", "out", 2), HashOnePassOptions());
  std::map<std::string, std::string> plain;
  for (int r = 0; r < 2; ++r) {
    for (const auto& [k, v] :
         platform.ReadOutputFile("out.part" + std::to_string(r))) {
      plain[k] = v;
    }
  }
  std::map<std::string, std::string> ckpt(checkpointed.rows.begin(),
                                          checkpointed.rows.end());
  EXPECT_EQ(ckpt, plain);
}

TEST(CheckpointRecovery, ReduceCrashWithoutCheckpointingReportsTableIII) {
  PlatformOptions popts;
  popts.num_nodes = 3;
  popts.block_bytes = 256u << 10;
  popts.max_task_attempts = 2;
  popts.retry_backoff_base_ms = 0.1;
  popts.fault_plan = "seed=11;reduce_crash:task=1,record=50";
  Platform platform(popts);
  ClickStreamOptions gen;
  gen.num_records = 60'000;
  gen.num_users = 8'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  try {
    platform.Run(PerUserCountJob("clicks", "out", 2), HashOnePassOptions());
    FAIL() << "push reduce crash without checkpoints must not succeed";
  } catch (const std::runtime_error& e) {
    // A structured error naming the paper's trade-off, not a crash.
    EXPECT_NE(std::string(e.what()).find("pipelin"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointRecovery, ValidatesCheckpointOptionCombinations) {
  Platform platform({.num_nodes = 2, .block_bytes = 256u << 10});
  ClickStreamOptions gen;
  gen.num_records = 1'000;
  GenerateClickStream(platform.dfs(), "clicks", gen);
  const auto spec = PerUserCountJob("clicks", "out", 2);

  JobOptions sort_merge = HadoopOptions();
  sort_merge.checkpoint = CheckpointedOnePassOptions().checkpoint;
  EXPECT_THROW(platform.Run(spec, sort_merge), std::invalid_argument);

  JobOptions no_interval = CheckpointedOnePassOptions();
  no_interval.checkpoint.interval_records = 0;
  EXPECT_THROW(platform.Run(spec, no_interval), std::invalid_argument);

  JobOptions bad_retain = CheckpointedOnePassOptions();
  bad_retain.checkpoint.retain = 0;
  EXPECT_THROW(platform.Run(spec, bad_retain), std::invalid_argument);
}

// --- streaming: worker crash + recovery -------------------------------------

StreamingQuery CountQuery() {
  StreamingQuery query;
  query.name = "count by key";
  query.aggregator = std::make_shared<SumAggregator>();
  query.map = [](Slice record, OutputCollector& out) {
    static thread_local std::string one = EncodeValueU64(1);
    std::size_t tab = 0;
    while (tab < record.size() && record[tab] != '\t') ++tab;
    out.Emit(Slice(record.data(), tab), one);
  };
  return query;
}

TEST(StreamingRecovery, CrashedWorkerRestoresAndStreamStaysExact) {
  StreamingOptions options;
  options.checkpoint.enabled = true;
  options.checkpoint.interval_records = 500;
  StreamingJob job(CountQuery(), options, /*workers=*/2);

  Rng rng(21);
  std::vector<std::string> source;
  std::map<std::string, std::uint64_t> truth;
  source.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(600));
    ++truth[key];
    source.push_back(key + "\tx");
  }
  for (const auto& record : source) job.Ingest(record);

  job.CrashWorker(1);
  const std::uint64_t resume = job.Recover();
  // A checkpoint existed, so recovery starts past the beginning but before
  // the crash point — the replay is a strict suffix.
  EXPECT_GT(resume, 0u);
  EXPECT_LT(resume, source.size());
  EXPECT_EQ(job.records_ingested(), resume);
  EXPECT_GE(job.CounterValue(kCheckpointsLoaded), 1);

  for (std::size_t i = resume; i < source.size(); ++i) job.Ingest(source[i]);
  EXPECT_EQ(job.CounterValue(kReplayRecords),
            static_cast<std::int64_t>(source.size() - resume));

  std::map<std::string, std::uint64_t> actual;
  for (const auto& [k, v] : job.Finish()) actual[k] = DecodeValueU64(v);
  EXPECT_EQ(actual, truth);
}

TEST(StreamingRecovery, HotKeyWorkerRecoversSketchAndSpills) {
  StreamingOptions options;
  options.checkpoint.enabled = true;
  options.checkpoint.interval_records = 400;
  options.worker_budget_bytes = 8u << 10;  // force demotions + spills
  options.hot_key_capacity = 64;
  StreamingJob job(CountQuery(), options, 2);

  ZipfSampler zipf(2'000, 1.1, 5);
  std::vector<std::string> source;
  std::map<std::string, std::uint64_t> truth;
  for (int i = 0; i < 30'000; ++i) {
    const std::string key = "z" + std::to_string(zipf.Sample());
    ++truth[key];
    source.push_back(key + "\t.");
  }
  for (const auto& record : source) job.Ingest(record);

  job.CrashWorker(0);
  const std::uint64_t resume = job.Recover();
  EXPECT_LT(resume, source.size());
  for (std::size_t i = resume; i < source.size(); ++i) job.Ingest(source[i]);

  std::map<std::string, std::uint64_t> actual;
  for (const auto& [k, v] : job.Finish()) actual[k] = DecodeValueU64(v);
  EXPECT_EQ(actual, truth);
}

TEST(StreamingRecovery, RecoveryRequiresCheckpointing) {
  StreamingJob job(CountQuery(), {}, 2);
  EXPECT_THROW(job.CrashWorker(0), std::logic_error);
  EXPECT_THROW(job.Recover(), std::logic_error);
  job.Finish();
}

TEST(StreamingRecovery, CheckpointingRejectsEarlyEmit) {
  StreamingOptions options;
  options.checkpoint.enabled = true;
  options.checkpoint.interval_records = 100;
  options.early_emit = [](Slice, Slice) { return false; };
  EXPECT_THROW(StreamingJob(CountQuery(), options, 1), std::invalid_argument);

  StreamingOptions no_interval;
  no_interval.checkpoint.enabled = true;
  EXPECT_THROW(StreamingJob(CountQuery(), no_interval, 1),
               std::invalid_argument);
}

TEST(StreamingRecovery, RecoverWithoutCrashIsANoOp) {
  StreamingOptions options;
  options.checkpoint.enabled = true;
  options.checkpoint.interval_records = 100;
  StreamingJob job(CountQuery(), options, 2);
  for (int i = 0; i < 1'000; ++i) job.Ingest("k" + std::to_string(i) + "\tx");
  EXPECT_EQ(job.Recover(), 1'000u);
  EXPECT_EQ(job.records_ingested(), 1'000u);
  EXPECT_EQ(job.Finish().size(), 1'000u);
}

}  // namespace
}  // namespace opmr
