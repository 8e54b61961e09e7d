#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "metrics/counters.h"
#include "storage/file_manager.h"
#include "storage/io.h"
#include "storage/run_format.h"

namespace opmr {
namespace {

namespace fs = std::filesystem;

// Counts physical reads and remembers each one's (offset, bytes); forwards
// to `next` when set.  Installed for the lifetime of the object.
class RecordingHook final : public IoFaultHook {
 public:
  explicit RecordingHook(IoFaultHook* next = nullptr) : next_(next) {
    SetIoFaultHook(this);
  }
  ~RecordingHook() override { SetIoFaultHook(nullptr); }

  void BeforeWrite(const fs::path& path, std::uint64_t offset,
                   std::size_t bytes) override {
    if (next_ != nullptr) next_->BeforeWrite(path, offset, bytes);
  }
  void BeforeRead(const fs::path& path, std::uint64_t offset,
                  std::size_t bytes) override {
    reads.emplace_back(offset, bytes);
    if (next_ != nullptr) next_->BeforeRead(path, offset, bytes);
  }

  std::vector<std::pair<std::uint64_t, std::size_t>> reads;

 private:
  IoFaultHook* next_;
};

// Writes raw bytes (crafted headers included) to a fresh file.
fs::path WriteRaw(FileManager* files, const std::string& bytes) {
  const auto path = files->NewFile("raw");
  SequentialWriter w(path, IoChannel());
  w.Append(bytes);
  w.Close();
  return path;
}

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : files_(FileManager::CreateTemp("opmr-test")) {}

  IoChannel Channel(const char* name = "test.bytes") {
    return {&metrics_, name};
  }

  FileManager files_;
  MetricRegistry metrics_;
};

TEST_F(StorageTest, NewFilePathsAreUnique) {
  std::set<fs::path> paths;
  for (int i = 0; i < 100; ++i) paths.insert(files_.NewFile("spill"));
  EXPECT_EQ(paths.size(), 100u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.parent_path(), files_.root());
  }
}

TEST_F(StorageTest, NewDirIsCreated) {
  const auto dir = files_.NewDir("sub");
  EXPECT_TRUE(fs::is_directory(dir));
}

TEST_F(StorageTest, DestructorRemovesWorkspace) {
  fs::path root;
  {
    FileManager temp = FileManager::CreateTemp("opmr-cleanup");
    root = temp.root();
    SequentialWriter w(temp.NewFile("f"), Channel());
    w.Append("data");
    w.Close();
    EXPECT_TRUE(fs::exists(root));
  }
  EXPECT_FALSE(fs::exists(root));
}

TEST_F(StorageTest, DiskUsageTracksWrites) {
  EXPECT_EQ(files_.DiskUsageBytes(), 0u);
  SequentialWriter w(files_.NewFile("f"), Channel());
  w.Append(std::string(10'000, 'x'));
  w.Close();
  EXPECT_GE(files_.DiskUsageBytes(), 10'000u);
}

TEST_F(StorageTest, WriterReaderRoundTrip) {
  const auto path = files_.NewFile("rt");
  {
    SequentialWriter w(path, Channel());
    w.Append("hello ");
    w.AppendU32(1234);
    w.AppendU64(5678);
    w.Append("world");
    w.Close();
  }
  SequentialReader r(path, Channel());
  char buf[6];
  ASSERT_TRUE(r.ReadExact(buf, 6));
  EXPECT_EQ(std::string(buf, 6), "hello ");
  std::uint32_t v32 = 0;
  ASSERT_TRUE(r.ReadU32(&v32));
  EXPECT_EQ(v32, 1234u);
  std::uint64_t v64 = 0;
  ASSERT_TRUE(r.ReadU64(&v64));
  EXPECT_EQ(v64, 5678u);
  char buf2[5];
  ASSERT_TRUE(r.ReadExact(buf2, 5));
  EXPECT_EQ(std::string(buf2, 5), "world");
  EXPECT_FALSE(r.ReadExact(buf, 1));  // clean EOF
}

TEST_F(StorageTest, ReaderSeekRepositions) {
  const auto path = files_.NewFile("seek");
  {
    SequentialWriter w(path, Channel());
    w.Append("0123456789");
    w.Close();
  }
  SequentialReader r(path, Channel());
  r.Seek(7);
  char c;
  ASSERT_TRUE(r.ReadExact(&c, 1));
  EXPECT_EQ(c, '7');
  EXPECT_EQ(r.FileSize(), 10u);
}

TEST_F(StorageTest, TruncatedReadThrows) {
  const auto path = files_.NewFile("trunc");
  {
    SequentialWriter w(path, Channel());
    w.Append("abc");
    w.Close();
  }
  SequentialReader r(path, Channel());
  char buf[10];
  EXPECT_THROW(r.ReadExact(buf, 10), std::runtime_error);
}

TEST_F(StorageTest, ChannelAccountsBytes) {
  const auto path = files_.NewFile("acct");
  {
    SequentialWriter w(path, Channel("w.bytes"));
    w.Append(std::string(1000, 'a'));
    w.Close();
  }
  EXPECT_EQ(metrics_.Value("w.bytes"), 1000);
  EXPECT_GE(metrics_.Value("w.bytes.ops"), 1);

  SequentialReader r(path, Channel("r.bytes"));
  char buf[250];
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(r.ReadExact(buf, sizeof(buf)));
  }
  EXPECT_FALSE(r.ReadExact(buf, 1));  // clean EOF
  EXPECT_EQ(metrics_.Value("r.bytes"), 1000);
}

TEST_F(StorageTest, SyncFlushPersists) {
  const auto path = files_.NewFile("sync");
  SequentialWriter w(path, Channel());
  w.Append("durable");
  w.Flush(/*sync=*/true);
  EXPECT_EQ(fs::file_size(path), 7u);
  w.Close();
}

TEST_F(StorageTest, WriteAfterCloseThrows) {
  const auto path = files_.NewFile("closed");
  SequentialWriter w(path, Channel());
  w.Close();
  EXPECT_THROW(w.Flush(), std::logic_error);
}

TEST_F(StorageTest, BytesWrittenCountsPayload) {
  SequentialWriter w(files_.NewFile("count"), Channel());
  w.Append("12345");
  w.AppendU32(0);
  EXPECT_EQ(w.bytes_written(), 9u);
  w.Close();
}

TEST_F(StorageTest, RunFormatRoundTrip) {
  const auto path = files_.NewFile("run");
  {
    RunWriter w(path, Channel());
    w.Append("alpha", "1");
    w.Append("beta", "");
    w.Append("", "valueonly");
    EXPECT_EQ(w.num_records(), 3u);
    w.Close();
  }
  RunReader r(path, Channel());
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "alpha");
  EXPECT_EQ(r.value().ToString(), "1");
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "beta");
  EXPECT_TRUE(r.value().empty());
  ASSERT_TRUE(r.Next());
  EXPECT_TRUE(r.key().empty());
  EXPECT_EQ(r.value().ToString(), "valueonly");
  EXPECT_FALSE(r.Next());
}

TEST_F(StorageTest, RunReaderRestrictReadsOneSegment) {
  const auto path = files_.NewFile("seg");
  std::uint64_t seg1_end = 0;
  {
    RunWriter w(path, Channel());
    w.Append("seg0-key", "seg0-val");
    w.Flush();
    seg1_end = w.bytes_written();
    w.Append("seg1-keyA", "x");
    w.Append("seg1-keyB", "y");
    w.Close();
  }
  // Segment 2 only.
  RunReader r(path, Channel());
  r.Restrict(seg1_end, 0);
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "seg1-keyA");
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.key().ToString(), "seg1-keyB");
  EXPECT_FALSE(r.Next());

  // Segment 1 only: restriction must stop exactly at the boundary.
  RunReader r1(path, Channel());
  r1.Restrict(0, seg1_end);
  ASSERT_TRUE(r1.Next());
  EXPECT_EQ(r1.key().ToString(), "seg0-key");
  EXPECT_FALSE(r1.Next());
}

TEST_F(StorageTest, RunReaderRestrictDetectsCrossingRecord) {
  const auto path = files_.NewFile("cross");
  {
    RunWriter w(path, Channel());
    w.Append("0123456789", "0123456789");
    w.Close();
  }
  RunReader r(path, Channel());
  r.Restrict(0, 10);  // cuts through the record
  EXPECT_THROW(r.Next(), std::runtime_error);
}

TEST_F(StorageTest, LargeRecordsSurviveRoundTrip) {
  const auto path = files_.NewFile("large");
  const std::string big_value(5u << 20, 'V');
  {
    RunWriter w(path, Channel());
    w.Append("big", big_value);
    w.Close();
  }
  RunReader r(path, Channel());
  ASSERT_TRUE(r.Next());
  EXPECT_EQ(r.value().size(), big_value.size());
  EXPECT_EQ(r.value().ToString(), big_value);
}

TEST_F(StorageTest, ReadPathChargesOncePerPhysicalRead) {
  const auto path = files_.NewFile("contract");
  {
    RunWriter w(path, Channel());
    for (int i = 0; i < 10'000; ++i) {
      w.Append("key" + std::to_string(i), "v");
    }
    w.Close();
  }
  const std::uint64_t bytes = fs::file_size(path);
  RecordingHook hook;
  {
    RunReader r(path, Channel("contract.bytes"));
    int records = 0;
    while (r.Next()) ++records;
    EXPECT_EQ(records, 10'000);
  }
  EXPECT_LE(hook.reads.size(), (bytes + 4095) / 4096 + 1);
  EXPECT_EQ(metrics_.Value("contract.bytes"),
            static_cast<std::int64_t>(bytes));
  EXPECT_EQ(metrics_.Value("contract.bytes.ops"),
            static_cast<std::int64_t>(hook.reads.size()));
}

TEST_F(StorageTest, RestrictedRunReaderChargesOnlyItsSegment) {
  const auto path = files_.NewFile("segcharge");
  std::uint64_t seg0_bytes = 0;
  {
    RunWriter w(path, Channel());
    for (int i = 0; i < 500; ++i) w.Append("a" + std::to_string(i), "x");
    w.Flush();
    seg0_bytes = w.bytes_written();
    for (int i = 0; i < 500; ++i) w.Append("b" + std::to_string(i), "y");
    w.Close();
  }
  {
    // The reader's block-sized refills run past the segment's end.
    RunReader r(path, Channel("seg0.bytes"));
    r.Restrict(0, seg0_bytes);
    while (r.Next()) {
    }
  }
  EXPECT_EQ(metrics_.Value("seg0.bytes"),
            static_cast<std::int64_t>(seg0_bytes));
  {
    RunReader r(path, Channel("seg1.bytes"));
    r.Restrict(seg0_bytes, 0);
    int records = 0;
    while (r.Next()) ++records;
    EXPECT_EQ(records, 500);
  }
  EXPECT_EQ(metrics_.Value("seg1.bytes"),
            static_cast<std::int64_t>(fs::file_size(path) - seg0_bytes));
}

TEST_F(StorageTest, SeekAfterPartialReadReturnsTheRightBytes) {
  std::string data(20'000, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + i % 26);
  }
  const auto path = WriteRaw(&files_, data);
  {
    SequentialReader r(path, Channel("seek.bytes"));
    char buf[100];
    ASSERT_TRUE(r.ReadExact(buf, sizeof(buf)));
    EXPECT_EQ(std::string(buf, 100), data.substr(0, 100));
    r.Seek(12'345);  // forward, past the buffered block
    ASSERT_TRUE(r.ReadExact(buf, 10));
    EXPECT_EQ(std::string(buf, 10), data.substr(12'345, 10));
    r.Seek(50);  // backward, into bytes already consumed
    ASSERT_TRUE(r.ReadExact(buf, 10));
    EXPECT_EQ(std::string(buf, 10), data.substr(50, 10));
    r.Seek(19'995);
    EXPECT_THROW(r.ReadExact(buf, 10), std::runtime_error);
  }
  // Consumed bytes only: 100 + 10 + 10 + the 5 of the truncated read.
  EXPECT_EQ(metrics_.Value("seek.bytes"), 125);
}

TEST_F(StorageTest, AfterBytesReadFaultFiresOnTheCrossingRead) {
  const auto path = WriteRaw(&files_, std::string(20'000, 'r'));
  MetricRegistry fault_metrics;
  FaultInjector injector(FaultPlan::Parse("io_read:after_bytes=10000"),
                         &fault_metrics);
  FaultScope scope(FaultScope::Kind::kMap, 0, 1);
  RecordingHook hook(&injector);
  SequentialReader r(path, Channel());
  char buf[100];
  std::uint64_t consumed = 0;
  EXPECT_THROW(
      {
        while (r.ReadExact(buf, sizeof(buf))) consumed += sizeof(buf);
      },
      InjectedFault);
  EXPECT_EQ(injector.injected(), 1);
  ASSERT_FALSE(hook.reads.empty());
  const auto [offset, bytes] = hook.reads.back();
  EXPECT_LT(offset, 10'000u);
  EXPECT_GE(offset + bytes, 10'000u);
  for (std::size_t i = 0; i + 1 < hook.reads.size(); ++i) {
    EXPECT_LT(hook.reads[i].first + hook.reads[i].second, 10'000u);
  }
  EXPECT_LT(consumed, 10'000u);
}

TEST_F(StorageTest, RunReaderRejectsLengthsThatOverflowU32) {
  // klen + vlen wraps to 0 in 32 bits; the record must not come back as a
  // 4 GiB key over an empty buffer.
  std::string header;
  AppendU32(header, 0xFFFFFFFFu);
  AppendU32(header, 1);
  const auto path = WriteRaw(&files_, header);
  RunReader r(path, Channel());
  EXPECT_THROW(r.Next(), std::runtime_error);
}

TEST_F(StorageTest, RunReaderRejectsRecordLongerThanTheFile) {
  std::string bytes;
  AppendU32(bytes, 1u << 20);
  AppendU32(bytes, 0);
  bytes += "short";
  const auto path = WriteRaw(&files_, bytes);
  RunReader r(path, Channel());
  try {
    (void)r.Next();
    FAIL() << "expected a truncation error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("RunReader: truncated record payload"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace opmr
