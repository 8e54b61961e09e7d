#include "engine/map_sinks.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <mutex>

#include "engine/shuffle_remote.h"
#include "net/wire.h"
#include "storage/record_stream.h"

namespace opmr {
namespace {

namespace fs = std::filesystem;

class MapSinksTest : public ::testing::Test {
 protected:
  MapSinksTest()
      : files_(FileManager::CreateTemp("opmr-sinks")),
        service_(std::make_unique<ShuffleService>(1, 3, &metrics_, 2)) {}

  // Drains all items for a reducer after marking the (single) map done.
  std::vector<ShuffleItem> Drain(int reducer) {
    std::vector<ShuffleItem> items;
    ShuffleItem item;
    while (service_->NextItem(reducer, &item)) items.push_back(item);
    return items;
  }

  static std::multimap<std::string, std::string> ReadItem(
      const ShuffleItem& item, MetricRegistry* metrics) {
    std::multimap<std::string, std::string> out;
    IoChannel channel(metrics, "t.read");
    std::unique_ptr<RecordStream> stream;
    if (item.from_file) {
      auto reader = std::make_unique<RunReader>(item.path, channel);
      reader->Restrict(item.segment.offset, item.segment.bytes);
      stream = std::move(reader);
    } else {
      stream = std::make_unique<MemoryRunStream>(Slice(item.bytes));
    }
    while (stream->Next()) {
      out.emplace(stream->key().ToString(), stream->value().ToString());
    }
    return out;
  }

  FileManager files_;
  MetricRegistry metrics_;
  std::unique_ptr<ShuffleService> service_;
};

TEST_F(MapSinksTest, FileSinkBatchSegmentsReadBackPerPartition) {
  FileSink sink(0, &files_, &metrics_, service_.get(), 3, 1 << 20);
  sink.BeginBatch(/*sorted=*/true);
  sink.BatchAppend(0, "a", "1");
  sink.BatchAppend(0, "b", "2");
  sink.BatchAppend(2, "c", "3");  // partition 1 left empty
  sink.EndBatch();
  sink.Close();
  sink.Publish();
  service_->MapTaskDone(0);

  const auto items0 = Drain(0);
  ASSERT_EQ(items0.size(), 1u);
  EXPECT_TRUE(items0[0].sorted);
  EXPECT_EQ(items0[0].records, 2u);
  const auto records0 = ReadItem(items0[0], &metrics_);
  EXPECT_EQ(records0.count("a"), 1u);
  EXPECT_EQ(records0.count("b"), 1u);

  EXPECT_TRUE(Drain(1).empty());

  const auto items2 = Drain(2);
  ASSERT_EQ(items2.size(), 1u);
  EXPECT_EQ(ReadItem(items2[0], &metrics_).count("c"), 1u);
}

TEST_F(MapSinksTest, FileSinkRejectsUngroupedBatch) {
  FileSink sink(0, &files_, &metrics_, service_.get(), 3, 1 << 20);
  sink.BeginBatch(true);
  sink.BatchAppend(2, "x", "1");
  EXPECT_THROW(sink.BatchAppend(0, "y", "2"), std::logic_error);
}

TEST_F(MapSinksTest, FileSinkBatchLifecycleErrors) {
  FileSink sink(0, &files_, &metrics_, service_.get(), 3, 1 << 20);
  EXPECT_THROW(sink.BatchAppend(0, "k", "v"), std::logic_error);
  EXPECT_THROW(sink.EndBatch(), std::logic_error);
  sink.BeginBatch(true);
  EXPECT_THROW(sink.BeginBatch(true), std::logic_error);
  EXPECT_THROW(sink.Close(), std::logic_error);
}

TEST_F(MapSinksTest, FileSinkStreamingFlushesOnLimitAndClose) {
  // Tiny stream buffer: forces an intermediate flush.
  FileSink sink(0, &files_, &metrics_, service_.get(), 3, /*stream=*/64);
  for (int i = 0; i < 10; ++i) {
    sink.AppendStreaming(static_cast<std::uint32_t>(i % 3),
                         "key" + std::to_string(i), "0123456789");
  }
  sink.Close();
  sink.Publish();
  service_->MapTaskDone(0);

  std::multimap<std::string, std::string> all;
  for (int r = 0; r < 3; ++r) {
    for (const auto& item : Drain(r)) {
      EXPECT_FALSE(item.sorted);
      const auto records = ReadItem(item, &metrics_);
      all.insert(records.begin(), records.end());
    }
  }
  EXPECT_EQ(all.size(), 10u);
  EXPECT_EQ(all.count("key7"), 1u);
}

TEST_F(MapSinksTest, FileSinkBytesOutCountsPayload) {
  FileSink sink(0, &files_, &metrics_, service_.get(), 3, 1 << 20);
  sink.BeginBatch(false);
  sink.BatchAppend(0, "abc", "de");
  sink.EndBatch();
  sink.Close();
  EXPECT_EQ(sink.bytes_out(), 5u);
  EXPECT_GT(metrics_.Value(device::kMapOutputWrite), 0);
}

TEST_F(MapSinksTest, PushSinkDeliversChunksInMemory) {
  // A roomy queue: nothing should divert.
  service_ = std::make_unique<ShuffleService>(1, 3, &metrics_, 64);
  PushSink sink(0, &files_, &metrics_, service_.get(), 3, /*chunk=*/32);
  for (int i = 0; i < 6; ++i) {
    sink.AppendStreaming(1, "key" + std::to_string(i), "valuevalue");
  }
  sink.Close();
  service_->MapTaskDone(0);

  const auto items = Drain(1);
  EXPECT_GT(items.size(), 1u) << "chunk limit of 32B must split the stream";
  std::multimap<std::string, std::string> all;
  for (const auto& item : items) {
    EXPECT_FALSE(item.from_file);
    const auto records = ReadItem(item, &metrics_);
    all.insert(records.begin(), records.end());
  }
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(sink.pushed_chunks(), items.size());
  EXPECT_EQ(sink.diverted_chunks(), 0u);
}

TEST_F(MapSinksTest, PushSinkDivertsUnderBackpressure) {
  // Queue bound is 2 chunks; the rest must divert to disk but still arrive.
  PushSink sink(0, &files_, &metrics_, service_.get(), 3, /*chunk=*/16);
  for (int i = 0; i < 20; ++i) {
    sink.AppendStreaming(0, "k" + std::to_string(i), "0123456789");
  }
  sink.Close();
  service_->MapTaskDone(0);

  EXPECT_GT(sink.diverted_chunks(), 0u);
  EXPECT_EQ(metrics_.Value(device::kDivertedChunks),
            static_cast<std::int64_t>(sink.diverted_chunks()));

  std::multimap<std::string, std::string> all;
  int memory_items = 0, file_items = 0;
  for (const auto& item : Drain(0)) {
    item.from_file ? ++file_items : ++memory_items;
    const auto records = ReadItem(item, &metrics_);
    all.insert(records.begin(), records.end());
  }
  EXPECT_EQ(all.size(), 20u) << "no record may be lost in the divert path";
  EXPECT_GT(file_items, 0);
  EXPECT_EQ(memory_items, 2);
}

TEST_F(MapSinksTest, PushSinkSortedBatchesCutChunksAtBatchBoundaries) {
  PushSink sink(0, &files_, &metrics_, service_.get(), 3, /*chunk=*/1 << 20);
  sink.BeginBatch(/*sorted=*/true);
  sink.BatchAppend(0, "a", "1");
  sink.BatchAppend(0, "b", "2");
  sink.EndBatch();
  sink.BeginBatch(/*sorted=*/true);
  sink.BatchAppend(0, "a2", "3");
  sink.EndBatch();
  sink.Close();
  service_->MapTaskDone(0);

  const auto items = Drain(0);
  ASSERT_EQ(items.size(), 2u) << "each batch is its own (sorted) chunk";
  EXPECT_TRUE(items[0].sorted);
  EXPECT_TRUE(items[1].sorted);
}

TEST_F(MapSinksTest, FileSinkOutputInvisibleUntilPublished) {
  FileSink sink(0, &files_, &metrics_, service_.get(), 3, 1 << 20);
  sink.BeginBatch(false);
  sink.BatchAppend(0, "k", "v");
  sink.EndBatch();
  sink.Close();
  // Not published: a failed attempt would be discarded here and reducers
  // must see nothing.
  service_->MapTaskDone(0);
  EXPECT_TRUE(Drain(0).empty());
}

TEST_F(MapSinksTest, PushSinkPersistsAllOutputForFaultTolerance) {
  PushSink sink(0, &files_, &metrics_, service_.get(), 3, /*chunk=*/64);
  for (int i = 0; i < 10; ++i) {
    sink.AppendStreaming(0, "key" + std::to_string(i), "0123456789");
  }
  sink.Close();
  // All payload bytes (plus framing) must have hit the local file even
  // though chunks were pushed in memory.
  EXPECT_GE(metrics_.Value(device::kMapOutputWrite),
            static_cast<std::int64_t>(sink.bytes_out()));
}

TEST_F(MapSinksTest, PushSinkNamesThePersistedCopyOfEachChunk) {
  service_ = std::make_unique<ShuffleService>(1, 3, &metrics_, 64);
  PushSink sink(0, &files_, &metrics_, service_.get(), 3, /*chunk=*/32);
  for (int i = 0; i < 6; ++i) {
    sink.AppendStreaming(2, "key" + std::to_string(i), "valuevalue");
  }
  sink.Close();
  service_->MapTaskDone(0);

  const auto items = Drain(2);
  ASSERT_GT(items.size(), 1u);
  for (const auto& item : items) {
    ASSERT_FALSE(item.from_file);
    EXPECT_EQ(item.segment.bytes, item.bytes.size());
    EXPECT_EQ(item.segment.records, item.records);
    std::string on_disk(item.segment.bytes, '\0');
    SequentialReader reader(item.path, IoChannel());
    reader.Seek(item.segment.offset);
    ASSERT_TRUE(reader.ReadExact(on_disk.data(), on_disk.size()));
    EXPECT_EQ(on_disk, item.bytes);
  }
}

// Records every frame a client sends; never replies, so nothing is acked.
class RecordingTransport final : public net::Transport {
 public:
  class Conn final : public net::Connection {
   public:
    explicit Conn(RecordingTransport* owner) : owner_(owner) {}
    void Send(const net::Frame& frame) override {
      std::scoped_lock lock(owner_->mu_);
      owner_->sent_.push_back(frame);
    }
    void Close() override {}

   private:
    RecordingTransport* owner_;
  };

  void Listen(net::FrameHandler) override {}
  std::shared_ptr<net::Connection> Connect(net::FrameHandler) override {
    return std::make_shared<Conn>(this);
  }
  [[nodiscard]] std::string endpoint() const override { return "recording"; }
  void Shutdown() override {}

  std::vector<net::Frame> TakeChunks() {
    std::scoped_lock lock(mu_);
    std::vector<net::Frame> chunks;
    for (auto& frame : sent_) {
      if (frame.type == net::FrameType::kChunk) chunks.push_back(frame);
    }
    sent_.clear();
    return chunks;
  }

 private:
  std::mutex mu_;
  std::vector<net::Frame> sent_;
};

TEST_F(MapSinksTest, ClientReplaysPushedChunksFromTheirPersistedCopy) {
  RecordingTransport transport;
  ShuffleClient::Options options;
  options.job = "replay";
  options.num_map_tasks = 1;
  options.num_reducers = 1;
  options.push_queue_chunks = 16;
  ShuffleClient client(&transport, &metrics_, options);
  PushSink sink(0, &files_, &metrics_, &client, 1, /*chunk=*/64);
  for (int i = 0; i < 12; ++i) {
    sink.AppendStreaming(0, "key" + std::to_string(i), "0123456789");
  }
  sink.Close();

  const auto first = transport.TakeChunks();
  ASSERT_GT(first.size(), 1u);
  ASSERT_EQ(sink.pushed_chunks(), first.size());
  ASSERT_EQ(client.UnackedFrames(), first.size());

  client.ReplayUnacked();
  const auto replayed = transport.TakeChunks();
  ASSERT_EQ(replayed.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(replayed[i].payload, first[i].payload) << "frame " << i;
  }

  // The window holds references, not payloads: rewrite the persisted file
  // and the next replay carries the new bytes.
  fs::path push_file;
  for (const auto& entry : fs::directory_iterator(files_.root())) {
    if (entry.path().filename().string().find("map_out_push") !=
        std::string::npos) {
      push_file = entry.path();
    }
  }
  ASSERT_FALSE(push_file.empty());
  const auto size = fs::file_size(push_file);
  {
    std::ofstream out(push_file, std::ios::binary | std::ios::trunc);
    out << std::string(size, 'Z');
  }
  client.ReplayUnacked();
  const auto rewritten = transport.TakeChunks();
  ASSERT_EQ(rewritten.size(), first.size());
  for (const auto& frame : rewritten) {
    const auto msg = net::ChunkMsg::Parse(frame);
    EXPECT_EQ(msg.bytes, std::string(msg.bytes.size(), 'Z'));
  }
}

}  // namespace
}  // namespace opmr
