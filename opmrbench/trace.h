// In-memory span tracing for the benchmark's traced job.
//
// The benchmark measures each layer from outside the program, by timing the
// calls it makes into public seams: the map function, the aggregator or
// reduce function, the shuffle transport's Send and frame handler,
// StreamingJob::Ingest, the snapshot publish callback, and live queries.
//
//   * Coarse boundaries (job, send, frame handler, publish, query) record a
//     span on every call.
//   * Per-record boundaries (map fn, aggregator/reduce fn, ingest) keep
//     exact per-thread busy time and call counts, and record one span in
//     every kSampleEvery calls so a trace stays small.
//
// A layer's self time is its busy time minus the time its direct child
// scopes on the same thread took.  Spans go to a Chrome trace-event JSON
// file at exit (open it in Perfetto or chrome://tracing).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/job.h"
#include "net/transport.h"

namespace opmr::bench {

enum class Layer : int {
  kJob,
  kMapFn,
  kMapCombine,   // aggregator calls made inside a map fn call
  kReduceApply,  // aggregator / reduce fn calls made anywhere else
  kSend,
  kHandler,
  kIngest,
  kPublish,
  kQuery,
  kCount,
};

inline constexpr int kLayers = static_cast<int>(Layer::kCount);
inline constexpr std::array<const char*, kLayers> kLayerNames = {
    "job",         "map.fn",      "map.combine",   "reduce.apply",
    "net.send",    "net.handler", "stream.ingest", "serve.publish",
    "serve.query"};
inline constexpr std::array<bool, kLayers> kPerRecord = {
    false, true, true, true, false, false, true, false, false};
inline constexpr std::uint64_t kSampleEvery = 1024;
// Hard cap on recorded spans (~100 bytes each in the JSON).
inline constexpr std::size_t kMaxSpans = 400'000;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kJob;
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

struct LayerTotals {
  std::int64_t busy_ns = 0;
  std::int64_t child_ns = 0;
  std::int64_t calls = 0;

  [[nodiscard]] double busy_s() const { return busy_ns * 1e-9; }
  [[nodiscard]] double self_s() const { return (busy_ns - child_ns) * 1e-9; }
};

class Tracer {
  struct ThreadState;

 public:
  explicit Tracer(std::uint64_t job_id)
      : job_id_(job_id), generation_(NextGeneration()), origin_ns_(NowNs()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // RAII bracket around one call into a layer.  A null tracer makes it a
  // no-op, so untraced code paths share the call sites.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer) : tracer_(tracer), layer_(layer) {
      if (tracer_ == nullptr) return;
      thread_ = tracer_->Local();
      parent_ = thread_->top;
      thread_->top = this;
      const int l = static_cast<int>(layer_);
      const bool record =
          !kPerRecord[l] || thread_->sampled[l]++ % kSampleEvery == 0;
      if (layer_ == Layer::kJob) {
        id_ = tracer_->job_id_;
      } else if (record) {
        id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
      }
      start_ns_ = NowNs();
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      const std::int64_t end = NowNs();
      const std::int64_t took = end - start_ns_;
      const int l = static_cast<int>(layer_);
      Bump(thread_->busy[l], took);
      Bump(thread_->calls[l], 1);
      if (parent_ != nullptr) {
        Bump(thread_->child[static_cast<int>(parent_->layer_)], took);
      }
      thread_->top = parent_;
      if (id_ != 0) {
        std::uint64_t parent_id = layer_ == Layer::kJob ? 0 : tracer_->job_id_;
        for (const Scope* p = parent_; p != nullptr; p = p->parent_) {
          if (p->id_ != 0) {
            parent_id = p->id_;
            break;
          }
        }
        tracer_->Record({layer_, thread_->tid, start_ns_, end, id_, parent_id});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] Layer layer() const { return layer_; }

   private:
    Tracer* tracer_;
    Layer layer_;
    ThreadState* thread_ = nullptr;
    const Scope* parent_ = nullptr;
    std::uint64_t id_ = 0;
    std::int64_t start_ns_ = 0;
  };

  // Aggregator calls made inside a map fn call are map-side combines, not
  // reduce applies.
  [[nodiscard]] Layer AggregatorLayer() {
    const Scope* top = Local()->top;
    return top != nullptr && top->layer() == Layer::kMapFn ? Layer::kMapCombine
                                                          : Layer::kReduceApply;
  }

  // Sums over every thread that entered a scope.  Call once the traced
  // threads have been joined.
  [[nodiscard]] LayerTotals Totals(Layer layer) const {
    LayerTotals t;
    const int l = static_cast<int>(layer);
    std::scoped_lock lock(mu_);
    for (const auto& s : threads_) {
      t.busy_ns += s->busy[l].load(std::memory_order_relaxed);
      t.child_ns += s->child[l].load(std::memory_order_relaxed);
      t.calls += s->calls[l].load(std::memory_order_relaxed);
    }
    return t;
  }

  // Durations (µs) of the recorded spans of one layer.
  [[nodiscard]] std::vector<double> SpanMicros(Layer layer) const {
    std::vector<double> out;
    std::scoped_lock lock(mu_);
    for (const auto& s : spans_) {
      if (s.layer == layer) out.push_back((s.end_ns - s.start_ns) * 1e-3);
    }
    return out;
  }

  [[nodiscard]] std::size_t span_count() const {
    std::scoped_lock lock(mu_);
    return spans_.size();
  }
  [[nodiscard]] std::uint64_t dropped_spans() const {
    std::scoped_lock lock(mu_);
    return dropped_;
  }

  // Writes every recorded span as a Chrome trace-event ("X" phase) JSON
  // document.  Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::filesystem::path& path,
                        const std::string& workload) const {
    std::FILE* out = std::fopen(path.string().c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                      "{\"workload\": \"%s\", \"job\": %llu}, "
                      "\"traceEvents\": [\n",
                 workload.c_str(), static_cast<unsigned long long>(job_id_));
    std::scoped_lock lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"job\": %llu}}%s\n",
                   kLayerNames[static_cast<int>(s.layer)], s.tid,
                   (s.start_ns - origin_ns_) * 1e-3,
                   (s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(job_id_),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  // Per-thread accumulators.  Each has a single writer (its thread), so
  // plain load+store updates are race-free and never contend.
  struct ThreadState {
    std::uint32_t tid = 0;
    const Scope* top = nullptr;
    std::array<std::uint64_t, kLayers> sampled{};
    std::array<std::atomic<std::int64_t>, kLayers> busy{};
    std::array<std::atomic<std::int64_t>, kLayers> child{};
    std::array<std::atomic<std::int64_t>, kLayers> calls{};
  };
  static void Bump(std::atomic<std::int64_t>& v, std::int64_t d) {
    v.store(v.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

  static std::uint64_t NextGeneration() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
  }

  ThreadState* Local() {
    // Keyed by generation, not address: a later tracer may reuse this one's.
    thread_local ThreadState* state = nullptr;
    thread_local std::uint64_t owner = 0;
    if (owner != generation_) {
      auto fresh = std::make_unique<ThreadState>();
      std::scoped_lock lock(mu_);
      fresh->tid = static_cast<std::uint32_t>(threads_.size() + 1);
      state = fresh.get();
      threads_.push_back(std::move(fresh));
      owner = generation_;
    }
    return state;
  }

  void Record(const Span& span) {
    std::scoped_lock lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(span);
  }

  const std::uint64_t job_id_;
  const std::uint64_t generation_;
  const std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{job_id_ + 1};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// --- Wrapped public seams ---------------------------------------------------

inline MapFn TraceMap(MapFn inner, Tracer* tracer) {
  return [inner = std::move(inner), tracer](Slice record, OutputCollector& out) {
    Tracer::Scope scope(tracer, Layer::kMapFn);
    inner(record, out);
  };
}

inline ReduceFn TraceReduce(ReduceFn inner, Tracer* tracer) {
  return [inner = std::move(inner), tracer](Slice key, ValueIterator& values,
                                            OutputCollector& out) {
    Tracer::Scope scope(tracer, Layer::kReduceApply);
    inner(key, values, out);
  };
}

class TracedAggregator final : public Aggregator {
 public:
  TracedAggregator(std::shared_ptr<Aggregator> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Init(Slice value, std::string* state) const override {
    Tracer::Scope scope(tracer_, LayerHere());
    inner_->Init(value, state);
  }
  void Update(std::string* state, Slice value) const override {
    Tracer::Scope scope(tracer_, LayerHere());
    inner_->Update(state, value);
  }
  void Merge(std::string* state, Slice other) const override {
    Tracer::Scope scope(tracer_, LayerHere());
    inner_->Merge(state, other);
  }
  void Finalize(Slice state, std::string* out) const override {
    Tracer::Scope scope(tracer_, LayerHere());
    inner_->Finalize(state, out);
  }

 private:
  [[nodiscard]] Layer LayerHere() const { return tracer_->AggregatorLayer(); }

  std::shared_ptr<Aggregator> inner_;
  Tracer* tracer_;
};

// The traced copy of a job: same inputs, same outputs, every user-code seam
// bracketed.
inline JobSpec TraceSpec(JobSpec spec, Tracer* tracer) {
  spec.map = TraceMap(std::move(spec.map), tracer);
  if (spec.reduce) spec.reduce = TraceReduce(std::move(spec.reduce), tracer);
  if (spec.aggregator) {
    spec.aggregator =
        std::make_shared<TracedAggregator>(std::move(spec.aggregator), tracer);
  }
  return spec;
}

// Transport decorator: a span per Connection::Send (back-pressure blocking
// inside Send counts as send time) and per inbound frame handled on the
// listening side (decode + shuffle apply).
class TracedTransport final : public net::Transport {
 public:
  TracedTransport(std::unique_ptr<net::Transport> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Listen(net::FrameHandler handler) override {
    inner_->Listen([handler = std::move(handler), tracer = tracer_](
                       net::Connection* from, net::Frame frame) {
      Tracer::Scope scope(tracer, Layer::kHandler);
      handler(from, std::move(frame));
    });
  }

  std::shared_ptr<net::Connection> Connect(net::FrameHandler on_reply) override {
    return std::make_shared<Connection>(inner_->Connect(std::move(on_reply)),
                                        tracer_);
  }

  [[nodiscard]] std::string endpoint() const override {
    return inner_->endpoint();
  }
  void Shutdown() override { inner_->Shutdown(); }
  void SetConnectPreamble(net::Frame preamble) override {
    inner_->SetConnectPreamble(std::move(preamble));
  }
  void SetReconnectReplay(
      std::function<std::vector<net::Frame>()> replay) override {
    inner_->SetReconnectReplay(std::move(replay));
  }

 private:
  class Connection final : public net::Connection {
   public:
    Connection(std::shared_ptr<net::Connection> inner, Tracer* tracer)
        : inner_(std::move(inner)), tracer_(tracer) {}

    void Send(const net::Frame& frame) override {
      Tracer::Scope scope(tracer_, Layer::kSend);
      inner_->Send(frame);
    }
    bool SendFileFrame(net::FrameType type, const std::string& payload_prefix,
                       const std::string& path, std::uint64_t offset,
                       std::uint64_t length) override {
      Tracer::Scope scope(tracer_, Layer::kSend);
      return inner_->SendFileFrame(type, payload_prefix, path, offset, length);
    }
    void Close() override { inner_->Close(); }

   private:
    std::shared_ptr<net::Connection> inner_;
    Tracer* tracer_;
  };

  std::unique_ptr<net::Transport> inner_;
  Tracer* tracer_;
};

}  // namespace opmr::bench
