#include "engine/shuffle_remote.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace opmr {

namespace {
// Reads a segment's bytes back from its map output file.  Not charged to a
// device channel: it is the wire's copy, not an engine I/O the cost model
// tracks (net.bytes_sent covers it).
std::string ReadSegment(const std::filesystem::path& path,
                        const Segment& segment) {
  std::string bytes(segment.bytes, '\0');
  SequentialReader reader(path, IoChannel());
  reader.Seek(segment.offset);
  if (!reader.ReadExact(bytes.data(), bytes.size())) {
    throw std::runtime_error("shuffle client: segment vanished: " +
                             path.string());
  }
  return bytes;
}

// Finish() waits at most this long for the replay window to drain before
// sending Bye regardless.
constexpr double kAckDrainS = 5.0;
}  // namespace

// --- ShuffleClient -----------------------------------------------------------

ShuffleClient::ShuffleClient(net::Transport* transport,
                             MetricRegistry* metrics, Options options)
    : transport_(transport),
      metrics_(metrics),
      options_(std::move(options)),
      ack_replays_(metrics->Get(kShuffleAckReplays)),
      ack_replayed_frames_(metrics->Get(kShuffleAckReplayedFrames)),
      credits_(options_.num_reducers, options_.push_queue_chunks),
      gone_(options_.num_reducers, false) {
  net::HelloMsg hello;
  hello.job = options_.job;
  hello.num_map_tasks = options_.num_map_tasks;
  hello.num_reducers = options_.num_reducers;
  hello.worker = options_.worker;
  hello.auth = options_.auth;
  // Preamble first: if the explicit Hello send below is dropped by an
  // injected fault, the reconnect path re-introduces us before the
  // retransmit goes out.
  transport_->SetConnectPreamble(hello.ToFrame());
  // Reconnect replay: after any reconnect (injected drop or a real
  // peer-side crash), resend the whole unacked window right behind the
  // Hello.  The server's applied-seq watermark absorbs whatever actually
  // survived, so this is safe to over-send.
  transport_->SetReconnectReplay([this] {
    std::vector<net::Frame> frames;
    {
      std::scoped_lock lock(mu_);
      peer_closed_ = false;
      frames.reserve(window_.size());
      for (const auto& entry : window_) frames.push_back(entry.Materialize());
    }
    if (!frames.empty()) {
      ack_replays_->Increment();
      ack_replayed_frames_->Add(static_cast<std::int64_t>(frames.size()));
    }
    return frames;
  });
  // A server-side close (a reducer crash) wakes Finish's drain at once.
  transport_->SetOnPeerClosed([this] {
    {
      std::scoped_lock lock(mu_);
      peer_closed_ = true;
    }
    cv_.notify_all();
  });
  conn_ = transport_->Connect([this](net::Connection* from, net::Frame frame) {
    HandleReply(from, std::move(frame));
  });
  conn_->Send(hello.ToFrame());
}

void ShuffleClient::CheckAborted() {
  std::scoped_lock lock(mu_);
  if (aborted_) {
    throw std::runtime_error("shuffle aborted by reduce group: " +
                             abort_reason_);
  }
}

void ShuffleClient::HandleReply(net::Connection* /*from*/, net::Frame frame) {
  switch (frame.type) {
    case net::FrameType::kCredit: {
      const auto msg = net::CreditMsg::Parse(frame);
      std::scoped_lock lock(mu_);
      credits_.at(msg.reducer) += msg.credits;
      break;
    }
    case net::FrameType::kAck: {
      const auto msg = net::AckMsg::Parse(frame);
      {
        std::scoped_lock lock(mu_);
        while (!window_.empty() && window_.front().seq <= msg.upto) {
          window_.pop_front();
        }
      }
      cv_.notify_all();
      break;
    }
    case net::FrameType::kGone: {
      const auto msg = net::GoneMsg::Parse(frame);
      std::scoped_lock lock(mu_);
      gone_.at(msg.reducer) = true;
      break;
    }
    case net::FrameType::kAbort: {
      const auto msg = net::AbortMsg::Parse(frame);
      {
        std::scoped_lock lock(mu_);
        aborted_ = true;
        abort_reason_ = msg.reason;
      }
      cv_.notify_all();
      break;
    }
    default:
      break;  // unexpected reply type; ignore
  }
}

void ShuffleClient::SendSequenced(const FrameBuilder& first,
                                  FrameBuilder rebuild) {
  // seq_mu_ serialises seq assignment WITH the send, so frames hit the
  // wire in seq order (the server discards out-of-order gaps unacked).
  // mu_ is never held across Send: a send can block in the transport's
  // reconnect path, which joins the reader thread — and the reader may be
  // waiting on mu_ to deliver an Ack.
  std::scoped_lock send_order(seq_mu_);
  std::uint64_t seq = 0;
  {
    std::scoped_lock lock(mu_);
    seq = ++next_seq_;
    window_.push_back(WindowEntry{seq, std::move(rebuild)});
  }
  conn_->Send(first(seq));
}

PushResult ShuffleClient::TryPush(int reducer, ShuffleItem chunk) {
  {
    std::scoped_lock lock(mu_);
    if (aborted_) {
      throw std::runtime_error("shuffle aborted by reduce group: " +
                               abort_reason_);
    }
    if (gone_.at(reducer)) return PushResult::kReducerGone;
    if (credits_.at(reducer) == 0) return PushResult::kBusy;
    --credits_[reducer];
  }
  net::ChunkMsg msg;
  msg.map_task = chunk.map_task;
  msg.reducer = reducer;
  msg.sorted = chunk.sorted;
  msg.records = chunk.records;
  // A replay re-reads the chunk's persisted copy instead of keeping the
  // payload in the window.
  FrameBuilder rebuild = [msg, path = chunk.path,
                          segment = chunk.segment](std::uint64_t seq) {
    net::ChunkMsg again = msg;
    again.seq = seq;
    again.bytes = ReadSegment(path, segment);
    return again.ToFrame();
  };
  msg.bytes = std::move(chunk.bytes);
  SendSequenced(
      [&msg](std::uint64_t seq) {
        // Moved into a local so the payload is freed once the frame holds
        // its copy, not after the send.
        net::ChunkMsg first = std::move(msg);
        first.seq = seq;
        return first.ToFrame();
      },
      std::move(rebuild));
  return PushResult::kAccepted;
}

void ShuffleClient::RegisterFile(const MapOutputFile& file) {
  for (int r = 0; r < static_cast<int>(file.partitions.size()); ++r) {
    const Segment& seg = file.partitions[r];
    if (seg.bytes == 0) continue;
    SendSegment(file.map_task, file.path, r, seg, file.sorted);
  }
}

void ShuffleClient::RegisterSegment(int map_task,
                                    const std::filesystem::path& path,
                                    int reducer, const Segment& segment,
                                    bool sorted) {
  if (segment.bytes == 0) return;
  SendSegment(map_task, path, reducer, segment, sorted);
}

void ShuffleClient::SendSegment(int map_task,
                                const std::filesystem::path& path,
                                int reducer, const Segment& segment,
                                bool sorted) {
  CheckAborted();
  FrameBuilder build;
  if (options_.shared_fs) {
    net::SegmentRefMsg msg;
    msg.map_task = map_task;
    msg.reducer = reducer;
    msg.sorted = sorted;
    msg.records = segment.records;
    msg.offset = segment.offset;
    msg.length = segment.bytes;
    msg.path = path.string();
    build = [msg](std::uint64_t seq) {
      net::SegmentRefMsg again = msg;
      again.seq = seq;
      return again.ToFrame();
    };
  } else {
    // No shared filesystem: ship the segment bytes across the wire, read
    // from the immutable spill file on every (re)send.
    build = [map_task, reducer, sorted, path, segment](std::uint64_t seq) {
      net::SegmentDataMsg msg;
      msg.map_task = map_task;
      msg.reducer = reducer;
      msg.sorted = sorted;
      msg.records = segment.records;
      msg.seq = seq;
      msg.bytes = ReadSegment(path, segment);
      return msg.ToFrame();
    };
  }
  SendSequenced(build, build);
}

void ShuffleClient::MapTaskDone(int map_task, std::uint64_t input_records,
                                std::uint64_t output_records) {
  CheckAborted();
  net::MapDoneMsg msg;
  msg.map_task = map_task;
  msg.input_records = input_records;
  msg.output_records = output_records;
  const FrameBuilder build = [msg](std::uint64_t seq) {
    net::MapDoneMsg again = msg;
    again.seq = seq;
    return again.ToFrame();
  };
  SendSequenced(build, build);
}

void ShuffleClient::ReplayUnacked() {
  std::scoped_lock send_order(seq_mu_);
  std::vector<net::Frame> frames;
  {
    std::scoped_lock lock(mu_);
    frames.reserve(window_.size());
    for (const auto& entry : window_) frames.push_back(entry.Materialize());
  }
  if (frames.empty()) return;
  ack_replays_->Increment();
  ack_replayed_frames_->Add(static_cast<std::int64_t>(frames.size()));
  for (const net::Frame& frame : frames) {
    try {
      conn_->Send(frame);
    } catch (const net::TransportError&) {
      return;  // connection unrecoverable; the drain in Finish gives up
    }
  }
}

std::size_t ShuffleClient::UnackedFrames() const {
  std::scoped_lock lock(mu_);
  return window_.size();
}

void ShuffleClient::Finish() {
  {
    std::scoped_lock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  // Drain the replay window before Bye: on a clean run the acks for the
  // tail are already in flight.  After a reducer-side crash the server's
  // close ends the first wait at once (a lost tail without a close ends it
  // by timeout), one explicit replay re-delivers the window over a fresh
  // connection, and the second wait confirms the acks.  If even that
  // fails, Bye goes out anyway — the reduce side's idle-timeout watchdog is
  // the last-resort backstop.
  const auto drained = [this] { return window_.empty() || aborted_; };
  const auto half = std::chrono::duration<double>(kAckDrainS / 2);
  {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, half, [&] { return drained() || peer_closed_; });
  }
  if (UnackedFrames() > 0) {
    ReplayUnacked();
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, half, drained);
  }
  net::ByeMsg bye;
  bye.frames_sent =
      static_cast<std::uint64_t>(metrics_->Value(net::kNetFramesSent));
  bye.bytes_sent =
      static_cast<std::uint64_t>(metrics_->Value(net::kNetBytesSent));
  bye.retransmits =
      static_cast<std::uint64_t>(metrics_->Value(net::kNetRetransmits));
  bye.reconnects =
      static_cast<std::uint64_t>(metrics_->Value(net::kNetReconnects));
  bye.stall_nanos =
      static_cast<std::uint64_t>(metrics_->Value(net::kNetStallNanos));
  bye.ack_replays = static_cast<std::uint64_t>(ack_replays_->value());
  bye.ack_replayed_frames =
      static_cast<std::uint64_t>(ack_replayed_frames_->value());
  try {
    conn_->Send(bye.ToFrame());
  } catch (const net::TransportError&) {
    // Best-effort: the job's data already made it across.
  }
  conn_->Close();
}

void ShuffleClient::SendAbort(const std::string& reason) {
  {
    std::scoped_lock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  net::AbortMsg msg;
  msg.reason = reason;
  try {
    conn_->Send(msg.ToFrame());
  } catch (const net::TransportError&) {
    // The reduce side will hit its idle timeout instead.
  }
  conn_->Close();
}

// --- ShuffleServer -----------------------------------------------------------

ShuffleServer::ShuffleServer(net::Transport* transport,
                             ShuffleService* shuffle, FileManager* files,
                             MetricRegistry* metrics,
                             bool merge_client_wire_stats)
    : transport_(transport),
      shuffle_(shuffle),
      files_(files),
      metrics_(metrics),
      merge_client_wire_stats_(merge_client_wire_stats),
      dup_frames_(metrics->Get(kShuffleDupFrames)),
      auth_failures_(metrics->Get("shuffle.auth_failures")) {}

ShuffleServer::~ShuffleServer() {
  shuffle_->SetChunkConsumedProbe(nullptr);
  shuffle_->SetGoneProbe(nullptr);
  std::scoped_lock lock(mu_);
  for (auto& [worker, state] : clients_) {
    if (state.spill != nullptr) state.spill->Close();
  }
}

void ShuffleServer::Start() {
  shuffle_->SetChunkConsumedProbe([this](int reducer, int map_task) {
    net::CreditMsg credit;
    credit.reducer = reducer;
    SendTo(TaskOwnerConn(map_task), credit.ToFrame());
  });
  shuffle_->SetGoneProbe([this](int reducer) {
    net::GoneMsg gone;
    gone.reducer = reducer;
    Broadcast(gone.ToFrame());
  });
  transport_->Listen([this](net::Connection* from, net::Frame frame) {
    HandleFrame(from, std::move(frame));
  });
}

void ShuffleServer::SendTo(net::Connection* conn, const net::Frame& frame) {
  if (conn == nullptr) return;
  try {
    conn->Send(frame);
  } catch (const net::TransportError&) {
    // A lost credit only costs pipelining (the mapper diverts to disk); a
    // lost Gone only costs fail-fast latency; a lost Ack is re-sent when
    // the client replays.  Correctness is kept.
  }
}

net::Connection* ShuffleServer::TaskOwnerConn(int map_task) {
  std::scoped_lock lock(mu_);
  auto owner = task_owner_.find(map_task);
  if (owner != task_owner_.end()) {
    auto client = clients_.find(owner->second);
    if (client != clients_.end()) return client->second.conn;
  }
  // Single-client local modes never record owners per task; route to the
  // only connection there is.
  if (clients_.size() == 1) return clients_.begin()->second.conn;
  return nullptr;
}

void ShuffleServer::Broadcast(const net::Frame& frame) {
  std::vector<net::Connection*> conns;
  {
    std::scoped_lock lock(mu_);
    conns.reserve(clients_.size());
    for (const auto& [worker, state] : clients_) {
      if (state.conn != nullptr) conns.push_back(state.conn);
    }
  }
  for (net::Connection* conn : conns) SendTo(conn, frame);
}

std::uint64_t ShuffleServer::map_input_records() const {
  std::scoped_lock lock(mu_);
  return map_input_records_;
}

std::uint64_t ShuffleServer::map_output_records() const {
  std::scoped_lock lock(mu_);
  return map_output_records_;
}

void ShuffleServer::WaitClientsFinished(double timeout_s) {
  std::unique_lock lock(mu_);
  bye_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s), [this] {
        return !clients_.empty() && byes_received_ >= clients_.size();
      });
}

bool ShuffleServer::AdmitSequenced(net::Connection* from, std::uint64_t seq) {
  if (seq == 0) return true;  // unsequenced legacy frame: apply, never ack
  net::NetFaultHook* hook = net::GetNetFaultHook();
  int receive_attempt = 1;
  std::uint64_t applied_upto = 0;
  {
    std::scoped_lock lock(mu_);
    ClientState& st = clients_[conn_worker_[from]];
    if (hook != nullptr) receive_attempt = ++st.recv_attempts[seq];
    applied_upto = st.applied_upto;
  }
  if (hook != nullptr && hook->OnServerFrameApply(seq, receive_attempt)) {
    // peer_crash: the frame was delivered to this host but dies before
    // apply, and the connection dies with it.  Only the client's
    // ack-window replay can bring the data back.
    from->Close();
    return false;
  }
  if (seq <= applied_upto) {
    // Replayed duplicate of an applied frame: skip, but re-ack so the
    // client prunes its window.
    dup_frames_->Increment();
    net::AckMsg ack;
    ack.upto = applied_upto;
    SendTo(from, ack.ToFrame());
    return false;
  }
  if (seq != applied_upto + 1) {
    // Out-of-order gap: frames after a discarded one on a dying
    // connection.  Drop unacked — the replay re-delivers them in order.
    return false;
  }
  return true;
}

void ShuffleServer::AckApplied(net::Connection* from, std::uint64_t seq) {
  if (seq == 0) return;
  std::uint64_t upto = 0;
  {
    std::scoped_lock lock(mu_);
    ClientState& st = clients_[conn_worker_[from]];
    st.applied_upto = std::max(st.applied_upto, seq);
    upto = st.applied_upto;
  }
  net::AckMsg ack;
  ack.upto = upto;
  SendTo(from, ack.ToFrame());
}

void ShuffleServer::RecordTaskOwner(net::Connection* from, int map_task) {
  std::scoped_lock lock(mu_);
  task_owner_[map_task] = conn_worker_[from];
}

void ShuffleServer::HandleFrame(net::Connection* from, net::Frame frame) {
  // Every received frame — including duplicates the seq watermark will
  // absorb — is proof the mapper side is alive: reset the idle-timeout
  // fallback so it cannot fire while an ack replay is in progress.
  shuffle_->NoteActivity();
  // Never let a malformed frame unwind a transport reader thread: poison
  // the shuffle instead so reducers fail with a diagnosis.
  try {
    switch (frame.type) {
      case net::FrameType::kHello: {
        const auto msg = net::HelloMsg::Parse(frame);
        if (!secret_.empty() && !net::ConstantTimeEquals(secret_, msg.auth)) {
          auth_failures_->Increment();
          net::AbortMsg abort;
          abort.reason = "shuffle server: authentication failed for worker '" +
                         msg.worker + "'";
          SendTo(from, abort.ToFrame());
          break;
        }
        std::scoped_lock lock(mu_);
        conn_worker_[from] = msg.worker;
        clients_[msg.worker].conn = from;  // re-Hello after reconnect re-routes
        break;
      }
      case net::FrameType::kChunk: {
        auto msg = net::ChunkMsg::Parse(std::move(frame));
        RecordTaskOwner(from, msg.map_task);
        if (!AdmitSequenced(from, msg.seq)) break;
        ShuffleItem item;
        item.map_task = msg.map_task;
        item.sorted = msg.sorted;
        item.records = msg.records;
        item.bytes = std::move(msg.bytes);
        // The client already admitted this chunk against its credit
        // window; the bounded re-check would spuriously reject after a
        // Rewind re-queued consumed items.
        shuffle_->ForcePush(msg.reducer, std::move(item));
        AckApplied(from, msg.seq);
        break;
      }
      case net::FrameType::kSegmentRef: {
        const auto msg = net::SegmentRefMsg::Parse(frame);
        RecordTaskOwner(from, msg.map_task);
        if (!AdmitSequenced(from, msg.seq)) break;
        Segment seg;
        seg.offset = msg.offset;
        seg.bytes = msg.length;
        seg.records = msg.records;
        shuffle_->RegisterSegment(msg.map_task,
                                  std::filesystem::path(msg.path),
                                  msg.reducer, seg, msg.sorted);
        AckApplied(from, msg.seq);
        break;
      }
      case net::FrameType::kSegmentData: {
        auto msg = net::SegmentDataMsg::Parse(frame);
        RecordTaskOwner(from, msg.map_task);
        if (!AdmitSequenced(from, msg.seq)) break;
        std::filesystem::path spill_path;
        Segment seg;
        {
          std::scoped_lock lock(mu_);
          auto& writer = clients_[conn_worker_[from]].spill;
          if (writer == nullptr) {
            writer = std::make_unique<SequentialWriter>(
                files_->NewFile("net_seg"),
                IoChannel(metrics_, device::kNetSegmentWrite));
          }
          seg.offset = writer->bytes_written();
          seg.bytes = msg.bytes.size();
          seg.records = msg.records;
          writer->Append(msg.bytes);
          writer->Flush();
          spill_path = writer->path();
        }
        shuffle_->RegisterSegment(msg.map_task, spill_path, msg.reducer, seg,
                                  msg.sorted);
        AckApplied(from, msg.seq);
        break;
      }
      case net::FrameType::kMapDone: {
        const auto msg = net::MapDoneMsg::Parse(frame);
        RecordTaskOwner(from, msg.map_task);
        if (!AdmitSequenced(from, msg.seq)) break;
        {
          std::scoped_lock lock(mu_);
          map_input_records_ += msg.input_records;
          map_output_records_ += msg.output_records;
        }
        shuffle_->MapTaskDone(msg.map_task);
        AckApplied(from, msg.seq);
        break;
      }
      case net::FrameType::kBye: {
        const auto msg = net::ByeMsg::Parse(frame);
        if (merge_client_wire_stats_) {
          // The client process's own counters (its sends, retransmits, ...),
          // folded in so the reduce-side job report covers the whole wire.  Skipped when both endpoints
          // share one registry (kAll mode) — they are already counted.
          metrics_->Get(net::kNetFramesSent)
              ->Add(static_cast<std::int64_t>(msg.frames_sent));
          metrics_->Get(net::kNetBytesSent)
              ->Add(static_cast<std::int64_t>(msg.bytes_sent));
          metrics_->Get(net::kNetRetransmits)
              ->Add(static_cast<std::int64_t>(msg.retransmits));
          metrics_->Get(net::kNetReconnects)
              ->Add(static_cast<std::int64_t>(msg.reconnects));
          metrics_->Get(net::kNetStallNanos)
              ->Add(static_cast<std::int64_t>(msg.stall_nanos));
          metrics_->Get(kShuffleAckReplays)
              ->Add(static_cast<std::int64_t>(msg.ack_replays));
          metrics_->Get(kShuffleAckReplayedFrames)
              ->Add(static_cast<std::int64_t>(msg.ack_replayed_frames));
        }
        {
          std::scoped_lock lock(mu_);
          ++byes_received_;
        }
        bye_cv_.notify_all();
        break;
      }
      case net::FrameType::kAbort: {
        const auto msg = net::AbortMsg::Parse(frame);
        shuffle_->Abort("map worker group aborted: " + msg.reason);
        break;
      }
      default:
        throw net::WireError("shuffle server: unexpected frame type " +
                             std::string(net::FrameTypeName(frame.type)));
    }
  } catch (const std::exception& e) {
    shuffle_->Abort(std::string("shuffle server: ") + e.what());
  }
}

}  // namespace opmr
