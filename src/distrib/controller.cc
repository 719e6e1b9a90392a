#include "distrib/controller.h"

#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "net/event_loop.h"
#include "net/sockets.h"
#include "replay/hashring.h"

namespace ldp::distrib {
namespace {

enum class AgentState : uint8_t {
  kConnecting,
  kHello,    // HELLO sent, waiting for HELLO_ACK
  kClock,    // clock-sample burst in flight
  kReady,    // handshake complete, waiting for START
  kRunning,  // replaying
  kDone,     // REPORT received
  kFailed,
};

struct Agent {
  AgentStatus status;
  AgentState state = AgentState::kConnecting;
  std::unique_ptr<net::TcpConnection> conn;
  FrameAssembler assembler;

  // Clock handshake.
  int samples_done = 0;
  NanoTime ping_sent = 0;
  NanoDuration best_rtt = 0;
  bool have_sample = false;

  // Flow control.
  uint32_t next_seq = 0;
  uint32_t unacked = 0;
  bool paused = false;  // TCP write queue above the high watermark
  std::vector<trace::QueryRecord> chunk;  // partial, pre-rebased

  bool live() const {
    return state != AgentState::kFailed && conn != nullptr;
  }
};

class Controller {
 public:
  Controller(const std::vector<trace::QueryRecord>& records,
             const ControllerOptions& options)
      : records_(records),
        options_(options),
        trace_epoch_(records.empty() ? 0 : records.front().timestamp),
        ring_(options.ring_vnodes, options.config.seed) {}

  ~Controller() {
    if (metrics_file_) std::fclose(metrics_file_);
  }

  Result<DistributedReport> Run();

 private:
  Status ConnectAll();
  void OnConnected(size_t index, Status status);
  void OnData(size_t index, std::span<const uint8_t> data);
  void OnClose(size_t index, Status reason);
  Status HandleFrame(size_t index, const Frame& frame);
  HelloFrame Hello(uint16_t agent_id) const {
    return HelloFrame{.agent_id = agent_id,
                      .credit_window = options_.credit_window,
                      .stats_interval = options_.stats_interval,
                      .config = options_.config};
  }
  void SendHello(size_t index);
  void SendClockPing(size_t index);
  Status FinishClock(size_t index, const ClockPongFrame& pong);
  // Fires once every agent left the handshake: drops connect-time
  // failures, builds the ring, broadcasts START.
  void MaybeStart();
  void PumpInput();
  bool CanShip(const Agent& a) const {
    return a.unacked < options_.credit_window && !a.paused;
  }
  void ShipChunk(size_t index);
  void FinishInput();
  size_t OwnerOf(IpAddress source);
  // Every agent's latest snapshot, merged.
  stats::MetricsSnapshot MergedMetrics() const;
  void WriteMergedRow(bool force);
  void RearmMergedRow();
  void AgentFailed(size_t index, std::string why, bool fatal);
  void FailRun(std::string why);

  const std::vector<trace::QueryRecord>& records_;
  const ControllerOptions& options_;
  const NanoTime trace_epoch_;

  std::unique_ptr<net::EventLoop> loop_;
  std::vector<Agent> agents_;
  size_t handshakes_pending_ = 0;
  bool started_ = false;
  NanoTime epoch_controller_ = 0;  // replay epoch, controller clock
  NanoTime run_started_wall_ = 0;

  replay::HashRing ring_;
  std::unordered_map<IpAddress, size_t> sticky_;
  size_t cursor_ = 0;          // next trace record to assign
  bool input_done_ = false;    // INPUT_DONE broadcast
  size_t reports_pending_ = 0;

  std::FILE* metrics_file_ = nullptr;
  stats::MetricsSnapshot last_merged_;
  bool have_merged_ = false;
  uint64_t merged_seq_ = 0;
  net::TimerHandle merged_timer_;
  net::TimerHandle handshake_timer_;

  bool failed_ = false;
  std::string fail_reason_;
};

Result<DistributedReport> Controller::Run() {
  if (records_.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty trace");
  }
  if (options_.agents.empty()) {
    return Error(ErrorCode::kInvalidArgument, "no agent endpoints");
  }
  if (options_.chunk_records == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "chunk_records must be positive");
  }
  LDP_RETURN_IF_ERROR(CheckHello(Hello(0)));
  LDP_ASSIGN_OR_RETURN(loop_, net::EventLoop::Create());
  if (!options_.metrics_path.empty()) {
    metrics_file_ = std::fopen(options_.metrics_path.c_str(), "w");
    if (!metrics_file_) {
      return Error(ErrorCode::kIoError,
                   "open " + options_.metrics_path + " failed");
    }
  }
  run_started_wall_ = MonotonicNow();
  LDP_RETURN_IF_ERROR(ConnectAll());

  handshake_timer_ = loop_->ScheduleAfter(options_.handshake_timeout, [this] {
    if (!started_) FailRun("handshake timed out");
  });
  loop_->Run();

  DistributedReport out;
  out.total_records = records_.size();
  out.failed = failed_;
  out.error = fail_reason_;
  out.wall_duration = MonotonicNow() - run_started_wall_;
  out.merged_metrics = MergedMetrics();
  for (Agent& a : agents_) out.agents.push_back(std::move(a.status));
  return out;
}

Status Controller::ConnectAll() {
  agents_.resize(options_.agents.size());
  handshakes_pending_ = agents_.size();
  for (size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    a.status.id = static_cast<uint16_t>(i);
    a.status.endpoint = options_.agents[i];
    auto conn = net::TcpConnection::Connect(
        *loop_, options_.agents[i],
        [this, i](Status status) { OnConnected(i, std::move(status)); },
        [this, i](std::span<const uint8_t> data) { OnData(i, data); },
        [this, i](Status reason) { OnClose(i, std::move(reason)); });
    if (!conn.ok()) {
      AgentFailed(i, conn.error().ToString(), /*fatal=*/false);
      continue;
    }
    a.conn = std::move(conn).value();
    a.conn->SetWriteWatermarks(
        options_.config.tcp_write_high_watermark,
        options_.config.tcp_write_low_watermark, [this, i](bool paused) {
          agents_[i].paused = paused;
          if (!paused) PumpInput();
        });
  }
  return Status::Ok();
}

void Controller::OnConnected(size_t index, Status status) {
  Agent& a = agents_[index];
  if (!status.ok()) {
    AgentFailed(index, "connect: " + status.error().ToString(),
                /*fatal=*/false);
    return;
  }
  a.status.connected = true;
  SendHello(index);
}

void Controller::SendHello(size_t index) {
  Agent& a = agents_[index];
  a.state = AgentState::kHello;
  (void)a.conn->Send(EncodeHello(Hello(a.status.id)));
}

void Controller::SendClockPing(size_t index) {
  Agent& a = agents_[index];
  a.ping_sent = MonotonicNow();
  (void)a.conn->Send(EncodeClockPing(ClockPingFrame{.t1 = a.ping_sent}));
}

void Controller::OnData(size_t index, std::span<const uint8_t> data) {
  Agent& a = agents_[index];
  Status fed = a.assembler.Feed(data);
  if (!fed.ok()) {
    AgentFailed(index, "stream: " + fed.error().ToString(), /*fatal=*/true);
    return;
  }
  while (auto frame = a.assembler.Next()) {
    Status handled = HandleFrame(index, *frame);
    if (!handled.ok()) {
      AgentFailed(index, handled.error().ToString(), /*fatal=*/true);
      return;
    }
    if (a.state == AgentState::kFailed) return;
  }
}

Status Controller::HandleFrame(size_t index, const Frame& frame) {
  Agent& a = agents_[index];
  switch (frame.type) {
    case FrameType::kHelloAck: {
      LDP_ASSIGN_OR_RETURN(auto ack, DecodeHelloAck(frame));
      if (ack.version != kVersion) {
        return Error(ErrorCode::kUnsupported,
                     "agent speaks protocol v" + std::to_string(ack.version));
      }
      if (a.state != AgentState::kHello) {
        return Error(ErrorCode::kInvalidArgument, "unexpected HELLO_ACK");
      }
      a.state = AgentState::kClock;
      SendClockPing(index);
      return Status::Ok();
    }
    case FrameType::kClockPong: {
      LDP_ASSIGN_OR_RETURN(auto pong, DecodeClockPong(frame));
      if (a.state != AgentState::kClock) {
        return Error(ErrorCode::kInvalidArgument, "unexpected CLOCK_PONG");
      }
      return FinishClock(index, pong);
    }
    case FrameType::kChunkAck: {
      LDP_ASSIGN_OR_RETURN(auto ack, DecodeChunkAck(frame));
      if (a.unacked == 0) {
        return Error(ErrorCode::kInvalidArgument,
                     "CHUNK_ACK " + std::to_string(ack.seq) +
                         " with no chunk outstanding");
      }
      --a.unacked;
      PumpInput();
      return Status::Ok();
    }
    case FrameType::kStats: {
      if (a.status.completed) {
        return Error(ErrorCode::kInvalidArgument, "STATS after REPORT");
      }
      LDP_ASSIGN_OR_RETURN(a.status.metrics, DecodeStats(frame));
      return Status::Ok();
    }
    case FrameType::kReport: {
      LDP_ASSIGN_OR_RETURN(a.status.metrics, DecodeReport(frame));
      a.status.completed = true;
      a.state = AgentState::kDone;
      (void)a.conn->Send(EncodeBye());
      if (--reports_pending_ == 0) {
        WriteMergedRow(/*force=*/true);
        loop_->Stop();
      }
      return Status::Ok();
    }
    case FrameType::kError: {
      LDP_ASSIGN_OR_RETURN(auto error, DecodeError(frame));
      return Error(ErrorCode::kInternal, "agent error: " + error.message);
    }
    default:
      return Error(ErrorCode::kParseError,
                   "unexpected frame type " +
                       std::to_string(static_cast<int>(frame.type)));
  }
}

Status Controller::FinishClock(size_t index, const ClockPongFrame& pong) {
  Agent& a = agents_[index];
  if (pong.t1 != a.ping_sent) {
    return Error(ErrorCode::kInvalidArgument, "CLOCK_PONG echoes wrong t1");
  }
  const NanoTime t4 = MonotonicNow();
  const NanoDuration rtt = t4 - pong.t1;
  if (!a.have_sample || rtt < a.best_rtt) {
    a.have_sample = true;
    a.best_rtt = rtt;
    // Midpoint estimate: the agent stamped t2 when our ping — sent at t1,
    // answered by t4 — was roughly halfway through its round trip.
    a.status.clock_offset = pong.t2 - (pong.t1 + t4) / 2;
    a.status.clock_rtt = rtt;
  }
  if (++a.samples_done < options_.clock_samples) {
    SendClockPing(index);
    return Status::Ok();
  }
  a.state = AgentState::kReady;
  if (--handshakes_pending_ == 0) MaybeStart();
  return Status::Ok();
}

void Controller::MaybeStart() {
  if (started_ || failed_) return;
  size_t ready = 0;
  for (Agent& a : agents_) {
    if (a.state == AgentState::kReady) ++ready;
  }
  if (ready == 0) {
    FailRun("no agents completed the handshake");
    return;
  }
  if (!options_.allow_partial_connect && ready != agents_.size()) {
    FailRun("an agent failed to connect and partial runs are disabled");
    return;
  }
  started_ = true;
  handshake_timer_.Cancel();
  // The ring is built over the survivors only: a connect-time failure
  // moves just that agent's sources (hashring_test's stability property).
  for (Agent& a : agents_) {
    if (a.state == AgentState::kReady) ring_.AddNode(a.status.id);
  }
  epoch_controller_ = MonotonicNow() + options_.start_delay;
  reports_pending_ = ready;
  for (size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != AgentState::kReady) continue;
    a.state = AgentState::kRunning;
    (void)a.conn->Send(EncodeStart(StartFrame{
        .epoch_mono = epoch_controller_ + a.status.clock_offset}));
  }
  RearmMergedRow();
  PumpInput();
}

size_t Controller::OwnerOf(IpAddress source) {
  return replay::StickyAssign(sticky_, source, [this](IpAddress src) {
    // The ring is non-empty whenever input is flowing (≥1 ready agent).
    return static_cast<size_t>(*ring_.NodeFor(src));
  });
}

void Controller::PumpInput() {
  if (!started_ || failed_ || input_done_) return;
  while (cursor_ < records_.size()) {
    const trace::QueryRecord& record = records_[cursor_];
    const size_t owner = OwnerOf(record.src);
    Agent& a = agents_[owner];
    if (a.chunk.size() >= options_.chunk_records) {
      if (!CanShip(a)) return;  // stalled, in global trace order
      ShipChunk(owner);
    }
    trace::QueryRecord rebased = record;
    rebased.timestamp -= trace_epoch_;
    a.chunk.push_back(std::move(rebased));
    ++cursor_;
  }
  FinishInput();
}

void Controller::ShipChunk(size_t index) {
  Agent& a = agents_[index];
  ChunkFrame chunk;
  chunk.seq = a.next_seq++;
  chunk.records = std::move(a.chunk);
  a.chunk.clear();
  a.status.records_sent += chunk.records.size();
  ++a.status.chunks_sent;
  ++a.unacked;
  (void)a.conn->Send(EncodeChunk(chunk));
}

void Controller::FinishInput() {
  // Flush every partial chunk (waiting for credit where needed), then
  // broadcast INPUT_DONE. Zero-record agents get INPUT_DONE too — they
  // still owe a REPORT.
  for (size_t i = 0; i < agents_.size(); ++i) {
    Agent& a = agents_[i];
    if (a.state != AgentState::kRunning) continue;
    if (a.chunk.empty()) continue;
    if (!CanShip(a)) return;  // a CHUNK_ACK will re-enter via PumpInput
    ShipChunk(i);
  }
  input_done_ = true;
  for (Agent& a : agents_) {
    if (a.state != AgentState::kRunning) continue;
    (void)a.conn->Send(
        EncodeInputDone(InputDoneFrame{.total_records = a.status.records_sent}));
  }
}

void Controller::OnClose(size_t index, Status reason) {
  Agent& a = agents_[index];
  a.conn.reset();
  if (a.state == AgentState::kDone || a.state == AgentState::kFailed) return;
  std::string why = reason.ok() ? std::string("agent closed the connection")
                                : reason.error().ToString();
  AgentFailed(index, std::move(why), /*fatal=*/started_);
}

void Controller::AgentFailed(size_t index, std::string why, bool fatal) {
  Agent& a = agents_[index];
  const bool was_handshaking = a.state == AgentState::kConnecting ||
                               a.state == AgentState::kHello ||
                               a.state == AgentState::kClock;
  a.state = AgentState::kFailed;
  a.status.error = why;
  a.conn.reset();
  if (fatal) {
    // Mid-run death: never rebalanced — surviving agents cannot replay
    // the dead agent's clients without breaking outcome accounting.
    FailRun("agent " + std::to_string(a.status.id) + " (" +
            a.status.endpoint.ToString() + "): " + why);
    return;
  }
  if (was_handshaking && handshakes_pending_ > 0 &&
      --handshakes_pending_ == 0) {
    MaybeStart();
  }
}

void Controller::FailRun(std::string why) {
  if (failed_) return;
  failed_ = true;
  fail_reason_ = std::move(why);
  loop_->Stop();
}

stats::MetricsSnapshot Controller::MergedMetrics() const {
  std::vector<stats::MetricsSnapshot> parts;
  for (const Agent& a : agents_) parts.push_back(a.status.metrics);
  return stats::MergeSnapshots(parts);
}

void Controller::WriteMergedRow(bool force) {
  if (!metrics_file_) return;
  stats::MetricsSnapshot merged = MergedMetrics();
  // Every agent snapshot is stamped, so 0 means none has arrived yet.
  if (merged.taken_at == 0 && !force) return;
  stats::JsonlRow row = stats::RowFromSnapshot(
      merged, have_merged_ ? &last_merged_ : nullptr, merged_seq_++,
      /*emit_buckets=*/true);
  std::string line = stats::FormatJsonlRow(row);
  std::fwrite(line.data(), 1, line.size(), metrics_file_);
  std::fputc('\n', metrics_file_);
  std::fflush(metrics_file_);
  last_merged_ = std::move(merged);
  have_merged_ = true;
}

void Controller::RearmMergedRow() {
  if (!metrics_file_) return;
  merged_timer_ = loop_->ScheduleAfter(options_.stats_interval, [this] {
    WriteMergedRow(/*force=*/false);
    RearmMergedRow();
  });
}

}  // namespace

std::vector<std::string> DistributedReport::ReconcileDiffs() const {
  std::vector<std::string> diffs;
  uint64_t shipped_total = 0;
  for (const AgentStatus& a : agents) {
    shipped_total += a.records_sent;
    if (!a.completed) {
      if (!a.error.empty() && a.records_sent > 0) {
        diffs.push_back("agent " + std::to_string(a.id) + ": no report (" +
                        a.error + ") after " +
                        std::to_string(a.records_sent) + " records shipped");
      }
      continue;
    }
    const replay::RealtimeReport c = a.counts();
    if (a.records_sent != c.queries_sent) {
      diffs.push_back("agent " + std::to_string(a.id) + ": shipped " +
                      std::to_string(a.records_sent) + " records but sent " +
                      std::to_string(c.queries_sent));
    }
    if (c.queries_sent != c.answered + c.timed_out + c.send_failed) {
      diffs.push_back(
          "agent " + std::to_string(a.id) + ": sent " +
          std::to_string(c.queries_sent) + " != answered " +
          std::to_string(c.answered) + " + timed_out " +
          std::to_string(c.timed_out) + " + send_failed " +
          std::to_string(c.send_failed));
    }
  }
  if (!failed && shipped_total != total_records) {
    diffs.push_back("controller shipped " + std::to_string(shipped_total) +
                    " of " + std::to_string(total_records) +
                    " trace records");
  }
  const uint64_t merged_sent = merged().queries_sent;
  if (!failed && merged_sent != total_records) {
    diffs.push_back("merged sent " + std::to_string(merged_sent) +
                    " != trace records " + std::to_string(total_records));
  }
  return diffs;
}

Result<DistributedReport> RunDistributedReplay(
    const std::vector<trace::QueryRecord>& records,
    const ControllerOptions& options) {
  Controller controller(records, options);
  return controller.Run();
}

}  // namespace ldp::distrib
