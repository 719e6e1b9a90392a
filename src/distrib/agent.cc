#include "distrib/agent.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/clock.h"

namespace ldp::distrib {

Result<std::unique_ptr<AgentServer>> AgentServer::Start(net::EventLoop& loop,
                                                        AgentOptions options) {
  auto server = std::unique_ptr<AgentServer>(
      new AgentServer(loop, std::move(options)));
  AgentServer* raw = server.get();
  LDP_ASSIGN_OR_RETURN(
      server->listener_,
      net::TcpListener::Listen(loop, server->options_.listen,
                               [raw](std::unique_ptr<net::TcpConnection> c) {
                                 raw->OnAccept(std::move(c));
                               }));
  return server;
}

AgentServer::~AgentServer() = default;

void AgentServer::OnAccept(std::unique_ptr<net::TcpConnection> conn) {
  if (conn_) return;  // one controller per agent; extra dials are dropped
  conn_ = std::move(conn);
  Status adopted = net::TcpListener::AdoptHandlers(
      *conn_,
      [this](std::span<const uint8_t> data) { OnData(data); },
      [this](Status reason) { OnClose(std::move(reason)); });
  if (!adopted.ok()) {
    conn_.reset();
    Fail(adopted.error().WithContext("adopting controller connection"));
  }
}

void AgentServer::OnData(std::span<const uint8_t> data) {
  if (stopped_) return;
  Status fed = assembler_.Feed(data);
  if (!fed.ok()) {
    Fail(fed.error().WithContext("controller stream"));
    return;
  }
  while (auto frame = assembler_.Next()) {
    Status handled = HandleFrame(*frame);
    if (!handled.ok()) {
      Fail(std::move(handled));
      return;
    }
    if (stopped_) return;  // BYE inside the batch
  }
}

void AgentServer::OnClose(Status reason) {
  if (stopped_) return;
  conn_.reset();
  if (reported_) {
    // Controller read our REPORT and hung up without BYE — still a
    // completed run.
    Shutdown();
    return;
  }
  if (reason.ok()) {
    Fail(Error(ErrorCode::kConnectionClosed,
               "controller disconnected mid-run"));
  } else {
    Fail(reason.error().WithContext("controller connection"));
  }
}

Status AgentServer::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      return HandleHello(frame);
    case FrameType::kClockPing: {
      LDP_ASSIGN_OR_RETURN(auto ping, DecodeClockPing(frame));
      Send(EncodeClockPong(
          ClockPongFrame{.t1 = ping.t1, .t2 = MonotonicNow()}));
      return Status::Ok();
    }
    case FrameType::kStart:
      return HandleStart(frame);
    case FrameType::kChunk:
      return HandleChunk(frame);
    case FrameType::kInputDone: {
      LDP_ASSIGN_OR_RETURN(auto done, DecodeInputDone(frame));
      if (!pipeline_) {
        return Error(ErrorCode::kInvalidArgument, "INPUT_DONE before START");
      }
      input_done_ = true;
      expected_total_ = done.total_records;
      Pump();
      MaybeFinish();
      return Status::Ok();
    }
    case FrameType::kError: {
      LDP_ASSIGN_OR_RETURN(auto error, DecodeError(frame));
      return Error(ErrorCode::kInternal, "controller error: " + error.message);
    }
    case FrameType::kBye:
      Shutdown();
      return Status::Ok();
    default:
      return Error(ErrorCode::kParseError,
                   "unexpected frame type " +
                       std::to_string(static_cast<int>(frame.type)));
  }
}

Status AgentServer::HandleHello(const Frame& frame) {
  if (got_hello_) {
    return Error(ErrorCode::kAlreadyExists, "second HELLO");
  }
  LDP_ASSIGN_OR_RETURN(hello_, DecodeHello(frame));
  got_hello_ = true;
  // The agent owns its metrics: the registry feeds the local JSONL file,
  // the STATS frames and the REPORT. The pipeline's internal snapshotter
  // stays unset — WriteNow must run on this loop thread, not
  // distributor 0's.
  hello_.config.metrics = &registry_;
  if (!options_.metrics_path.empty()) {
    stats::MetricsSnapshotter::Options snap_options;
    snap_options.path = options_.metrics_path;
    snap_options.interval = hello_.stats_interval;
    snap_options.emit_buckets = true;
    snapshotter_ = std::make_unique<stats::MetricsSnapshotter>(
        registry_, std::move(snap_options));
    LDP_RETURN_IF_ERROR(snapshotter_->Open());
  }
  Send(EncodeHelloAck(
      HelloAckFrame{.version = kVersion, .agent_id = hello_.agent_id}));
  return Status::Ok();
}

Status AgentServer::HandleStart(const Frame& frame) {
  if (!got_hello_) {
    return Error(ErrorCode::kInvalidArgument, "START before HELLO");
  }
  if (pipeline_) {
    return Error(ErrorCode::kAlreadyExists, "second START");
  }
  LDP_ASSIGN_OR_RETURN(auto start, DecodeStart(frame));
  epoch_mono_ = start.epoch_mono;
  // Chunk timestamps arrive pre-rebased, so the trace epoch is 0.
  LDP_ASSIGN_OR_RETURN(pipeline_,
                       replay::ReplayPipeline::Start(hello_.config, epoch_mono_,
                                                     /*trace_epoch=*/0));
  RearmPump();
  RearmStats();
  return Status::Ok();
}

Status AgentServer::HandleChunk(const Frame& frame) {
  if (!pipeline_) {
    return Error(ErrorCode::kInvalidArgument, "CHUNK before START");
  }
  if (input_done_) {
    return Error(ErrorCode::kInvalidArgument, "CHUNK after INPUT_DONE");
  }
  LDP_ASSIGN_OR_RETURN(auto chunk, DecodeChunk(frame));
  staging_.push_back(StagedChunk{.seq = chunk.seq,
                                 .records = std::move(chunk.records),
                                 .cursor = 0});
  Pump();
  return Status::Ok();
}

void AgentServer::Pump() {
  if (!pipeline_ || stopped_) return;
  const NanoTime window_end =
      hello_.config.fast_mode
          ? std::numeric_limits<NanoTime>::max()
          : (MonotonicNow() - epoch_mono_) + hello_.config.lookahead;
  while (!staging_.empty()) {
    StagedChunk& chunk = staging_.front();
    // Engine backlog: queries fed but not yet terminal.
    const uint64_t backlog = pipeline_->fed() - pipeline_->TerminalCount();
    if (backlog >= options_.max_outstanding) return;
    const uint64_t room = options_.max_outstanding - backlog;
    size_t end = chunk.cursor;
    while (end < chunk.records.size() &&
           end - chunk.cursor < room &&
           chunk.records[end].timestamp <= window_end) {
      ++end;
    }
    if (end > chunk.cursor) {
      pipeline_->Feed(std::span<const trace::QueryRecord>(chunk.records)
                          .subspan(chunk.cursor, end - chunk.cursor));
      chunk.cursor = end;
    }
    if (chunk.cursor < chunk.records.size()) return;  // not yet due / full
    Send(EncodeChunkAck(ChunkAckFrame{.seq = chunk.seq}));
    staging_.pop_front();
  }
}

void AgentServer::MaybeFinish() {
  if (!pipeline_ || stopped_ || reported_) return;
  if (!input_done_ || !staging_.empty()) return;
  if (!input_closed_) {
    if (pipeline_->fed() != expected_total_) {
      Fail(Error(ErrorCode::kInternal,
                 "fed " + std::to_string(pipeline_->fed()) + " records, "
                 "controller announced " +
                     std::to_string(expected_total_)));
      return;
    }
    pipeline_->CloseInput();
    input_closed_ = true;
  }
  if (!pipeline_->Done()) return;  // completion poll re-checks
  // The counts the REPORT carries are the registry's, now final: Finish
  // joined every distributor.
  auto finished = pipeline_->Finish();
  if (!finished.ok()) {
    Fail(finished.error().WithContext("replay"));
    return;
  }
  Send(EncodeReport(TakeSnapshot()));
  reported_ = true;
  pump_timer_.Cancel();
  stats_timer_.Cancel();
}

void AgentServer::RearmPump() {
  pump_timer_ = loop_.ScheduleAfter(options_.pump_interval, [this] {
    Pump();
    MaybeFinish();
    if (!stopped_ && !reported_) RearmPump();
  });
}

void AgentServer::SendStats() {
  if (stopped_ || reported_ || !conn_) return;
  Send(EncodeStats(TakeSnapshot()));
}

stats::MetricsSnapshot AgentServer::TakeSnapshot() {
  if (snapshotter_) return snapshotter_->WriteNow();
  stats::MetricsSnapshot snapshot = registry_.Snapshot();
  snapshot.taken_at = WallNow();
  return snapshot;
}

void AgentServer::RearmStats() {
  stats_timer_ = loop_.ScheduleAfter(hello_.stats_interval, [this] {
    SendStats();
    if (!stopped_ && !reported_) RearmStats();
  });
}

void AgentServer::Send(Bytes frame) {
  if (!conn_) return;
  Status sent = conn_->Send(frame);
  if (!sent.ok() && !stopped_) {
    Fail(sent.error().WithContext("send to controller"));
  }
}

void AgentServer::Fail(Status status) {
  if (stopped_) return;
  result_ = std::move(status);
  if (conn_) {
    // Best effort; the controller may already be gone.
    (void)conn_->Send(EncodeError(ErrorFrame{result_.error().message()}));
  }
  Shutdown();
}

void AgentServer::Shutdown() {
  if (stopped_) return;
  stopped_ = true;
  pump_timer_.Cancel();
  stats_timer_.Cancel();
  // Tear the pipeline down before stopping: joins distributor threads so
  // nothing touches the registry after the tool frees us.
  if (pipeline_ && !reported_) {
    pipeline_->CloseInput();
    (void)pipeline_->Finish();
  }
  pipeline_.reset();
  loop_.Stop();
}

}  // namespace ldp::distrib
