#include "replay/sim_engine.h"

#include "common/log.h"
#include "dns/framing.h"

namespace ldp::replay {
namespace {

// A record's query behind its 2-byte length prefix. A query is at most a
// few hundred bytes, far below the frame cap, so framing cannot fail.
Bytes FramedQuery(const trace::QueryRecord& record, uint16_t id) {
  Bytes wire;
  record.AppendWire(id, wire);
  return std::move(dns::FrameMessage(wire)).value();
}

}  // namespace

stats::Distribution SimReplayReport::LatencySummary(
    size_t max_source_queries) const {
  std::unordered_map<IpAddress, size_t> loads;
  if (max_source_queries > 0) loads = SourceLoads();

  stats::Summary summary;
  for (const auto& outcome : outcomes) {
    if (!outcome.answered()) continue;
    if (max_source_queries > 0 &&
        loads[outcome.source] > max_source_queries) {
      continue;
    }
    summary.Add(ToMillis(outcome.latency()));
  }
  return summary.Summarize();
}

std::unordered_map<IpAddress, size_t> SimReplayReport::SourceLoads() const {
  std::unordered_map<IpAddress, size_t> loads;
  for (const auto& outcome : outcomes) ++loads[outcome.source];
  return loads;
}

SimReplayEngine::SimReplayEngine(sim::SimNetwork& net, SimReplayConfig config,
                                 sim::NodeMeters* server_meters)
    : net_(net), config_(config), server_meters_(server_meters) {}

SimReplayEngine::~SimReplayEngine() = default;

void SimReplayEngine::Load(const std::vector<trace::QueryRecord>& records) {
  records_ = records;
  report_.outcomes.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    const auto& record = records_[i];
    if (config_.time_limit > 0 && record.timestamp > config_.time_limit) {
      break;
    }
    size_t outcome_index = report_.outcomes.size();
    QueryOutcome outcome;
    outcome.trace_index = i;
    outcome.source = record.src;
    outcome.protocol = record.protocol;
    report_.outcomes.push_back(outcome);

    net_.simulator().ScheduleAt(record.timestamp, [this, outcome_index, i]() {
      SendQuery(outcome_index, records_[i]);
    });
  }
  if (config_.gauge_interval > 0 && server_meters_ != nullptr &&
      !gauge_sampling_armed_) {
    gauge_sampling_armed_ = true;
    SampleGauges();
  }
}

void SimReplayEngine::SampleGauges() {
  NanoTime now = net_.simulator().Now();
  report_.memory_samples.emplace_back(now, server_meters_->MemoryBytes());
  report_.established_samples.emplace_back(
      now, server_meters_->established_connections());
  report_.time_wait_samples.emplace_back(
      now, server_meters_->time_wait_connections());
  // Keep sampling while queries remain scheduled.
  NanoTime last =
      records_.empty() ? 0 : records_.back().timestamp + Seconds(1);
  if (config_.time_limit > 0 && config_.time_limit < last) {
    last = config_.time_limit;
  }
  if (now + config_.gauge_interval <= last) {
    net_.simulator().Schedule(config_.gauge_interval,
                              [this]() { SampleGauges(); });
  }
}

SimReplayEngine::SourceState& SimReplayEngine::StateFor(IpAddress source) {
  return sources_[source];
}

void SimReplayEngine::SendQuery(size_t outcome_index,
                                const trace::QueryRecord& record) {
  SourceState& state = StateFor(record.src);
  if (record.protocol == trace::Protocol::kUdp) {
    SendUdpQuery(state, outcome_index, record);
  } else {
    SendStreamQuery(state, outcome_index, record);
  }
}

void SimReplayEngine::SendUdpQuery(SourceState& state, size_t outcome_index,
                                   const trace::QueryRecord& record) {
  // One UDP endpoint per source, mirroring "a range of different port
  // numbers" at the server while sources stay stable.
  if (state.udp_port == 0) {
    state.udp_port = static_cast<uint16_t>(
        20000 + (record.src.value() % 40000));
    IpAddress source = record.src;
    auto status = net_.ListenUdp(
        Endpoint{record.src, state.udp_port},
        [this, source](const sim::SimPacket& packet) {
          auto message = dns::Message::Decode(packet.payload);
          if (!message.ok()) return;
          RecordResponse(StateFor(source), *message, packet.payload.size());
        });
    if (!status.ok()) {
      LDP_WARN << "UDP listen failed for replay source "
               << record.src.ToString();
      return;
    }
  }

  const uint16_t id = next_id_++;
  state.inflight[id] = outcome_index;
  Bytes wire;
  record.AppendWire(id, wire);

  QueryOutcome& outcome = report_.outcomes[outcome_index];
  outcome.sent = net_.simulator().Now();
  ++report_.queries_sent;
  net_.SendUdp(Endpoint{record.src, state.udp_port}, config_.server,
               std::move(wire));
}

void SimReplayEngine::SendStreamQuery(SourceState& state,
                                      size_t outcome_index,
                                      const trace::QueryRecord& record) {
  QueryOutcome& outcome = report_.outcomes[outcome_index];
  outcome.sent = net_.simulator().Now();

  // Existing connection of the right protocol: reuse it.
  if (state.conn != nullptr && state.conn_protocol == record.protocol &&
      state.conn->established()) {
    const uint16_t id = next_id_++;
    state.inflight[id] = outcome_index;
    ++report_.queries_sent;
    ++report_.reused_connections;
    state.conn->Send(FramedQuery(record, id));
    return;
  }

  // Queue behind an in-progress connect.
  state.backlog.push_back(outcome_index);
  if (state.connecting) return;

  if (state.tcp == nullptr) {
    state.tcp = std::make_unique<sim::SimTcpStack>(net_, record.src);
  }
  state.connecting = true;
  state.conn_protocol = record.protocol;
  bool tls = record.protocol == trace::Protocol::kTls;
  outcome.fresh_connection = true;
  ++report_.fresh_connections;

  IpAddress source = record.src;
  sim::ConnCallbacks callbacks;
  callbacks.on_established = [this, source](sim::SimTcpConnection& conn) {
    SourceState& st = StateFor(source);
    st.conn = &conn;
    st.connecting = false;
    st.assembler = std::make_shared<dns::StreamAssembler>();
    // Flush queries that queued while connecting.
    std::vector<size_t> backlog = std::move(st.backlog);
    st.backlog.clear();
    for (size_t index : backlog) {
      const auto& record = records_[report_.outcomes[index].trace_index];
      const uint16_t id = next_id_++;
      st.inflight[id] = index;
      ++report_.queries_sent;
      conn.Send(FramedQuery(record, id));
    }
  };
  callbacks.on_data = [this, source](sim::SimTcpConnection&,
                                     std::span<const uint8_t> data) {
    OnStreamData(source, data);
  };
  callbacks.on_close = [this, source](sim::SimTcpConnection&) {
    SourceState& st = StateFor(source);
    st.conn = nullptr;
    st.connecting = false;
    st.assembler.reset();
  };

  Endpoint target{config_.server.addr,
                  tls ? config_.tls_port : config_.server.port};
  auto conn = state.tcp->Connect(target, callbacks, tls);
  if (!conn.ok()) {
    LDP_WARN << "replay connect failed from " << source.ToString() << ": "
             << conn.error().ToString();
    state.connecting = false;
    state.backlog.clear();
  }
}

void SimReplayEngine::OnStreamData(IpAddress source,
                                   std::span<const uint8_t> data) {
  SourceState& state = StateFor(source);
  if (state.assembler == nullptr) return;
  if (!state.assembler->Feed(data).ok()) return;
  while (auto wire = state.assembler->NextMessage()) {
    auto message = dns::Message::Decode(*wire);
    if (!message.ok()) continue;
    RecordResponse(state, *message, wire->size() + 2);
  }
}

void SimReplayEngine::RecordResponse(SourceState& state,
                                     const dns::Message& message,
                                     size_t wire_size) {
  auto it = state.inflight.find(message.id);
  if (it == state.inflight.end()) return;
  QueryOutcome& outcome = report_.outcomes[it->second];
  state.inflight.erase(it);
  if (outcome.replied != 0) return;
  outcome.replied = net_.simulator().Now();
  outcome.response_bytes = static_cast<uint32_t>(wire_size);
  ++report_.responses;
}

SimReplayReport SimReplayEngine::Finish() {
  net_.simulator().Run();
  return std::move(report_);
}

}  // namespace ldp::replay
