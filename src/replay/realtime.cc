#include "replay/realtime.h"

#include <sys/prctl.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/log.h"
#include "dns/framing.h"
#include "dns/wire.h"
#include "net/sockets.h"
#include "net/tls.h"
#include "replay/queue.h"
#include "replay/sticky.h"
#include "stats/timeseries.h"

namespace ldp::replay {
namespace {

struct QueryJob {
  NanoTime trace_time;  // rebased: first query = 0
  trace::QueryRecord record;
  // Slot for this query's terminal outcome. Owned by the pipeline's
  // chunk storage, whose addresses are stable for the run, so queriers
  // write results through the pointer without ever sharing an index space
  // with the feeder.
  SendOutcome* outcome;
};

// One distributor's transport cells: its queriers count into them from
// the distributor thread, and the feeder thread sums them.
using TransportLedger = stats::Ledger<kTransportLedger>;

// Per-querier live-metric instances (all nullptr when metrics are off).
// Each querier gets its own instances under shared names; the registry
// merges them at snapshot time, so recording never crosses threads.
struct QuerierMetrics {
  stats::LogHistogram* latency = nullptr;    // send→answer, ns
  stats::LogHistogram* send_lateness = nullptr;  // sent − scheduled, ns
  stats::LogHistogram* send_early = nullptr;     // scheduled − sent, ns
  stats::Gauge* inflight = nullptr;          // non-terminal tracked queries
  stats::LogHistogram* tls_handshake = nullptr;    // client handshake, ns
};

// Timeout keys: UDP entries are the bare 16-bit ID; TCP entries pack a
// per-connection index so per-connection ID spaces stay distinct. (An
// index rather than the source address: with follow_trace_dst a
// connection is keyed by source AND target, which no longer fits in the
// key's upper bits.)
constexpr uint64_t kTcpKeyBit = 1ULL << 63;
uint64_t UdpKey(uint16_t id) { return id; }

// Stream connection identity. Without follow_trace_dst every target is
// config.server, so this degenerates to the historical per-source keying.
// `tls` separates a source's DoT connection from its plain-TCP one (a
// mixed trace may carry both protocols for the same source).
struct ConnKey {
  IpAddress source;
  Endpoint target;
  bool tls = false;
  bool operator==(const ConnKey&) const = default;
};

struct ConnKeyHash {
  size_t operator()(const ConnKey& key) const noexcept {
    uint64_t packed = (uint64_t{key.source.value()} << 32) |
                      (uint64_t{key.target.addr.value()} ^
                       (uint64_t{key.target.port} << 24));
    if (key.tls) packed ^= 0x9e3779b97f4a7c15ULL;
    return std::hash<uint64_t>()(packed);
  }
};

// Expiry-check cadence: fine enough that a timeout is detected within
// ~1/8 of its length, floored so short test timeouts do not busy-spin the
// loop.
NanoDuration ExpiryTickFor(NanoDuration query_timeout) {
  return std::clamp<NanoDuration>(query_timeout / 8, Millis(1), Millis(16));
}

// One entry of a timeout FIFO: at `deadline` query `key` times out, unless
// it was answered or freed meanwhile. Nothing cancels the entry; on pop, a
// `seq` that no longer matches the inflight entry's says it is stale.
struct Timeout {
  NanoTime deadline = 0;
  uint64_t key = 0;
  uint64_t seq = 0;
};

// Retry k waits query_timeout << k (exponential backoff); the shift is
// clamped so a large retransmit budget cannot overflow int64 ns.
constexpr int kMaxBackoffShift = 10;

// One logical querier: a UDP socket plus per-source TCP connections. Every
// accepted query is tracked until it reaches a terminal outcome (answered /
// timed out / send-failed); see realtime.h. Each live query has one entry
// in the timeout FIFO of its retransmit level: every entry of level k
// waits the same query_timeout << k, so pushing in send order keeps each
// FIFO in deadline order with no heap or wheel. An answered query leaves
// its entry behind, and the entry is dropped when it reaches the front.
class Querier {
 public:
  Querier(net::EventLoop& loop, const RealtimeConfig& config,
          const TransportLedger& ledger, QuerierMetrics metrics = {})
      : loop_(loop),
        config_(config),
        ledger_(ledger),
        metrics_(metrics),
        tick_interval_(ExpiryTickFor(config.query_timeout)),
        timeouts_(std::clamp(config.max_retransmits, 0, kMaxBackoffShift) +
                  1) {}

  Status Init() {
    net::UdpOptions options;
    options.metrics = config_.metrics;
    // Reply latency comes from the kernel's receive stamp, so a reply read
    // late from a disarmed socket (see Distributor) is not biased by it.
    options.rx_timestamps = true;
    LDP_ASSIGN_OR_RETURN(
        udp_, net::UdpSocket::Open(
                  loop_, Endpoint{config_.local_addr, 0},
                  [this](std::span<const net::UdpSocket::RecvItem> batch) {
                    const NanoTime handled = MonotonicNow() - epoch_mono_;
                    for (const auto& item : batch) OnUdpReply(item, handled);
                  },
                  options));
    return Status::Ok();
  }

  // Reads every reply waiting on the UDP socket, up to the socket's
  // per-event cap; returns true when the socket was left empty.
  bool DrainReplies() { return udp_->Drain(); }

  // Whether the UDP socket wakes the loop on its own when replies arrive.
  bool replies_armed() const { return replies_armed_; }
  void SetRepliesArmed(bool armed) {
    if (armed == replies_armed_) return;
    if (udp_->SetReadArmed(armed).ok()) replies_armed_ = armed;
  }

  // Fires whenever the querier may have just gone idle; the distributor
  // uses it to detect that every outcome is terminal and stop the loop.
  void set_on_idle(std::function<void()> on_idle) {
    on_idle_ = std::move(on_idle);
  }

  // Every live query (UDP and TCP, including frames waiting in a connect
  // backlog) is in an inflight table until it reaches a terminal outcome,
  // so empty tables mean every outcome this querier owns is terminal.
  bool idle() const { return udp_inflight_.empty() && tcp_live_ == 0; }

  // `now` is the caller's monotonic clock read: the query's send stamp and
  // the start of its timeout.
  void Send(const QueryJob& job, NanoTime epoch_mono, NanoTime now) {
    epoch_mono_ = epoch_mono;  // reply timestamps share the send epoch

    SendOutcome& outcome = *job.outcome;
    outcome.trace_time = job.trace_time;
    // Every accepted query raises the inflight gauge here; the matching
    // decrement happens on its terminal transition (Terminal/RecordAnswer),
    // so failure paths that go terminal immediately still balance.
    if (metrics_.inflight != nullptr) metrics_.inflight->Add(1);

    if (job.record.protocol == trace::Protocol::kUdp) {
      SendUdp(job, now);
    } else {
      SendTcp(job, now);
    }
  }

  // Pushes all pending UDP queries to the kernel with one sendmmsg. The
  // distributor calls this at every scheduling point (end of a queue
  // drain, each timer dispatch), so batching never delays a scheduled
  // send past its loop iteration.
  void Flush() {
    if (pending_udp_.empty()) return;
    pending_items_.clear();
    live_ids_.clear();
    for (uint16_t id : pending_udp_) {
      const UdpEntry* entry = udp_inflight_.find(id);
      if (entry == nullptr) continue;  // aged out while staged
      pending_items_.push_back(
          net::UdpSocket::SendItem{entry->wire, entry->target});
      live_ids_.push_back(id);
    }
    size_t accepted =
        pending_items_.empty() ? 0 : udp_->SendBatch(pending_items_);
    for (size_t i = 0; i < accepted; ++i) {
      udp_inflight_.find(live_ids_[i])->on_wire = true;
    }
    if (accepted == live_ids_.size()) {
      pending_udp_.clear();
      flush_retries_ = 0;
      return;
    }
    // Kernel send buffer full: re-queue the unsent tail and retry shortly
    // with backoff instead of silently dropping it.
    pending_udp_.assign(live_ids_.begin() + static_cast<ptrdiff_t>(accepted),
                        live_ids_.end());
    if (++flush_retries_ > kMaxFlushRetries) {
      LDP_DEBUG << "UDP flush: giving up on " << pending_udp_.size()
                << " staged queries after " << kMaxFlushRetries << " retries";
      for (uint16_t id : pending_udp_) {
        UdpEntry* entry = udp_inflight_.find(id);
        if (entry == nullptr) continue;
        Terminal(entry->outcome, SendOutcome::State::kSendFailed);
        udp_inflight_.Erase(id);
      }
      pending_udp_.clear();
      flush_retries_ = 0;
      MaybeIdle();
      return;
    }
    ArmFlushRetry();
  }

 private:
  static constexpr int kMaxFlushRetries = 10;

  // Where a query goes: the fixed server, or (hierarchy replay) the
  // record's own destination, optionally aliased into 127/8 and repointed
  // at the proxy's shared service port.
  Endpoint TargetFor(const trace::QueryRecord& record) const {
    if (!config_.follow_trace_dst) return config_.server;
    Endpoint target{record.dst, record.dst_port};
    if (config_.loopback_alias_dst) target.addr = LoopbackAlias(target.addr);
    if (config_.dst_port_override != 0) target.port = config_.dst_port_override;
    return target;
  }

  // A slot of the UDP inflight table; a later query reuses it, `wire`'s
  // capacity included.
  struct UdpEntry {
    SendOutcome* outcome = nullptr;
    Bytes wire;           // encoded query, kept for retransmits
    Endpoint target;      // destination (kept so retransmits follow it)
    uint64_t seq = 0;     // matches this query's Timeout entry
    int tries = 0;        // retransmits performed
    bool on_wire = false;  // accepted by the kernel at least once
  };

  struct TcpState {
    ConnKey key;
    uint32_t index = 0;  // packs into timeout keys; see conn_index_
    std::unique_ptr<net::StreamConn> conn;
    // Non-owning view of `conn` when key.tls, for the post-handshake
    // accessors (session_reused, handshake_duration); null otherwise.
    net::TlsConnection* tls_conn = nullptr;
    dns::StreamAssembler assembler;
    bool connected = false;
    bool paused = false;   // write-watermark backpressure
    int attempts = 0;      // reconnect budget used; reset by a reply
    NanoTime last_activity = 0;
    net::TimerHandle idle_timer;
    net::TimerHandle reconnect_timer;
    uint16_t next_id = 1;
    struct Entry {
      SendOutcome* outcome = nullptr;
      Bytes frame;  // length-prefixed wire form, kept for redelivery
      uint64_t seq = 0;  // matches this query's Timeout entry
      bool on_wire = false;
    };
    std::unordered_map<uint16_t, Entry> inflight;
    // IDs awaiting connect completion, watermark resume, or reconnect;
    // always a subset of inflight's keys.
    std::deque<uint16_t> backlog;
  };

  // --- terminal outcomes ---

  void Terminal(SendOutcome* slot, SendOutcome::State state) {
    SendOutcome& outcome = *slot;
    if (outcome.state != SendOutcome::State::kPending) return;
    outcome.state = state;
    if (state == SendOutcome::State::kTimedOut) {
      ledger_.Add<&RealtimeReport::timed_out>();
    } else if (state == SendOutcome::State::kSendFailed) {
      ledger_.Add<&RealtimeReport::send_failed>();
    }
    if (metrics_.inflight != nullptr) metrics_.inflight->Add(-1);
  }

  // `replied` is relative to the replay epoch, like outcome.sent.
  void RecordAnswer(SendOutcome* slot, NanoTime replied) {
    SendOutcome& outcome = *slot;
    if (outcome.state != SendOutcome::State::kPending) return;
    outcome.state = SendOutcome::State::kAnswered;
    outcome.replied = replied;
    ledger_.Add<&RealtimeReport::answered>();
    if (metrics_.inflight != nullptr) metrics_.inflight->Add(-1);
    if (metrics_.latency != nullptr && outcome.replied > outcome.sent) {
      metrics_.latency->Record(
          static_cast<uint64_t>(outcome.replied - outcome.sent));
    }
  }

  void MaybeIdle() {
    if (on_idle_ && idle()) on_idle_();
  }

  // Fig 6's timing error, live: actual minus scheduled send time. A send
  // that the coalescing window took early counts 0 in the lateness
  // histogram and its lead in the early one. Fast mode has no schedule.
  void RecordLateness(const SendOutcome& outcome) {
    if (metrics_.send_lateness == nullptr || config_.fast_mode) return;
    const NanoDuration late = outcome.sent - outcome.trace_time;
    metrics_.send_lateness->Record(
        static_cast<uint64_t>(std::max<NanoDuration>(0, late)));
    if (late < 0) metrics_.send_early->Record(static_cast<uint64_t>(-late));
  }

  // --- timeouts ---

  void ScheduleTimeout(uint64_t key, uint64_t seq, int tries, NanoTime now) {
    const int level = std::min(tries, kMaxBackoffShift);
    timeouts_[static_cast<size_t>(level)].push_back(
        Timeout{now + (config_.query_timeout << level), key, seq});
    ArmTick();
  }

  void ArmTick() {
    if (tick_armed_) return;
    tick_armed_ = true;
    loop_.ScheduleAfter(tick_interval_, [this]() { OnTick(); });
  }

  void OnTick() {
    tick_armed_ = false;
    // A reply may be waiting unread in a disarmed socket: read everything
    // before deciding that anything timed out.
    while (!DrainReplies()) {
    }
    const NanoTime now = MonotonicNow();
    for (auto& fifo : timeouts_) {
      while (!fifo.empty() && fifo.front().deadline <= now) {
        const Timeout timeout = fifo.pop_front();
        if (timeout.key & kTcpKeyBit) {
          ExpireTcp(timeout);
        } else {
          ExpireUdp(timeout, now);
        }
      }
    }
    if (!idle()) ArmTick();
    MaybeIdle();
  }

  void ExpireUdp(const Timeout& timeout, NanoTime now) {
    const uint16_t id = static_cast<uint16_t>(timeout.key);
    UdpEntry* entry = udp_inflight_.find(id);
    if (entry == nullptr || entry->seq != timeout.seq) return;  // answered
    if (!entry->on_wire) {
      // Never accepted by the kernel within a full timeout: send-failed,
      // not timed-out — the server never saw it.
      Terminal(entry->outcome, SendOutcome::State::kSendFailed);
      udp_inflight_.Erase(id);
      return;
    }
    if (entry->tries < config_.max_retransmits) {
      ++entry->tries;
      entry->outcome->retransmits =
          static_cast<uint8_t>(std::min(entry->tries, 255));
      ledger_.Add<&RealtimeReport::retransmits>();
      auto status = udp_->SendTo(entry->wire, entry->target);
      (void)status;  // a full buffer just leaves it to the next expiry
      ScheduleTimeout(timeout.key, entry->seq, entry->tries, now);
      return;
    }
    Terminal(entry->outcome, SendOutcome::State::kTimedOut);
    udp_inflight_.Erase(id);
  }

  void ExpireTcp(const Timeout& timeout) {
    uint32_t index = static_cast<uint32_t>((timeout.key >> 16) & 0xffffffff);
    uint16_t id = static_cast<uint16_t>(timeout.key & 0xffff);
    auto indexed = conn_index_.find(index);
    if (indexed == conn_index_.end()) return;
    auto it = tcp_.find(indexed->second);
    if (it == tcp_.end()) return;
    TcpState& state = *it->second;
    auto entry = state.inflight.find(id);
    if (entry == state.inflight.end() || entry->second.seq != timeout.seq) {
      return;  // answered, or the ID now carries a later query
    }
    // on_wire distinguishes "written to a stream, no answer" (timed out)
    // from "still waiting in a backlog, never delivered" (send-failed).
    Terminal(entry->second.outcome,
             entry->second.on_wire ? SendOutcome::State::kTimedOut
                                   : SendOutcome::State::kSendFailed);
    EraseTcp(state, entry);
    // The backlog may still hold the ID; WriteFrame skips missing entries.
  }

  // --- UDP ---

  void SendUdp(const QueryJob& job, NanoTime now) {
    bool collided = false;
    auto allocated = AllocateQueryId(next_udp_id_, udp_inflight_, &collided);
    if (!allocated) {
      // All 65536 IDs inflight: this query cannot be matched to a reply.
      ledger_.Add<&RealtimeReport::id_collisions>();
      Terminal(job.outcome, SendOutcome::State::kSendFailed);
      MaybeIdle();
      return;
    }
    const uint16_t id = *allocated;
    if (collided) ledger_.Add<&RealtimeReport::id_collisions>();

    UdpEntry& entry = udp_inflight_.Insert(id);
    entry.outcome = job.outcome;
    entry.wire.clear();
    job.record.AppendWire(id, entry.wire);
    entry.target = TargetFor(job.record);
    entry.seq = ++next_seq_;
    entry.tries = 0;
    entry.on_wire = false;
    job.outcome->sent = now - epoch_mono_;
    RecordLateness(*job.outcome);
    ScheduleTimeout(UdpKey(id), entry.seq, /*tries=*/0, now);

    if (config_.batch_udp) {
      pending_udp_.push_back(id);
      if (pending_udp_.size() >= net::UdpSocket::kBatchSize) Flush();
      return;
    }
    auto status = udp_->SendTo(entry.wire, entry.target);
    if (status.ok()) {
      entry.on_wire = true;
      return;
    }
    LDP_DEBUG << "UDP send failed: " << status.error().ToString();
    // Send buffer full (or transient error): stage for the batch-flush
    // retry path instead of dropping.
    pending_udp_.push_back(id);
    ArmFlushRetry();
  }

  void ArmFlushRetry() {
    if (flush_retry_armed_) return;
    flush_retry_armed_ = true;
    NanoDuration delay = std::min<NanoDuration>(
        Millis(1) << std::min(flush_retries_, 4), Millis(16));
    loop_.ScheduleAfter(delay, [this]() {
      flush_retry_armed_ = false;
      Flush();
      MaybeIdle();
    });
  }

  // `handled` is when the batch was read, relative to the replay epoch.
  void OnUdpReply(const net::UdpSocket::RecvItem& item, NanoTime handled) {
    // A reply answers the inflight query with its ID only if it comes from
    // the endpoint the query went to and carries the same question (RFC
    // 5452 §3); a late reply (after age-out), an unknown ID, a reply from
    // another source or to another question is counted and leaves the
    // query pending.
    std::span<const uint8_t> payload = item.payload;
    const uint16_t id =
        payload.size() < 2
            ? 0
            : static_cast<uint16_t>((payload[0] << 8) | payload[1]);
    UdpEntry* entry = payload.size() < 2 ? nullptr : udp_inflight_.find(id);
    if (entry == nullptr || item.from != entry->target ||
        !dns::SameFirstQuestion(payload, entry->wire)) {
      ledger_.Add<&RealtimeReport::unmatched_replies>();
      return;
    }
    // The kernel's receive stamp, kept between the send and the read so a
    // stamp the clock conversion skewed cannot invert either.
    NanoTime replied = handled;
    if (item.rx_time != 0) {
      replied = std::clamp(item.rx_time - epoch_mono_, entry->outcome->sent,
                           handled);
    }
    RecordAnswer(entry->outcome, replied);
    udp_inflight_.Erase(id);  // its Timeout entry is dropped when popped
    MaybeIdle();
  }

  // --- TCP lifecycle ---
  //
  // Connection callbacks capture the source address, never TcpState* or
  // TcpConnection* — state is re-looked-up through tcp_, so a state
  // disposed between scheduling and firing is simply not found. Dead
  // connections and states are moved to a graveyard and destroyed on the
  // next loop iteration: destroying them in place would free the
  // TcpConnection whose callback is currently executing.

  void SendTcp(const QueryJob& job, NanoTime now) {
    bool tls = job.record.protocol == trace::Protocol::kTls;
    if (tls && !net::TlsAvailable()) {
      if (!warned_no_tls_) {
        warned_no_tls_ = true;
        LDP_WARN << "trace carries TLS queries but this build has no "
                    "OpenSSL; counting them as send_failed";
      }
      ledger_.Add<&RealtimeReport::tls_aborts>();
      Terminal(job.outcome, SendOutcome::State::kSendFailed);
      MaybeIdle();
      return;
    }
    Endpoint target = TargetFor(job.record);
    if (tls && config_.tls_port != 0) target.port = config_.tls_port;
    ConnKey key{job.record.src, target, tls};
    auto it = tcp_.find(key);
    if (it == tcp_.end()) {
      auto state = std::make_unique<TcpState>();
      state->key = key;
      state->index = next_conn_index_++;
      conn_index_.emplace(state->index, key);
      it = tcp_.emplace(key, std::move(state)).first;
      StartConnect(*it->second);
      // A synchronous connect failure may already have disposed the state.
      it = tcp_.find(key);
      if (it == tcp_.end()) {
        Terminal(job.outcome, SendOutcome::State::kSendFailed);
        MaybeIdle();
        return;
      }
    }
    TcpState& state = *it->second;

    bool collided = false;
    auto allocated = AllocateQueryId(state.next_id, state.inflight, &collided);
    if (collided) ledger_.Add<&RealtimeReport::id_collisions>();
    if (!allocated) {
      Terminal(job.outcome, SendOutcome::State::kSendFailed);
      MaybeIdle();
      return;
    }

    tcp_wire_.clear();
    job.record.AppendWire(*allocated, tcp_wire_);
    auto framed = dns::FrameMessage(tcp_wire_);
    if (!framed.ok()) {
      Terminal(job.outcome, SendOutcome::State::kSendFailed);
      MaybeIdle();
      return;
    }

    TcpState::Entry entry;
    entry.outcome = job.outcome;
    entry.frame = std::move(*framed);
    entry.seq = ++next_seq_;
    const uint64_t seq = entry.seq;
    state.inflight.emplace(*allocated, std::move(entry));
    ++tcp_live_;
    job.outcome->sent = now - epoch_mono_;
    RecordLateness(*job.outcome);
    ScheduleTimeout(TcpKeyFor(state, *allocated), seq, /*tries=*/0, now);

    if (state.connected && !state.paused && state.backlog.empty()) {
      if (!WriteFrame(state, *allocated)) state.backlog.push_back(*allocated);
    } else {
      state.backlog.push_back(*allocated);
    }
  }

  // Timeout key for one inflight TCP query of this connection.
  static uint64_t TcpKeyFor(const TcpState& state, uint16_t id) {
    return kTcpKeyBit | (static_cast<uint64_t>(state.index) << 16) | id;
  }

  void StartConnect(TcpState& state) {
    ConnKey key = state.key;
    BuryConn(state);  // re-dial: the previous connection (if any) is dead
    state.connected = false;
    state.paused = false;
    state.assembler = dns::StreamAssembler();  // new stream, new framing
    auto on_ready = [this, key](Status status) {
      OnTcpConnected(key, std::move(status));
    };
    auto on_data = [this, key](std::span<const uint8_t> data) {
      auto it = tcp_.find(key);
      if (it != tcp_.end()) OnTcpData(*it->second, data);
    };
    auto on_close = [this, key](Status reason) {
      OnTcpClosed(key, std::move(reason));
    };
    if (key.tls) {
      // One client context per querier: the session cache inside it makes
      // every re-dial to an endpoint a resumption candidate, and sticky
      // same-source assignment keeps a source's reconnects on this cache.
      if (tls_ctx_ == nullptr) {
        auto ctx = net::TlsContext::NewClient();
        if (!ctx.ok()) {
          RetryOrFail(state);
          return;
        }
        tls_ctx_ = std::move(*ctx);
      }
      auto conn = net::TlsConnection::Connect(loop_, *tls_ctx_, key.target,
                                              std::move(on_ready),
                                              std::move(on_data),
                                              std::move(on_close));
      if (!conn.ok()) {
        RetryOrFail(state);
        return;
      }
      state.tls_conn = conn->get();
      state.conn = std::move(*conn);
    } else {
      auto conn = net::TcpConnection::Connect(loop_, key.target,
                                              std::move(on_ready),
                                              std::move(on_data),
                                              std::move(on_close));
      if (!conn.ok()) {
        RetryOrFail(state);
        return;
      }
      state.conn = std::move(*conn);
    }
    state.conn->SetWriteWatermarks(
        config_.tcp_write_high_watermark, config_.tcp_write_low_watermark,
        [this, key](bool paused) { OnTcpWatermark(key, paused); });
  }

  // For TLS connections this fires at handshake completion, not TCP
  // establishment — `connected` means "ready to carry queries" either way.
  void OnTcpConnected(ConnKey key, Status status) {
    auto it = tcp_.find(key);
    if (it == tcp_.end()) return;
    TcpState& state = *it->second;
    if (!status.ok()) {
      if (key.tls) ledger_.Add<&RealtimeReport::tls_aborts>();
      BuryConn(state);
      RetryOrFail(state);
      return;
    }
    if (key.tls && state.tls_conn != nullptr) {
      ledger_.Add<&RealtimeReport::tls_handshakes>();
      if (state.tls_conn->session_reused()) {
        ledger_.Add<&RealtimeReport::tls_resumptions>();
      }
      if (metrics_.tls_handshake != nullptr) {
        metrics_.tls_handshake->Record(
            static_cast<uint64_t>(state.tls_conn->handshake_duration()));
      }
    }
    state.connected = true;
    state.last_activity = MonotonicNow();
    ArmIdleTimer(state);
    DrainBacklog(state);
  }

  void OnTcpClosed(ConnKey key, Status reason) {
    (void)reason;  // Ok = peer EOF, error = reset; both re-queue the same way
    auto it = tcp_.find(key);
    if (it == tcp_.end()) return;
    TcpState& state = *it->second;
    state.connected = false;
    BuryConn(state);
    state.idle_timer.Cancel();
    if (state.inflight.empty()) {
      // Nothing owed (e.g. the server idle-closed us): dispose; the next
      // query for this source dials fresh.
      DisposeState(key);
      return;
    }
    RetryOrFail(state);
  }

  void OnTcpWatermark(ConnKey key, bool paused) {
    auto it = tcp_.find(key);
    if (it == tcp_.end()) return;
    TcpState& state = *it->second;
    state.paused = paused;
    if (!paused) DrainBacklog(state);
  }

  // Re-queues every inflight frame and schedules a reconnect, or fails the
  // whole state when the budget is spent.
  void RetryOrFail(TcpState& state) {
    state.connected = false;
    if (state.attempts >= config_.tcp_max_reconnects) {
      FailState(state.key);
      return;
    }
    // Everything written may have died with the stream: rebuild the
    // backlog in send order (the querier sends in trace order) so the
    // next connection redelivers it.
    std::vector<uint16_t> ids;
    ids.reserve(state.inflight.size());
    for (auto& [id, entry] : state.inflight) {
      entry.on_wire = false;
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(), [&state](uint16_t a, uint16_t b) {
      return state.inflight[a].seq < state.inflight[b].seq;
    });
    state.backlog.assign(ids.begin(), ids.end());

    NanoDuration delay = config_.tcp_reconnect_backoff
                         << std::min(state.attempts, 10);
    ++state.attempts;
    ledger_.Add<&RealtimeReport::tcp_reconnects>();
    ConnKey key = state.key;
    state.reconnect_timer = loop_.ScheduleAfter(delay, [this, key]() {
      auto it = tcp_.find(key);
      if (it != tcp_.end()) StartConnect(*it->second);
    });
  }

  void FailState(ConnKey key) {
    auto it = tcp_.find(key);
    if (it == tcp_.end()) return;
    TcpState& state = *it->second;
    for (auto& [id, entry] : state.inflight) {
      Terminal(entry.outcome, SendOutcome::State::kSendFailed);
    }
    tcp_live_ -= state.inflight.size();
    state.inflight.clear();
    DisposeState(key);
    MaybeIdle();
  }

  void DisposeState(ConnKey key) {
    auto it = tcp_.find(key);
    if (it == tcp_.end()) return;
    it->second->idle_timer.Cancel();
    it->second->reconnect_timer.Cancel();
    conn_index_.erase(it->second->index);
    BuryConn(*it->second);
    graveyard_states_.push_back(std::move(it->second));
    tcp_.erase(it);
    ArmSweep();
  }

  void BuryConn(TcpState& state) {
    if (state.conn == nullptr) return;
    state.tls_conn = nullptr;
    graveyard_conns_.push_back(std::move(state.conn));
    ArmSweep();
  }

  void ArmSweep() {
    if (sweep_armed_) return;
    sweep_armed_ = true;
    // Destroy on the next loop pass: the buried connection may be the one
    // whose callback is executing right now.
    loop_.ScheduleAfter(0, [this]() {
      sweep_armed_ = false;
      graveyard_conns_.clear();
      graveyard_states_.clear();
    });
  }

  bool WriteFrame(TcpState& state, uint16_t id) {
    auto it = state.inflight.find(id);
    if (it == state.inflight.end()) return true;  // aged out meanwhile
    auto status = state.conn->Send(it->second.frame);
    if (!status.ok()) return false;  // stream dying; close event re-queues
    it->second.on_wire = true;
    state.last_activity = MonotonicNow();
    return true;
  }

  void EraseTcp(TcpState& state,
                std::unordered_map<uint16_t, TcpState::Entry>::iterator it) {
    state.inflight.erase(it);
    --tcp_live_;
  }

  void DrainBacklog(TcpState& state) {
    while (!state.backlog.empty() && state.connected && !state.paused) {
      uint16_t id = state.backlog.front();
      if (!WriteFrame(state, id)) break;
      state.backlog.pop_front();
    }
  }

  void ArmIdleTimer(TcpState& state) {
    if (config_.tcp_idle_timeout <= 0) return;
    ConnKey key = state.key;
    state.idle_timer =
        loop_.ScheduleAfter(config_.tcp_idle_timeout, [this, key]() {
          auto it = tcp_.find(key);
          if (it == tcp_.end() || !it->second->connected) return;
          TcpState& state = *it->second;
          NanoTime deadline = state.last_activity + config_.tcp_idle_timeout;
          if (MonotonicNow() >= deadline && state.inflight.empty()) {
            ledger_.Add<&RealtimeReport::tcp_idle_closes>();
            DisposeState(key);  // active close: destruction sends FIN
            return;
          }
          ArmIdleTimer(state);  // activity since arming: re-check later
        });
  }

  void OnTcpData(TcpState& state, std::span<const uint8_t> data) {
    state.last_activity = MonotonicNow();
    if (!state.assembler.Feed(data).ok()) return;
    while (auto wire = state.assembler.NextMessage()) {
      // Matched as on UDP: the inflight ID must carry the same question
      // (the stored frame is the query behind its 2-byte length prefix).
      auto it = wire->size() < 2
                    ? state.inflight.end()
                    : state.inflight.find(static_cast<uint16_t>(
                          ((*wire)[0] << 8) | (*wire)[1]));
      if (it == state.inflight.end() ||
          !dns::SameFirstQuestion(
              *wire, std::span<const uint8_t>(it->second.frame).subspan(2))) {
        ledger_.Add<&RealtimeReport::unmatched_replies>();
        continue;
      }
      RecordAnswer(it->second.outcome, state.last_activity - epoch_mono_);
      EraseTcp(state, it);  // its Timeout entry is dropped when popped
      state.attempts = 0;  // a live reply refills the reconnect budget
    }
    MaybeIdle();
  }

  net::EventLoop& loop_;
  const RealtimeConfig config_;
  const TransportLedger& ledger_;
  QuerierMetrics metrics_;
  std::function<void()> on_idle_;

  std::unique_ptr<net::UdpSocket> udp_;
  InflightTable<UdpEntry> udp_inflight_;
  // Staged IDs awaiting the batch flush; wire bytes live in udp_inflight_.
  std::vector<uint16_t> pending_udp_;
  std::vector<net::UdpSocket::SendItem> pending_items_;
  std::vector<uint16_t> live_ids_;
  int flush_retries_ = 0;
  bool flush_retry_armed_ = false;
  uint16_t next_udp_id_ = 1;

  std::unordered_map<ConnKey, std::unique_ptr<TcpState>, ConnKeyHash> tcp_;
  // index -> key, for decoding timeout keys back to a connection.
  std::unordered_map<uint32_t, ConnKey> conn_index_;
  uint32_t next_conn_index_ = 1;
  size_t tcp_live_ = 0;  // entries across every TcpState::inflight
  Bytes tcp_wire_;       // AppendWire scratch for the frame
  std::vector<std::unique_ptr<net::StreamConn>> graveyard_conns_;
  std::vector<std::unique_ptr<TcpState>> graveyard_states_;
  bool sweep_armed_ = false;
  // Lazily created on the first kTls query this querier dials; holds the
  // client session cache that makes reconnects resumption candidates.
  std::unique_ptr<net::TlsContext> tls_ctx_;
  bool warned_no_tls_ = false;

  NanoDuration tick_interval_;
  // One FIFO per retransmit level (UDP and TCP first tries share level 0).
  std::vector<Ring<Timeout>> timeouts_;
  uint64_t next_seq_ = 0;
  bool tick_armed_ = false;
  bool replies_armed_ = true;  // UdpSocket::Open registers rx interest

  NanoTime epoch_mono_ = 0;
};

// Timed replay's send timing (DESIGN.md, "Replay send timing"). The
// distributor thread's timer slack: the kernel may fire a wake-up this
// much after its deadline. The window a send pass reaches ahead,
// kSendWindow, is in realtime.h.
constexpr unsigned long kSendTimerSlackNs = 20'000;
// While the next send is due within this horizon the querier sockets are
// disarmed and read right after each send instead of waking the loop.
constexpr NanoDuration kReplyReadHorizon = Micros(200);
// A send that follows at least kPreWakeGap of idle is woken kPreWake
// early and waits out the rest on the CPU. Waking from a long sleep takes
// ~150-250 us on a virtualized host, and the kernel adds 0.1% of a long
// timeout as slack (100 us for the loop's 100 ms cap), far more than the
// 20 us a short sleep gets.
constexpr NanoDuration kPreWakeGap = Millis(1);
constexpr NanoDuration kPreWake = Micros(500);

// A distributor thread: event loop + sticky querier assignment + the
// ΔT scheduler. Timed replay keeps one trace-ordered send queue and one
// loop timer armed for its head: a query with rebased trace time t leaves
// at epoch_mono + t, or at once if that has passed, or up to kSendWindow
// early with the send pass before it.
class Distributor {
 public:
  // Registers the distributor's transport cells in `metrics`.
  Distributor(const RealtimeConfig& config, NanoTime epoch_mono,
              stats::MetricsRegistry& metrics, uint64_t seed,
              stats::MetricsSnapshotter* snapshotter,
              std::atomic<size_t>* finished)
      : config_(config),
        epoch_mono_(epoch_mono),
        ledger_(metrics),
        snapshotter_(snapshotter),
        finished_(finished),
        assigner_(config.queriers_per_distributor, seed) {}

  NotifyQueue<QueryJob>& queue() { return queue_; }
  const TransportLedger& ledger() const { return ledger_; }

  void Start() {
    thread_ = std::thread([this]() { ThreadMain(); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  Status status() const { return status_; }

 private:
  void ThreadMain() {
    // Every exit path (including setup errors) must count the thread as
    // finished, or the pipeline's Done() would never flip.
    struct FinishedMark {
      std::atomic<size_t>* finished;
      ~FinishedMark() { finished->fetch_add(1, std::memory_order_release); }
    } mark{finished_};
    auto loop = net::EventLoop::Create();
    if (!loop.ok()) {
      status_ = loop.error();
      return;
    }
    loop_ = std::move(*loop);
#if defined(PR_SET_TIMERSLACK)
    ::prctl(PR_SET_TIMERSLACK, kSendTimerSlackNs, 0, 0, 0);
#endif
    if (config_.metrics != nullptr) {
      loop_->SetMetrics(config_.metrics->AddHistogram("replay.loop_lag_ns"),
                        config_.metrics->AddHistogram("replay.epoll_batch"));
    }

    for (size_t i = 0; i < config_.queriers_per_distributor; ++i) {
      QuerierMetrics qm;
      if (config_.metrics != nullptr) {
        qm.latency = config_.metrics->AddHistogram("replay.latency_ns");
        qm.send_lateness =
            config_.metrics->AddHistogram("replay.send_lateness_ns");
        qm.send_early = config_.metrics->AddHistogram("replay.send_early_ns");
        qm.inflight = config_.metrics->AddGauge("replay.inflight");
        qm.tls_handshake =
            config_.metrics->AddHistogram("replay.tls_handshake_ns");
      }
      queriers_.push_back(
          std::make_unique<Querier>(*loop_, config_, ledger_, qm));
      auto status = queriers_.back()->Init();
      if (!status.ok()) {
        status_ = status;
        return;
      }
      queriers_.back()->set_on_idle([this]() { MaybeFinish(); });
    }

    auto status = loop_->Add(queue_.event_fd(), true, false,
                             [this](net::IoEvents) { OnQueue(); });
    if (!status.ok()) {
      status_ = status;
      return;
    }
    if (snapshotter_ != nullptr) ArmSnapshot();
    loop_->Run();
  }

  // Periodic JSONL rows from this loop thread; the chain dies with the
  // loop (a stopped loop never fires the re-armed timer).
  void ArmSnapshot() {
    loop_->ScheduleAfter(snapshotter_->interval(), [this]() {
      snapshotter_->WriteNow();
      ArmSnapshot();
    });
  }

  void OnQueue() {
    auto drained = queue_.Drain();
    for (auto& job : drained.items) {
      ++outstanding_;
      if (config_.fast_mode) {
        fast_backlog_.push_back(std::move(job));
      } else {
        Enqueue(std::move(job));
      }
    }
    if (drained.closed) input_closed_ = true;
    if (config_.fast_mode) {
      PumpFastBacklog();
      return;
    }
    SendDue(MonotonicNow());
    MaybeFinish();
  }

  NanoTime DueAt(const QueryJob& job) const {
    return epoch_mono_ + job.trace_time;
  }

  // Keeps the send queue in trace-time order. Records nearly always
  // arrive in order, so the insertion point is searched from the back.
  void Enqueue(QueryJob job) {
    size_t at = send_queue_.size();
    while (at > 0 && send_queue_[at - 1].trace_time > job.trace_time) --at;
    send_queue_.insert(at, std::move(job));
  }

  // Sends every queued query that is due, and with them each next query
  // due within kSendWindow of both `now` and the query sent before it, one
  // sendmmsg per querier; reads the replies waiting on disarmed sockets;
  // then re-arms the timer for the new head and decides whether the
  // sockets stay disarmed. A pass thus starts only at a due query, and a
  // query more than the window behind its predecessor waits for its own
  // timer even after a late pass. `now` is the caller's fresh monotonic
  // clock read; the queries sent on it share it as their send stamp and
  // timeout start, and the clock is read again only when the head is not
  // in the pass by it.
  void SendDue(NanoTime now) {
    // Due time of the query this pass sent last (none yet: only due ones).
    NanoTime last_due = std::numeric_limits<NanoTime>::min();
    auto in_pass = [&](NanoTime due) {
      return due <= now || due - kSendWindow <= std::min(now, last_due);
    };
    while (!send_queue_.empty()) {
      const NanoTime due = DueAt(send_queue_.front());
      if (!in_pass(due)) {
        now = MonotonicNow();  // sending took time: more may be due now
        if (!in_pass(due)) break;
      }
      last_due = due;
      QueryJob job = send_queue_.pop_front();
      Dispatch(assigner_.Assign(job.record.src), job, now);
    }
    for (auto& querier : queriers_) querier->Flush();

    // Sockets stay disarmed only while the next send is due within the
    // horizon and their last read left them empty; anything else (no send
    // due soon, end of input, a read stopped at the per-event cap) arms
    // them, so a reply never waits on a wake-up that is not coming.
    const bool send_soon = !send_queue_.empty() &&
                           DueAt(send_queue_.front()) - now <= kReplyReadHorizon;
    for (auto& querier : queriers_) {
      const bool emptied = querier->replies_armed() || querier->DrainReplies();
      querier->SetRepliesArmed(!send_soon || !emptied);
    }
    ArmSendTimer(now);
  }

  // The timer is armed for the head's own due time, not the start of its
  // window, so the window never makes a query late.
  void ArmSendTimer(NanoTime now) {
    if (send_queue_.empty()) {
      send_timer_.Cancel();
      return;
    }
    const NanoTime due = DueAt(send_queue_.front());
    if (send_timer_.active() && send_timer_due_ == due) return;
    send_timer_.Cancel();
    send_timer_due_ = due;
    const NanoTime wake = due - now > kPreWakeGap ? due - kPreWake : due;
    send_timer_ = loop_->ScheduleAt(wake, [this, due]() {
      NanoTime now = MonotonicNow();
      while (now < due) now = MonotonicNow();
      SendDue(now);
    });
  }

  // Fast mode sends in bounded chunks, yielding to the event loop between
  // them. Dispatching a large drained batch monolithically would starve
  // socket reads (and timers) for the whole burst: replies pile up unread
  // in the kernel buffer until the timeout FIFOs have already expired their
  // inflight entries, manufacturing timeouts for queries that were in fact
  // answered.
  void PumpFastBacklog() {
    if (fast_pump_armed_) return;
    size_t n = std::min(fast_backlog_.size(), kFastChunk);
    for (size_t i = 0; i < n; ++i) {
      QueryJob job = fast_backlog_.pop_front();
      Dispatch(assigner_.Assign(job.record.src), job, MonotonicNow());
    }
    for (auto& querier : queriers_) querier->Flush();
    if (!fast_backlog_.empty()) {
      fast_pump_armed_ = true;
      loop_->ScheduleAfter(0, [this]() {
        fast_pump_armed_ = false;
        PumpFastBacklog();
      });
      return;
    }
    MaybeFinish();
  }

  void Dispatch(size_t querier, const QueryJob& job, NanoTime now) {
    queriers_[querier]->Send(job, epoch_mono_, now);
    ledger_.Add<&RealtimeReport::queries_sent>();
    --outstanding_;
    MaybeFinish();
  }

  // Timeouts make every outcome terminal: stop the instant all queriers
  // are idle — there is nothing left to wait for.
  void MaybeFinish() {
    if (!input_closed_ || outstanding_ != 0 || stopping_) return;
    for (auto& querier : queriers_) {
      if (!querier->idle()) return;
    }
    stopping_ = true;
    loop_->Stop();
  }

  RealtimeConfig config_;
  NanoTime epoch_mono_;
  TransportLedger ledger_;
  stats::MetricsSnapshotter* snapshotter_;
  std::atomic<size_t>* finished_;
  StickyAssigner assigner_;
  NotifyQueue<QueryJob> queue_;
  Ring<QueryJob> send_queue_;  // timed mode, trace-time order
  net::TimerHandle send_timer_;
  NanoTime send_timer_due_ = 0;
  std::unique_ptr<net::EventLoop> loop_;
  std::vector<std::unique_ptr<Querier>> queriers_;
  std::thread thread_;
  Status status_;
  size_t outstanding_ = 0;
  bool input_closed_ = false;
  bool stopping_ = false;
  static constexpr size_t kFastChunk = 256;
  Ring<QueryJob> fast_backlog_;
  bool fast_pump_armed_ = false;
};

}  // namespace

const SendOutcome& SendOutcomes::operator[](size_t i) const {
  const size_t chunk = static_cast<size_t>(
      std::upper_bound(ends_.begin(), ends_.end(), i) - ends_.begin());
  return chunks_[chunk][chunk == 0 ? i : i - ends_[chunk - 1]];
}

std::span<SendOutcome> SendOutcomes::AppendChunk(size_t n) {
  if (n == 0) return {};
  ends_.push_back(size() + n);
  return chunks_.emplace_back(n);
}

std::vector<double> RealtimeReport::TimingErrorsMs(size_t skip_first) const {
  std::vector<double> errors;
  for (size_t i = skip_first; i < sends.size(); ++i) {
    const auto& send = sends[i];
    if (!send.reached_wire()) continue;  // no replay time to compare
    errors.push_back(ToMillis(send.sent - send.trace_time));
  }
  return errors;
}

std::vector<double> RealtimeReport::ReplayInterarrivalsS() const {
  std::vector<NanoTime> times;
  times.reserve(sends.size());
  for (const auto& send : sends) {
    if (!send.reached_wire()) continue;  // no arrival to measure
    times.push_back(send.sent);
  }
  std::sort(times.begin(), times.end());
  std::vector<double> gaps;
  gaps.reserve(times.size());
  for (size_t i = 1; i < times.size(); ++i) {
    gaps.push_back(ToSeconds(times[i] - times[i - 1]));
  }
  return gaps;
}

std::vector<double> RealtimeReport::RateErrors() const {
  stats::RateCounter original, replayed;
  for (const auto& send : sends) {
    original.Record(send.trace_time);
    // Unsent queries depress the replayed rate; they are not in it.
    if (!send.reached_wire()) continue;
    replayed.Record(send.sent);
  }
  auto orig = original.BucketCounts();
  auto replay = replayed.BucketCounts();
  std::vector<double> errors;
  size_t n = std::min(orig.size(), replay.size());
  for (size_t i = 0; i < n; ++i) {
    if (orig[i] == 0) continue;
    errors.push_back((static_cast<double>(replay[i]) -
                      static_cast<double>(orig[i])) /
                     static_cast<double>(orig[i]));
  }
  return errors;
}

struct ReplayPipeline::Impl {
  explicit Impl(const RealtimeConfig& c)
      : config(c),
        postman(c.n_distributors, c.seed),
        batches(c.n_distributors) {}

  RealtimeConfig config;
  NanoTime epoch_mono = 0;
  NanoTime trace_epoch = 0;
  NanoTime wall_start = 0;
  std::unique_ptr<stats::MetricsRegistry> own_metrics;
  // Postman: sticky same-source assignment of queries to distributors.
  StickyAssigner postman;
  std::vector<std::unique_ptr<Distributor>> distributors;
  std::atomic<size_t> finished{0};
  // Outcome slots, one chunk per Feed call. Appending a chunk moves no
  // outcome, so the pointers handed to distributor threads stay valid
  // while the feeder keeps feeding. Only the feeder thread touches the
  // container itself.
  SendOutcomes outcomes;
  std::vector<std::vector<QueryJob>> batches;
  std::vector<uint32_t> targets;  // distributor of each record of a Feed
  uint64_t fed = 0;
  bool input_closed = false;
  bool joined = false;

  // Sums every distributor's transport cells; safe while they run.
  RealtimeReport Counts() const;
};

Status CheckConfig(const RealtimeConfig& config) {
  auto in_range = [](auto value, int64_t low) {
    return static_cast<int64_t>(value) >= low && value <= 0xffff;
  };
  if (!in_range(config.n_distributors, 1) ||
      !in_range(config.queriers_per_distributor, 1) ||
      !in_range(config.max_retransmits, 0) ||
      !in_range(config.tcp_max_reconnects, 0)) {
    return Error(ErrorCode::kInvalidArgument,
                 "need distributors and queriers in [1, 65535], "
                 "retransmits and TCP reconnects in [0, 65535]");
  }
  if (config.query_timeout <= 0) {
    return Error(ErrorCode::kInvalidArgument, "query_timeout must be > 0");
  }
  return Status::Ok();
}

Result<std::unique_ptr<ReplayPipeline>> ReplayPipeline::Start(
    const RealtimeConfig& config, NanoTime epoch_mono, NanoTime trace_epoch) {
  LDP_RETURN_IF_ERROR(CheckConfig(config));
  auto pipeline = std::unique_ptr<ReplayPipeline>(new ReplayPipeline());
  pipeline->impl_ = std::make_unique<Impl>(config);
  Impl& impl = *pipeline->impl_;
  impl.epoch_mono = epoch_mono;
  impl.trace_epoch = trace_epoch;
  stats::MetricsRegistry& metrics =
      stats::RegistryOrOwn(config.metrics, impl.own_metrics);
  // Distributor 0 drives the snapshotter so rows come from exactly one
  // thread.
  for (size_t i = 0; i < config.n_distributors; ++i) {
    impl.distributors.push_back(std::make_unique<Distributor>(
        config, epoch_mono, metrics, config.seed + 1 + i,
        i == 0 ? config.snapshotter : nullptr, &impl.finished));
    impl.distributors.back()->Start();
  }
  impl.wall_start = MonotonicNow();
  return pipeline;
}

ReplayPipeline::~ReplayPipeline() {
  if (impl_ == nullptr || impl_->joined) return;
  CloseInput();
  for (auto& distributor : impl_->distributors) distributor->Join();
}

void ReplayPipeline::Feed(std::span<const trace::QueryRecord> records) {
  if (records.empty()) return;
  Impl& impl = *impl_;
  std::span<SendOutcome> chunk = impl.outcomes.AppendChunk(records.size());
  // Route every record first, so each distributor's batch is sized once.
  impl.targets.clear();
  for (const trace::QueryRecord& record : records) {
    impl.targets.push_back(
        static_cast<uint32_t>(impl.postman.Assign(record.src)));
  }
  for (uint32_t i = 0; i < impl.batches.size(); ++i) {
    impl.batches[i].reserve(static_cast<size_t>(
        std::count(impl.targets.begin(), impl.targets.end(), i)));
  }
  for (size_t i = 0; i < records.size(); ++i) {
    impl.batches[impl.targets[i]].push_back(
        QueryJob{records[i].timestamp - impl.trace_epoch, records[i],
                 &chunk[i]});
  }
  impl.fed += records.size();
  for (size_t i = 0; i < impl.distributors.size(); ++i) {
    if (impl.batches[i].empty()) continue;
    impl.distributors[i]->queue().PushBatch(std::move(impl.batches[i]));
    impl.batches[i].clear();
  }
}

void ReplayPipeline::CloseInput() {
  if (impl_->input_closed) return;
  impl_->input_closed = true;
  for (auto& distributor : impl_->distributors) {
    distributor->queue().CloseInput();
  }
}

uint64_t ReplayPipeline::fed() const { return impl_->fed; }

bool ReplayPipeline::Done() const {
  return impl_->finished.load(std::memory_order_acquire) ==
         impl_->distributors.size();
}

RealtimeReport ReplayPipeline::Impl::Counts() const {
  RealtimeReport counts;
  for (const auto& distributor : distributors) {
    distributor->ledger().AddTo(counts);
  }
  return counts;
}

uint64_t ReplayPipeline::SentCount() const {
  return impl_->Counts().queries_sent;
}

uint64_t ReplayPipeline::TerminalCount() const {
  const RealtimeReport counts = impl_->Counts();
  return counts.answered + counts.timed_out + counts.send_failed;
}

Result<RealtimeReport> ReplayPipeline::Finish() {
  Impl& impl = *impl_;
  CloseInput();
  for (auto& distributor : impl.distributors) distributor->Join();
  impl.joined = true;
  for (auto& distributor : impl.distributors) {
    if (!distributor->status().ok()) return distributor->status().error();
  }

  RealtimeReport report = impl.Counts();
  report.sends = std::exchange(impl.outcomes, {});
  report.wall_duration = MonotonicNow() - impl.wall_start;
  // Final row after every distributor joined: cumulative counters are
  // settled, so this row reconciles exactly with the returned report.
  if (impl.config.snapshotter != nullptr) impl.config.snapshotter->WriteNow();
  return report;
}

Result<RealtimeReport> RunRealtimeReplay(
    const std::vector<trace::QueryRecord>& records,
    const RealtimeConfig& config) {
  if (records.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty trace");
  }
  NanoTime trace_epoch = records.front().timestamp;
  NanoTime epoch_mono = MonotonicNow() + config.start_delay;
  LDP_ASSIGN_OR_RETURN(
      auto pipeline, ReplayPipeline::Start(config, epoch_mono, trace_epoch));

  // Reader: stream the trace into the pipeline in look-ahead windows.
  size_t cursor = 0;
  while (cursor < records.size()) {
    NanoTime window_end;
    if (config.fast_mode) {
      window_end = INT64_MAX;
    } else {
      window_end = (MonotonicNow() - epoch_mono) + config.lookahead;
    }
    size_t begin = cursor;
    while (cursor < records.size() &&
           records[cursor].timestamp - trace_epoch <= window_end) {
      ++cursor;
    }
    pipeline->Feed(std::span(records).subspan(begin, cursor - begin));
    if (cursor < records.size() && !config.fast_mode) {
      NanoTime next_due =
          epoch_mono + (records[cursor].timestamp - trace_epoch);
      NanoDuration sleep_for =
          std::min<NanoDuration>(next_due - MonotonicNow() -
                                     config.lookahead / 2,
                                 Millis(50));
      if (sleep_for > 0) {
        timespec ts{};
        ts.tv_sec = sleep_for / kNanosPerSecond;
        ts.tv_nsec = sleep_for % kNanosPerSecond;
        nanosleep(&ts, nullptr);
      }
    }
  }
  pipeline->CloseInput();
  return pipeline->Finish();
}

}  // namespace ldp::replay
