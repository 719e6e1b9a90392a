// Real-time distributed replay over real sockets (paper §2.6, §3, Fig 4):
//
//   Controller (Reader + Postman)  ──►  Distributor₁..N  ──►  Querier₁..M
//
// The controller thread streams the trace in bounded look-ahead windows
// (the Reader "pre-loads a window of queries to avoid falling behind real
// time") and the Postman hands each query to a distributor chosen by
// sticky same-source assignment. Each distributor is a thread running an
// epoll event loop hosting several logical queriers; a querier owns one
// UDP socket and per-source TCP connections, schedules each query with the
// ΔT = Δt̄ − Δt rule, sends it, and timestamps the reply.
//
// Every replayed query is tracked to a terminal outcome: answered, timed
// out (per-retransmit-level timeout FIFOs age inflight entries past
// query_timeout, after any configured UDP retransmits), or send-failed (never accepted by the
// kernel, or its TCP connection exhausted its reconnect budget). The
// invariant `queries_sent == answered + timed_out + send_failed` makes loss
// an explicit output instead of a silent gap in the fidelity metrics.
//
// The paper runs distributors/queriers as processes across DETER hosts;
// here they are threads on one host (documented substitution) — the
// scheduling, queue hand-off, and kernel-level jitter the §4 fidelity
// experiments measure are all real.
#ifndef LDPLAYER_REPLAY_REALTIME_H
#define LDPLAYER_REPLAY_REALTIME_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "net/sockets.h"
#include "replay/inflight.h"
#include "stats/metrics.h"
#include "stats/summary.h"
#include "trace/record.h"

namespace ldp::replay {

struct RealtimeConfig {
  Endpoint server;
  // --- Hierarchy replay: per-query destinations (paper §2.4) ---
  // Send each query to its record's dst/dst_port (the OQDA) instead of
  // `server`. This is how a trace drives the hierarchy proxy: the proxy
  // listens on every emulated nameserver address and the replayer
  // addresses each query exactly as the original client did.
  bool follow_trace_dst = false;
  // With follow_trace_dst: rewrite every destination port to this value
  // (0 = keep each record's dst_port). The proxy serves all addresses on
  // one shared service port, which is rarely the trace's port 53.
  uint16_t dst_port_override = 0;
  // With follow_trace_dst: map each destination through LoopbackAlias so
  // public testbed addresses land on bindable 127/8 aliases.
  bool loopback_alias_dst = false;
  size_t n_distributors = 1;
  size_t queriers_per_distributor = 3;
  // Fast mode (paper §4.3): ignore trace timing, send as fast as possible.
  bool fast_mode = false;
  // Batch UDP sends with sendmmsg: queries dispatched in the same loop
  // iteration share one syscall (flushed at every scheduling point, so
  // timed replay still sends each query at its scheduled instant). Off =
  // one sendto per query, the original single-syscall path.
  bool batch_udp = true;
  // How far ahead of real time the controller feeds queries.
  NanoDuration lookahead = Millis(500);
  // Delay before the synchronized start (lets threads spin up).
  NanoDuration start_delay = Millis(100);
  uint64_t seed = 99;

  // --- Robust transport: timeouts, retransmit, TCP lifecycle ---

  // Inflight queries age out after this long without a reply and count as
  // timed_out; must be positive. The replay ends as soon as every query
  // has reached a terminal outcome.
  NanoDuration query_timeout = Seconds(2);
  // UDP retransmits before declaring a timeout; retry k waits
  // query_timeout << k (exponential backoff). TCP queries are never
  // retransmitted in place — redelivery happens via reconnect.
  int max_retransmits = 0;
  // Client-side TCP idle closure (the §5 experiment knob): a connection
  // with nothing inflight and no activity for this long is closed; the
  // next query for that source dials fresh. 0 = keep connections open.
  NanoDuration tcp_idle_timeout = 0;
  // DoT port for kTls records (0 = the record's own target port). A kTls
  // record dials DNS-over-TLS to its target with this port substituted —
  // the server side binds DoT on a separate listener, so replaying an
  // all-TLS trace against it needs the port redirected. Requires OpenSSL
  // in the build (probe with net::TlsAvailable()); without it every kTls
  // query ends send_failed.
  uint16_t tls_port = 0;
  // Reconnect budget when a TCP connect fails or a stream dies with
  // queries still owed. Inflight frames are re-queued onto the new
  // connection; retry k waits tcp_reconnect_backoff << k. A successful
  // reply resets the budget. Exhausted => owed queries end send_failed.
  int tcp_max_reconnects = 3;
  NanoDuration tcp_reconnect_backoff = Millis(50);
  // Write-queue backpressure: at or above high the querier stops writing
  // frames (they wait in the per-source backlog); at or below low it
  // resumes draining.
  size_t tcp_write_high_watermark = 256 * 1024;
  size_t tcp_write_low_watermark = 64 * 1024;

  // Source address queriers bind (the port is always ephemeral). Default
  // loopback; set this when replaying over a real interface.
  IpAddress local_addr = IpAddress::Loopback();

  // --- Live metrics (both optional) ---

  // Registry for live counters/histograms: each distributor's transport
  // outcome cells (replay.sent/answered/timed_out/send_failed/..., kept
  // in a private registry without one), per-querier send→answer latency
  // histograms, inflight-depth gauges, and per-distributor loop-lag /
  // epoll-batch histograms.
  // Must outlive the replay call AND any snapshots taken after it.
  stats::MetricsRegistry* metrics = nullptr;
  // When set, distributor 0 drives it: one JSONL row per interval() from
  // its own loop thread, plus a final row after all distributors join (so
  // the last row reconciles exactly with the returned report).
  stats::MetricsSnapshotter* snapshotter = nullptr;
};

// Outcome i of RealtimeReport::sends is trace record i: the position is
// the trace index.
struct SendOutcome {
  // Terminal outcome of one replayed query.
  enum class State : uint8_t {
    kPending = 0,  // not yet resolved
    kAnswered,
    kTimedOut,    // reached the wire, aged out without a reply
    kSendFailed,  // never reached the wire (kernel refused the datagram,
                  // ID space exhausted, or TCP reconnect budget spent)
  };

  NanoTime trace_time = 0;   // relative to the trace epoch
  NanoTime sent = 0;         // monotonic, relative to the replay epoch
  // When the reply arrived, same clock: the kernel's receive stamp for
  // UDP, the time the stream was read for TCP. 0 = no reply observed.
  NanoTime replied = 0;
  uint8_t retransmits = 0;   // UDP re-sends attempted for this query
  State state = State::kPending;
  bool answered() const { return state == State::kAnswered; }
  // Whether the query left on the wire. The state decides: a send stamp
  // of 0 is a real time (a query sent at the replay epoch itself).
  bool reached_wire() const {
    return state == State::kAnswered || state == State::kTimedOut;
  }
};
// Held for every replayed query for the whole run.
static_assert(sizeof(SendOutcome) == 32);

// A replay's outcomes in trace order, kept in the chunks they were
// allocated in: one per ReplayPipeline::Feed call. AppendChunk never moves
// an existing outcome, so distributor threads write through pointers into
// earlier chunks while the feeder appends, and Finish hands the chunks to
// the report whole: one array would need a copy that, while it is made,
// holds every outcome twice. Indexing finds the chunk by binary search.
class SendOutcomes {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SendOutcome;
    using difference_type = std::ptrdiff_t;
    using pointer = const SendOutcome*;
    using reference = const SendOutcome&;

    const_iterator() = default;
    reference operator*() const { return (*chunks_)[chunk_][offset_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++offset_ == (*chunks_)[chunk_].size()) {
        ++chunk_;
        offset_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class SendOutcomes;
    const_iterator(const std::vector<std::vector<SendOutcome>>* chunks,
                   size_t chunk)
        : chunks_(chunks), chunk_(chunk) {}

    const std::vector<std::vector<SendOutcome>>* chunks_ = nullptr;
    size_t chunk_ = 0;   // no chunk is empty, so (size, 0) is the end
    size_t offset_ = 0;
  };

  size_t size() const { return ends_.empty() ? 0 : ends_.back(); }
  const SendOutcome& operator[](size_t i) const;
  const_iterator begin() const { return const_iterator(&chunks_, 0); }
  const_iterator end() const {
    return const_iterator(&chunks_, chunks_.size());
  }

  // Appends `n` pending outcomes as a new chunk and returns it; n == 0
  // appends nothing.
  std::span<SendOutcome> AppendChunk(size_t n);

 private:
  std::vector<std::vector<SendOutcome>> chunks_;  // none empty
  std::vector<size_t> ends_;  // outcomes in chunks_[0..i]
};

struct RealtimeReport {
  SendOutcomes sends;  // trace order
  uint64_t queries_sent = 0;

  // Terminal-outcome accounting:
  //   queries_sent == answered + timed_out + send_failed
  // holds once RunRealtimeReplay returns.
  uint64_t answered = 0;
  uint64_t timed_out = 0;
  uint64_t send_failed = 0;
  uint64_t retransmits = 0;      // total UDP re-sends
  uint64_t id_collisions = 0;    // preferred 16-bit ID was still inflight
  // Replies (UDP datagrams or TCP frames) that answered no inflight
  // query: late (after age-out), unknown ID, a UDP reply from another
  // endpoint than the query's target, or a different question under an
  // inflight ID.
  uint64_t unmatched_replies = 0;
  uint64_t tcp_reconnects = 0;   // re-dials after connect failure / close
  uint64_t tcp_idle_closes = 0;  // client-side idle-timeout closures
  uint64_t tls_handshakes = 0;   // completed client TLS handshakes
  uint64_t tls_resumptions = 0;  // of which resumed a cached session
  uint64_t tls_aborts = 0;       // handshakes that failed before completing
  NanoDuration wall_duration = 0;

  // Absolute-timing error (paper Fig 6): each query's sent − trace_time,
  // in milliseconds, both relative to the replay's schedule (the quantity
  // replay.send_lateness_ns records). Only queries that reached the wire
  // participate; the first `skip_first` records are left out.
  std::vector<double> TimingErrorsMs(size_t skip_first = 0) const;
  // Inter-arrival gaps of the replayed stream, seconds (Fig 7). Unsent
  // records are excluded.
  std::vector<double> ReplayInterarrivalsS() const;
  // Per-second rate error fractions replay-vs-original (Fig 8). Unsent
  // records count toward the original series only.
  std::vector<double> RateErrors() const;
};

// The transport's ledger: each counter's metric name and RealtimeReport
// field. Every distributor counts into its own cells.
inline constexpr auto kTransportLedger = std::to_array<
    stats::LedgerRow<RealtimeReport>>({
    {"replay.sent", &RealtimeReport::queries_sent},
    {"replay.answered", &RealtimeReport::answered},
    {"replay.timed_out", &RealtimeReport::timed_out},
    {"replay.send_failed", &RealtimeReport::send_failed},
    {"replay.retransmits", &RealtimeReport::retransmits},
    {"replay.id_collisions", &RealtimeReport::id_collisions},
    {"replay.unmatched_replies", &RealtimeReport::unmatched_replies},
    {"replay.tcp_reconnects", &RealtimeReport::tcp_reconnects},
    {"replay.tcp_idle_closes", &RealtimeReport::tcp_idle_closes},
    {"replay.tls_handshakes", &RealtimeReport::tls_handshakes},
    {"replay.tls_resumptions", &RealtimeReport::tls_resumptions},
    {"replay.tls_aborts", &RealtimeReport::tls_aborts},
});

// Timed replay's send-coalescing window (DESIGN.md, "Replay send timing").
// A send pass starts at a due query and also sends each next query due
// within this long of both the pass's clock read and the query before it,
// so dense queries share one wake-up and one sendmmsg. The send timer
// stays armed for the head's due time: no query leaves late because of
// the window, none leaves more than kSendWindow early, and a query more
// than kSendWindow behind its predecessor is never early.
inline constexpr NanoDuration kSendWindow = Micros(50);

// Whether `config` can start a replay: distributors and queriers per
// distributor in [1, 65535], retransmits and TCP reconnects in [0, 65535]
// and a positive query timeout. ReplayPipeline::Start (so also
// RunRealtimeReplay) refuses any other config before it starts a thread.
Status CheckConfig(const RealtimeConfig& config);

// Replays `records` (timestamps must ascend) and blocks until done.
Result<RealtimeReport> RunRealtimeReplay(
    const std::vector<trace::QueryRecord>& records,
    const RealtimeConfig& config);

// RunRealtimeReplay with the Reader inverted: the caller streams record
// batches in whenever it likes and the same Postman → Distributor →
// Querier machinery runs underneath. This is the distributed agent's
// entry point — chunks arrive over the wire instead of from a trace file
// — and RunRealtimeReplay itself is now a thin Reader loop over one.
//
// Threading: Start spawns the distributor threads. Feed/CloseInput/fed
// must be called from ONE feeder thread; Done/SentCount/TerminalCount are
// safe from that thread while distributors run. Finish joins and may be
// called once (the destructor joins too if Finish never ran).
class ReplayPipeline {
 public:
  // `epoch_mono`: the synchronized replay start on this host's monotonic
  // clock — a record with rebased time t is sent at epoch_mono + t.
  // `trace_epoch` is subtracted from every fed record's timestamp (pass
  // records.front().timestamp, or 0 when the feeder pre-rebased them).
  static Result<std::unique_ptr<ReplayPipeline>> Start(
      const RealtimeConfig& config, NanoTime epoch_mono,
      NanoTime trace_epoch);
  ~ReplayPipeline();
  ReplayPipeline(const ReplayPipeline&) = delete;
  ReplayPipeline& operator=(const ReplayPipeline&) = delete;

  // Hands a batch to the distributors. Timed replay sends in trace-time
  // order whatever order records are fed in, provided each arrives before
  // it is due; ascending order is the cheap case.
  void Feed(std::span<const trace::QueryRecord> records);
  // After the last Feed. Distributors finish once every fed query reaches
  // a terminal outcome.
  void CloseInput();

  uint64_t fed() const;
  // True once every distributor thread has stopped (non-blocking).
  bool Done() const;
  uint64_t SentCount() const;
  // Queries at a terminal outcome so far. `fed() - TerminalCount()` is the
  // engine's backlog — the agent's backpressure signal for withholding
  // chunk credits.
  uint64_t TerminalCount() const;

  // Joins the distributor threads and assembles the report (trace order).
  Result<RealtimeReport> Finish();

 private:
  ReplayPipeline() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_REALTIME_H
