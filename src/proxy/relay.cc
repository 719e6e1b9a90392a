#include "proxy/relay.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <list>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/log.h"
#include "dns/framing.h"
#include "net/event_loop.h"
#include "net/sockets.h"

namespace ldp::proxy {
namespace {

// One flow per (client endpoint, queried address). The OQDA is part of
// the key: the same client talking to two emulated nameservers holds two
// flows, each with its own relay socket bound to the right source.
struct FlowKey {
  Endpoint client;
  IpAddress oqda;
  bool operator==(const FlowKey&) const = default;
};

struct FlowKeyHash {
  size_t operator()(const FlowKey& key) const noexcept {
    uint64_t packed = (uint64_t{key.client.addr.value()} << 32) |
                      (uint64_t{key.client.port} << 16) |
                      (key.oqda.value() >> 16);
    return std::hash<uint64_t>()(packed ^ (uint64_t{key.oqda.value()} << 40));
  }
};

constexpr size_t kDnsHeaderBytes = 12;

NanoDuration RelayTickFor(const RelayConfig& config) {
  NanoDuration shortest =
      std::min(config.flow_idle_timeout,
               config.flow_linger > 0 ? config.flow_linger : Seconds(1));
  return std::clamp<NanoDuration>(shortest / 8, Millis(1), Millis(250));
}

}  // namespace

// One worker shard: event loop, its SO_REUSEPORT wildcard ingress path,
// and a private flow table + registry cells. Everything except the
// cells is loop-thread-only after Start.
struct HierarchyProxy::Shard {
  explicit Shard(stats::MetricsRegistry& metrics)
      : ledger(metrics), flow_table(metrics.AddGauge("proxy.flow_table")) {}

  struct Flow {
    uint64_t id = 0;
    FlowKey key;
    // Bound (OQDA, client port) and connected to the meta server, so the
    // kernel hands it only the meta server's replies.
    std::unique_ptr<net::UdpSocket> sock;
    bool draining = false;
    size_t site = 0;  // catchment assignment, fixed for the flow's life
    NanoTime last_active = 0;  // last query or reply while active
    NanoTime drained_at = 0;   // when it left the LRU for draining
    std::list<uint64_t>::iterator lru_it;
  };

  // A spliced TCP pass-through (shard 0 only). Callbacks capture the
  // splice id, never pointers: disposed splices are simply not found, and
  // dead connections die in the graveyard one loop pass later — the same
  // lifecycle discipline as the replay querier.
  struct Splice {
    IpAddress oqda;
    std::unique_ptr<net::TcpConnection> client;
    std::unique_ptr<net::TcpConnection> upstream;
    dns::StreamAssembler from_client;
    dns::StreamAssembler from_upstream;
    bool up_connected = false;
    int attempts = 0;  // reconnect budget used; reset by a reply
    uint64_t next_seq = 0;
    struct Entry {
      uint64_t seq = 0;  // arrival order, for redelivery
      Bytes frame;       // length-prefixed query, kept for redelivery
    };
    std::unordered_map<uint16_t, Entry> inflight;  // by DNS ID
    std::deque<uint16_t> backlog;  // awaiting upstream connect/reconnect
    net::TimerHandle reconnect_timer;
  };

  RelayConfig config;
  std::unique_ptr<net::EventLoop> loop;
  // One socket bound to the unspecified address at the service port hears
  // every local address there; `emulated` says which of them are ours.
  std::unique_ptr<net::UdpSocket> ingress;
  std::unordered_set<IpAddress> emulated;
  std::unique_ptr<net::TcpListener> tcp_listener;  // shard 0, same address
  stats::Ledger<kRelayLedger> ledger;
  stats::Gauge* flow_table;  // RelayStats::active_flows
  // Per-site load, one pair per RelayConfig::sites entry.
  struct SiteCells {
    stats::Counter* queries_in;
    stats::Counter* responses_out;
  };
  std::vector<SiteCells> sites;
  std::thread thread;

  // Flow table.
  std::unordered_map<uint64_t, Flow> flows;  // by id (draining included)
  std::unordered_map<FlowKey, uint64_t, FlowKeyHash> flows_by_key;
  std::list<uint64_t> lru;  // front = coldest active flow
  std::deque<uint64_t> draining;  // front = first to close
  uint64_t next_flow_id = 1;
  NanoDuration tick_interval = Millis(8);
  bool tick_armed = false;

  // Reply staging, reused across batches (SocketDnsServer idiom).
  std::vector<net::UdpSocket::SendItem> reply_items;

  // TCP splices (shard 0 only).
  std::unordered_map<uint64_t, std::unique_ptr<Splice>> splices;
  uint64_t next_splice_id = 1;
  std::vector<std::unique_ptr<net::TcpConnection>> graveyard_conns;
  std::vector<std::unique_ptr<Splice>> graveyard_splices;
  bool sweep_armed = false;

  // Optional per-shard histogram instances (registry-owned).
  stats::LogHistogram* rewrite_ns = nullptr;
  stats::LogHistogram* udp_batch = nullptr;

  // Opens the wildcard ingress at `port` (0 = ephemeral), and with `tcp`
  // the splice listener at the same port. The sockets take the port on
  // every local address, so a socket already holding any one of them there
  // (without SO_REUSEPORT) fails the bind.
  Status OpenIngress(uint16_t port, bool tcp, const net::UdpOptions& options) {
    auto socket = net::UdpSocket::Open(
        *loop, Endpoint{IpAddress(), port},
        [this](std::span<const net::UdpSocket::RecvItem> items) {
          OnIngressBatch(items);
        },
        options);
    if (!socket.ok()) return PortTaken(port, socket.error());
    ingress = std::move(*socket);
    if (!tcp) return Status::Ok();
    const uint16_t bound = ingress->local().port;
    auto listener = net::TcpListener::Listen(
        *loop, Endpoint{IpAddress(), bound},
        [this](std::unique_ptr<net::TcpConnection> conn) {
          OnTcpAccept(std::move(conn));
        });
    if (!listener.ok()) {
      ingress.reset();
      return PortTaken(bound, listener.error());
    }
    tcp_listener = std::move(*listener);
    return Status::Ok();
  }

  static Error PortTaken(uint16_t port, const Error& error) {
    return error.WithContext("taking service port " + std::to_string(port) +
                             " on every local address");
  }

  // --- flow table ---

  // Every stamp of last_active (here and in FlowFor) is a monotonic read
  // on this shard's thread, and the stamped flow moves to the hot end. So
  // the LRU is sorted by last_active, and since every flow shares
  // flow_idle_timeout, its cold end is the next flow to go idle: OnTick
  // expires from the front and stops at the first flow not yet due.
  void Touch(Flow& flow, NanoTime now) {
    lru.splice(lru.end(), lru, flow.lru_it);  // move to hottest position
    flow.last_active = now;
  }

  // Active -> draining: unreachable by key, excluded from the LRU, socket
  // kept open for flow_linger so late replies are counted, not invisible.
  // Flows enter draining in time order and share flow_linger, so the
  // draining FIFO is sorted by drain deadline too.
  template <uint64_t RelayStats::*kReason>
  void MoveToDraining(Flow& flow, NanoTime now) {
    flow.draining = true;
    flow.drained_at = now;
    draining.push_back(flow.id);
    lru.erase(flow.lru_it);
    flow_table->Add(-1);
    auto by_key = flows_by_key.find(flow.key);
    if (by_key != flows_by_key.end() && by_key->second == flow.id) {
      flows_by_key.erase(by_key);
    }
    ledger.Add<kReason>();
  }

  Flow* FlowFor(Endpoint client, IpAddress oqda, NanoTime now) {
    FlowKey key{client, oqda};
    auto it = flows_by_key.find(key);
    if (it != flows_by_key.end()) return &flows.at(it->second);

    if (lru.size() >= config.flow_capacity && !lru.empty()) {
      MoveToDraining<&RelayStats::flows_evicted>(flows.at(lru.front()), now);
    }

    uint64_t id = next_flow_id++;
    // Port-preserving relay bind: the meta server should see the client's
    // original source port (paper §2.4, "ports pass through untouched").
    // A collision (e.g. two clients sharing a port across evict/re-create,
    // or the service port itself) falls back to an ephemeral port.
    auto handler = [this, id](std::span<const net::UdpSocket::RecvItem>
                                  items) { OnRelayBatch(id, items); };
    auto sock =
        net::UdpSocket::Open(*loop, Endpoint{oqda, client.port}, handler);
    if (!sock.ok()) {
      ledger.Add<&RelayStats::port_fallbacks>();
      sock = net::UdpSocket::Open(*loop, Endpoint{oqda, 0}, handler);
      if (!sock.ok()) {
        LDP_DEBUG << "relay bind failed: " << sock.error().ToString();
        return nullptr;
      }
    }
    if (auto connected = (*sock)->Connect(config.meta_server);
        !connected.ok()) {
      LDP_DEBUG << "relay connect failed: " << connected.error().ToString();
      return nullptr;
    }

    Flow flow;
    flow.id = id;
    flow.key = key;
    flow.sock = std::move(*sock);
    flow.last_active = now;
    if (!config.sites.empty()) {
      flow.site = config.catchment.Lookup(client.addr);
    }
    flow.lru_it = lru.insert(lru.end(), id);
    auto emplaced = flows.emplace(id, std::move(flow));
    flows_by_key.emplace(key, id);
    ledger.Add<&RelayStats::flows_created>();
    flow_table->Add(1);
    ArmTick();
    return &emplaced.first->second;
  }

  // The tick runs while either order holds a flow.
  void ArmTick() {
    if (tick_armed || (lru.empty() && draining.empty())) return;
    tick_armed = true;
    loop->ScheduleAfter(tick_interval, [this]() { OnTick(); });
  }

  void OnTick() {
    tick_armed = false;
    const NanoTime now = MonotonicNow();
    while (!lru.empty()) {
      Flow& flow = flows.at(lru.front());
      if (flow.last_active + config.flow_idle_timeout > now) break;
      MoveToDraining<&RelayStats::flows_expired>(flow, now);
    }
    while (!draining.empty()) {
      auto it = flows.find(draining.front());
      if (it->second.drained_at + config.flow_linger > now) break;
      flows.erase(it);  // linger over: the relay socket closes here
      draining.pop_front();
    }
    ArmTick();
  }

  // --- UDP data path ---

  // Queries arriving at the service port. The paper's recursive-proxy
  // rewrite (src := OQDA, dst := meta) is realized by forwarding from the
  // flow's relay socket, which is bound to the OQDA. Each datagram carries
  // the address it targeted (RecvItem::to), from IP_PKTINFO.
  void OnIngressBatch(std::span<const net::UdpSocket::RecvItem> items) {
    const NanoTime t0 = MonotonicNow();
    if (udp_batch != nullptr) udp_batch->Record(items.size());
    for (const auto& item : items) {
      ledger.Add<&RelayStats::queries_in>();
      IpAddress oqda = item.to.addr;
      if (item.payload.size() < kDnsHeaderBytes || !emulated.contains(oqda)) {
        // Not a DNS message — or a datagram for a local address we don't
        // emulate that happens to share the service port. Nothing to
        // rewrite; the iptables analogue would never have captured it.
        ledger.Add<&RelayStats::passed_through>();
        continue;
      }
      Flow* flow = FlowFor(item.from, oqda, t0);
      if (flow == nullptr) {
        ledger.Add<&RelayStats::meta_send_errors>();
        continue;
      }
      if (flow->site < sites.size()) {
        sites[flow->site].queries_in->Add();
      }
      auto status = flow->sock->Send(item.payload);
      if (status.ok()) {
        ledger.Add<&RelayStats::rewritten>();
      } else {
        ledger.Add<&RelayStats::meta_send_errors>();
      }
      Touch(*flow, t0);
    }
    if (rewrite_ns != nullptr && !items.empty()) {
      // Per-query rewrite+forward cost, averaged over the batch.
      rewrite_ns->Record(static_cast<uint64_t>(
          (MonotonicNow() - t0) / static_cast<int64_t>(items.size())));
    }
  }

  // Meta-server replies landing on one flow's relay socket (connected, so
  // nothing else lands there). The reverse rewrite (src := OQDA, dst :=
  // client) is realized by answering over the ingress socket with the OQDA
  // as the reply's source.
  void OnRelayBatch(uint64_t flow_id,
                    std::span<const net::UdpSocket::RecvItem> items) {
    auto it = flows.find(flow_id);
    if (it == flows.end()) return;
    Flow& flow = it->second;
    if (flow.draining) {
      // The flow was evicted/expired before the meta server answered:
      // accountable loss, not silence.
      ledger.Add<&RelayStats::evicted_drops>(items.size());
      return;
    }
    ledger.Add<&RelayStats::responses_in>(items.size());
    // `from` makes the reply leave from the queried address (an IP_PKTINFO
    // source).
    Endpoint reply_source{flow.key.oqda, ingress->local().port};
    NanoDuration rtt =
        flow.site < config.sites.size() ? config.sites[flow.site].rtt : 0;
    if (rtt > 0) {
      // Anycast RTT injection: hold the reply for the flow's site delay.
      // Payloads are copied (the recv spans die with this batch) and the
      // send runs on this same loop thread, so the shared reply_items
      // staging and counters stay single-writer.
      std::vector<Bytes> held;
      held.reserve(items.size());
      for (const auto& item : items) {
        held.emplace_back(item.payload.begin(), item.payload.end());
      }
      Endpoint client = flow.key.client;
      size_t site = flow.site;
      loop->ScheduleAfter(
          rtt, [this, client, reply_source, site, held = std::move(held)]() {
            reply_items.clear();
            for (const auto& payload : held) {
              reply_items.push_back(
                  net::UdpSocket::SendItem{payload, client, reply_source});
            }
            SendReplies(site);
          });
    } else {
      reply_items.clear();
      for (const auto& item : items) {
        reply_items.push_back(net::UdpSocket::SendItem{
            item.payload, flow.key.client, reply_source});
      }
      SendReplies(flow.site);
    }
    Touch(flow, MonotonicNow());
  }

  // Flushes reply_items through the ingress path, attributing to `site`.
  void SendReplies(size_t site) {
    size_t accepted = ingress->SendBatch(reply_items);
    ledger.Add<&RelayStats::responses_out>(accepted);
    ledger.Add<&RelayStats::rewritten>(accepted);
    if (site < sites.size()) {
      sites[site].responses_out->Add(accepted);
    }
  }

  // --- TCP splice (shard 0) ---

  void OnTcpAccept(std::unique_ptr<net::TcpConnection> conn) {
    // The wildcard listener accepts on every local address at the service
    // port; a stream to one we don't emulate is closed, not spliced.
    if (!emulated.contains(conn->local().addr)) {
      ledger.Add<&RelayStats::passed_through>();
      return;
    }
    ledger.Add<&RelayStats::tcp_accepted>();
    uint64_t id = next_splice_id++;
    auto splice = std::make_unique<Splice>();
    splice->oqda = conn->local().addr;  // the address the client dialed
    splice->client = std::move(conn);
    Splice* raw = splice.get();
    splices.emplace(id, std::move(splice));
    auto status = net::TcpListener::AdoptHandlers(
        *raw->client,
        [this, id](std::span<const uint8_t> data) { OnClientData(id, data); },
        [this, id](Status) { DisposeSplice(id); });
    if (!status.ok()) {
      DisposeSplice(id);
      return;
    }
    StartUpstream(id, /*port_preserving=*/true);
  }

  void StartUpstream(uint64_t id, bool port_preserving) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    BuryUpstream(splice);
    splice.up_connected = false;
    splice.from_upstream = dns::StreamAssembler();  // new stream, new framing
    net::TcpConnectOptions options;
    // Dial from the OQDA so the meta server's view match sees it; keep the
    // client's port on the first attempt (reconnects use an ephemeral port
    // — the old 4-tuple may linger in TIME_WAIT).
    options.local = Endpoint{
        splice.oqda,
        port_preserving ? splice.client->remote().port : uint16_t{0}};
    auto conn = net::TcpConnection::Connect(
        *loop, config.meta_server,
        [this, id](Status status) { OnUpstreamConnected(id, status); },
        [this, id](std::span<const uint8_t> data) {
          OnUpstreamData(id, data);
        },
        [this, id](Status) { OnUpstreamClosed(id); }, options);
    if (!conn.ok() && port_preserving) {
      ledger.Add<&RelayStats::port_fallbacks>();
      options.local.port = 0;
      conn = net::TcpConnection::Connect(
          *loop, config.meta_server,
          [this, id](Status status) { OnUpstreamConnected(id, status); },
          [this, id](std::span<const uint8_t> data) {
            OnUpstreamData(id, data);
          },
          [this, id](Status) { OnUpstreamClosed(id); }, options);
    }
    if (!conn.ok()) {
      RetryOrFail(id);
      return;
    }
    splice.upstream = std::move(*conn);
  }

  void OnClientData(uint64_t id, std::span<const uint8_t> data) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    if (!splice.from_client.Feed(data).ok()) {
      DisposeSplice(id);
      return;
    }
    while (auto wire = splice.from_client.NextMessage()) {
      if (wire->size() < kDnsHeaderBytes) {
        ledger.Add<&RelayStats::passed_through>();
        continue;
      }
      ledger.Add<&RelayStats::tcp_queries>();
      uint16_t dns_id =
          static_cast<uint16_t>(((*wire)[0] << 8) | (*wire)[1]);
      Splice::Entry entry;
      entry.seq = splice.next_seq++;
      // *wire came out of a StreamAssembler, so it fits a u16 frame.
      entry.frame = std::move(dns::FrameMessage(*wire)).value();
      // A client reusing an inflight ID orphans the old query — it could
      // never be demultiplexed anyway.
      splice.inflight[dns_id] = std::move(entry);
      if (splice.up_connected && splice.backlog.empty()) {
        auto status = splice.upstream->Send(splice.inflight[dns_id].frame);
        if (status.ok()) {
          ledger.Add<&RelayStats::rewritten>();
        } else {
          splice.backlog.push_back(dns_id);  // close event will re-queue
        }
      } else {
        splice.backlog.push_back(dns_id);
      }
    }
  }

  void OnUpstreamConnected(uint64_t id, Status status) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    if (!status.ok()) {
      BuryUpstream(*it->second);
      RetryOrFail(id);
      return;
    }
    Splice& splice = *it->second;
    splice.up_connected = true;
    while (!splice.backlog.empty()) {
      uint16_t dns_id = splice.backlog.front();
      auto entry = splice.inflight.find(dns_id);
      if (entry != splice.inflight.end()) {
        if (!splice.upstream->Send(entry->second.frame).ok()) break;
        ledger.Add<&RelayStats::rewritten>();
      }
      splice.backlog.pop_front();
    }
  }

  void OnUpstreamData(uint64_t id, std::span<const uint8_t> data) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    if (!splice.from_upstream.Feed(data).ok()) return;
    while (auto wire = splice.from_upstream.NextMessage()) {
      if (wire->size() < 2) continue;
      uint16_t dns_id =
          static_cast<uint16_t>(((*wire)[0] << 8) | (*wire)[1]);
      splice.inflight.erase(dns_id);
      splice.attempts = 0;  // a live reply refills the reconnect budget
      ledger.Add<&RelayStats::tcp_responses>();
      ledger.Add<&RelayStats::rewritten>();
      Bytes framed = std::move(dns::FrameMessage(*wire)).value();
      auto status = splice.client->Send(framed);
      (void)status;  // client gone => its close callback disposes us
    }
  }

  void OnUpstreamClosed(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    splice.up_connected = false;
    BuryUpstream(splice);
    if (splice.inflight.empty()) {
      // Nothing owed: mirror the close to the client.
      DisposeSplice(id);
      return;
    }
    RetryOrFail(id);
  }

  // The stream died with queries still owed: rebuild the backlog in
  // arrival order and reconnect (budget + backoff), redelivering the
  // unanswered frames on the new stream — the rewrite survives the
  // reconnect. Budget spent => the splice failed; closing the client lets
  // the replayer's own TCP recovery take over.
  void RetryOrFail(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    if (splice.attempts >= config.tcp_max_reconnects) {
      ledger.Add<&RelayStats::tcp_failed>();
      DisposeSplice(id);
      return;
    }
    std::vector<uint16_t> ids;
    ids.reserve(splice.inflight.size());
    for (const auto& [dns_id, entry] : splice.inflight) ids.push_back(dns_id);
    std::sort(ids.begin(), ids.end(),
              [&splice](uint16_t a, uint16_t b) {
                return splice.inflight[a].seq < splice.inflight[b].seq;
              });
    splice.backlog.assign(ids.begin(), ids.end());

    NanoDuration delay = config.tcp_reconnect_backoff
                         << std::min(splice.attempts, 10);
    ++splice.attempts;
    ledger.Add<&RelayStats::tcp_reconnects>();
    splice.reconnect_timer = loop->ScheduleAfter(delay, [this, id]() {
      StartUpstream(id, /*port_preserving=*/false);
    });
  }

  void DisposeSplice(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    it->second->reconnect_timer.Cancel();
    BuryUpstream(*it->second);
    if (it->second->client != nullptr) {
      graveyard_conns.push_back(std::move(it->second->client));
    }
    graveyard_splices.push_back(std::move(it->second));
    splices.erase(it);
    ArmSweep();
  }

  void BuryUpstream(Splice& splice) {
    if (splice.upstream == nullptr) return;
    graveyard_conns.push_back(std::move(splice.upstream));
    ArmSweep();
  }

  void ArmSweep() {
    if (sweep_armed) return;
    sweep_armed = true;
    // Destroy on the next loop pass: the buried connection may be the one
    // whose callback is executing right now.
    loop->ScheduleAfter(0, [this]() {
      sweep_armed = false;
      graveyard_conns.clear();
      graveyard_splices.clear();
    });
  }
};

Result<std::unique_ptr<HierarchyProxy>> HierarchyProxy::Start(
    const Config& config) {
  if (config.addresses.empty()) {
    return Error(ErrorCode::kInvalidArgument, "no addresses to proxy");
  }
  if (config.meta_server.addr.IsUnspecified() ||
      config.meta_server.port == 0) {
    return Error(ErrorCode::kInvalidArgument, "meta server endpoint unset");
  }
  // Both expiry orders rely on these: the LRU on one positive idle
  // timeout, the draining FIFO on one linger.
  if (config.flow_idle_timeout <= 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "flow_idle_timeout must be positive");
  }
  if (config.flow_linger < 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "flow_linger must not be negative");
  }
  if (!config.sites.empty() &&
      config.catchment.default_site() >= config.sites.size()) {
    return Error(ErrorCode::kOutOfRange,
                 "catchment default site out of range");
  }
  auto proxy = std::unique_ptr<HierarchyProxy>(new HierarchyProxy());
  stats::MetricsRegistry& metrics =
      stats::RegistryOrOwn(config.metrics, proxy->own_metrics_);
  size_t n_shards = config.n_shards > 0 ? config.n_shards : 1;
  uint16_t port = config.port;

  for (size_t i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>(metrics);
    shard->config = config;
    shard->config.n_shards = n_shards;
    shard->tick_interval = RelayTickFor(config);
    LDP_ASSIGN_OR_RETURN(shard->loop, net::EventLoop::Create());
    for (const SiteSpec& site : config.sites) {
      const std::string prefix = "proxy.site." + site.name;
      shard->sites.push_back(
          Shard::SiteCells{metrics.AddCounter(prefix + ".queries"),
                           metrics.AddCounter(prefix + ".responses")});
    }

    if (config.metrics != nullptr) {
      shard->rewrite_ns = config.metrics->AddHistogram("proxy.rewrite_ns");
      shard->udp_batch = config.metrics->AddHistogram("proxy.udp_batch");
      shard->loop->SetMetrics(
          config.metrics->AddHistogram("proxy.loop_lag_ns"),
          config.metrics->AddHistogram("proxy.epoll_batch"));
    }

    net::UdpOptions udp_options;
    udp_options.reuse_port = true;  // kernel shards datagrams across workers
    udp_options.recv_buffer_bytes = config.udp_recv_buffer_bytes;
    udp_options.metrics = config.metrics;

    // One wildcard socket per shard carries every emulated address;
    // OnIngressBatch reads each query's OQDA from RecvItem::to. TCP splices on shard 0 only (mirrors ShardedDnsServer:
    // the TCP lane needs correctness, not multi-core throughput). An
    // ephemeral UDP port may be held by some TCP socket on another
    // address, so shard 0 draws again a few times, as SocketDnsServer does.
    shard->emulated.insert(config.addresses.begin(), config.addresses.end());
    const bool tcp = i == 0 && config.splice_tcp;
    Status opened = shard->OpenIngress(port, tcp, udp_options);
    for (int attempt = 1; !opened.ok() && port == 0 && attempt < 8;
         ++attempt) {
      opened = shard->OpenIngress(port, tcp, udp_options);
    }
    if (!opened.ok()) return opened.error();
    if (port == 0) port = shard->ingress->local().port;  // resolve once
    proxy->shards_.push_back(std::move(shard));
  }
  proxy->port_ = port;

  for (auto& shard : proxy->shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([raw]() { raw->loop->Run(); });
  }
  return proxy;
}

HierarchyProxy::~HierarchyProxy() { Stop(); }

void HierarchyProxy::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->loop->RequestStop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

RelayStats HierarchyProxy::TotalStats() const {
  RelayStats total;
  if (!shards_.empty()) {
    for (const auto& site : shards_.front()->config.sites) {
      total.sites.push_back({site.name, 0, 0});
    }
  }
  for (const auto& shard : shards_) {
    shard->ledger.AddTo(total);
    total.active_flows += shard->flow_table->Get();
    for (size_t i = 0; i < shard->sites.size(); ++i) {
      total.sites[i].queries_in += shard->sites[i].queries_in->Get();
      total.sites[i].responses_out += shard->sites[i].responses_out->Get();
    }
  }
  return total;
}

}  // namespace ldp::proxy
