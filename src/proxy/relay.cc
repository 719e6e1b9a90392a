#include "proxy/relay.h"

#include <algorithm>
#include <deque>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dns/framing.h"
#include "net/event_loop.h"
#include "net/sockets.h"

namespace ldp::proxy {
namespace {

constexpr size_t kDnsHeaderBytes = 12;

// One ring slot per DNS ID: a forwarded query carries its slot's index as
// its ID.
constexpr size_t kRingSlots = 65536;

// What the reply leg needs to answer one forwarded query.
struct Slot {
  IpAddress client_addr;
  IpAddress oqda;
  uint16_t client_port = 0;
  uint16_t client_id = 0;  // the ID the client chose
  uint16_t site = 0;       // catchment assignment
  bool held = false;       // a query is owed a reply
};
static_assert(sizeof(Slot) <= 16);

uint16_t ReadId(std::span<const uint8_t> wire) {
  return static_cast<uint16_t>((wire[0] << 8) | wire[1]);
}

void WriteId(Bytes& wire, uint16_t id) {
  wire[0] = static_cast<uint8_t>(id >> 8);
  wire[1] = static_cast<uint8_t>(id);
}

}  // namespace

// One worker shard: event loop, its SO_REUSEPORT wildcard ingress path,
// its upstream socket and ID ring, and private registry cells.
// Everything except the cells is loop-thread-only after Start.
struct HierarchyProxy::Shard {
  explicit Shard(stats::MetricsRegistry& metrics)
      : ledger(metrics),
        pending(metrics.AddGauge("proxy.pending")),
        ring(std::make_unique<Slot[]>(kRingSlots)) {}

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
  // Bound to the unspecified address at this shard's own ephemeral port:
  // queries leave it with their OQDA as source, and the meta server's
  // replies come back to (OQDA, this port).
  std::unique_ptr<net::UdpSocket> upstream;
  stats::Ledger<kRelayLedger> ledger;
  stats::Gauge* pending;  // RelayStats::pending
  // Per-site load, one pair per RelayConfig::sites entry.
  struct SiteCells {
    stats::Counter* queries_in;
    stats::Counter* responses_out;
  };
  std::vector<SiteCells> sites;
  std::thread thread;

  // The ID ring; `cursor` is the next slot to take and wraps with the ID.
  std::unique_ptr<Slot[]> ring;
  uint16_t cursor = 0;

  // Staging for one batch per leg, reused across batches: rewritten
  // copies of the datagrams, their send items and the replies' sites.
  std::vector<Bytes> forward_wire;
  std::vector<net::UdpSocket::SendItem> forward_items;
  std::vector<Bytes> reply_wire;
  std::vector<net::UdpSocket::SendItem> reply_items;
  std::vector<uint16_t> reply_sites;

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

  // The upstream socket keeps SO_REUSEPORT off, so no other shard can
  // share its port and be handed this shard's replies.
  Status OpenUpstream(net::UdpOptions options) {
    options.reuse_port = false;
    LDP_ASSIGN_OR_RETURN(
        upstream,
        net::UdpSocket::Open(
            *loop, Endpoint{IpAddress(), 0},
            [this](std::span<const net::UdpSocket::RecvItem> items) {
              OnUpstreamBatch(items);
            },
            options));
    return Status::Ok();
  }

  // Reuses the staging buffer at `index` for a copy of `payload`. A
  // resize moves the buffers without copying their bytes, so spans taken
  // from earlier ones stay valid.
  static Bytes& Stage(std::vector<Bytes>& buffers, size_t index,
                      std::span<const uint8_t> payload) {
    if (buffers.size() <= index) buffers.resize(index + 1);
    buffers[index].assign(payload.begin(), payload.end());
    return buffers[index];
  }

  // --- UDP data path ---

  // Queries arriving at the service port. The paper's recursive-proxy
  // rewrite (src := OQDA, dst := meta) is one SendBatch on the upstream
  // socket per ingress batch, each query naming its OQDA (RecvItem::to,
  // from IP_PKTINFO) as source and carrying its ring slot as its ID.
  void OnIngressBatch(std::span<const net::UdpSocket::RecvItem> items) {
    const NanoTime t0 = MonotonicNow();
    if (udp_batch != nullptr) udp_batch->Record(items.size());
    forward_items.clear();
    const uint16_t first_id = cursor;  // forwarded queries take successive IDs
    for (const auto& item : items) {
      ledger.Add<&RelayStats::queries_in>();
      const IpAddress oqda = item.to.addr;
      if (item.payload.size() < kDnsHeaderBytes || !emulated.contains(oqda)) {
        // Not a DNS message — or a datagram for a local address we don't
        // emulate that happens to share the service port. Nothing to
        // rewrite; the iptables analogue would never have captured it.
        ledger.Add<&RelayStats::passed_through>();
        continue;
      }
      const uint16_t id = cursor++;
      Slot& slot = ring[id];
      if (slot.held) {
        // Unanswered for a whole wrap: the ring's oldest query gives way.
        ledger.Add<&RelayStats::reclaimed>();
      } else {
        pending->Add(1);
      }
      slot.client_addr = item.from.addr;
      slot.oqda = oqda;
      slot.client_port = item.from.port;
      slot.client_id = ReadId(item.payload);
      slot.site = config.sites.empty()
                      ? 0
                      : static_cast<uint16_t>(
                            config.catchment.Lookup(item.from.addr));
      slot.held = true;
      if (slot.site < sites.size()) sites[slot.site].queries_in->Add();
      Bytes& wire = Stage(forward_wire, forward_items.size(), item.payload);
      WriteId(wire, id);
      forward_items.push_back(
          net::UdpSocket::SendItem{wire, config.meta_server, {oqda, 0}});
    }
    if (forward_items.empty()) return;
    const size_t accepted = upstream->SendBatch(forward_items);
    ledger.Add<&RelayStats::rewritten>(accepted);
    ledger.Add<&RelayStats::meta_send_errors>(forward_items.size() -
                                              accepted);
    for (size_t i = accepted; i < forward_items.size(); ++i) {
      // Never left: owes no reply.
      ring[static_cast<uint16_t>(first_id + i)].held = false;
      pending->Add(-1);
    }
    if (rewrite_ns != nullptr) {
      // Per-query rewrite+forward cost, averaged over the batch.
      rewrite_ns->Record(static_cast<uint64_t>(
          (MonotonicNow() - t0) / static_cast<int64_t>(items.size())));
    }
  }

  // Datagrams landing on the upstream socket. A meta-server reply whose
  // slot is held and whose destination is the slot's OQDA gets the
  // client's ID back and takes the reverse rewrite (src := OQDA, dst :=
  // client): it is answered over the ingress socket with the OQDA as its
  // source. Its site's RTT, if any, holds it on a loop timer first.
  void OnUpstreamBatch(std::span<const net::UdpSocket::RecvItem> items) {
    reply_items.clear();
    reply_sites.clear();
    const uint16_t service_port = ingress->local().port;
    for (const auto& item : items) {
      if (item.from != config.meta_server ||
          item.payload.size() < kDnsHeaderBytes) {
        ledger.Add<&RelayStats::passed_through>();
        continue;
      }
      Slot& slot = ring[ReadId(item.payload)];
      if (!slot.held || slot.oqda != item.to.addr) {
        // Its query was reclaimed or already answered, or the reply went
        // to another emulated address: accountable loss, not silence.
        ledger.Add<&RelayStats::evicted_drops>();
        continue;
      }
      slot.held = false;
      pending->Add(-1);
      ledger.Add<&RelayStats::responses_in>();
      const Endpoint client{slot.client_addr, slot.client_port};
      const Endpoint source{slot.oqda, service_port};
      const NanoDuration rtt =
          slot.site < config.sites.size() ? config.sites[slot.site].rtt : 0;
      if (rtt > 0) {
        // Anycast RTT injection. The copy outlives this batch, and the
        // send runs on this same loop thread, so the staging vectors and
        // counters stay single-writer.
        Bytes held(item.payload.begin(), item.payload.end());
        WriteId(held, slot.client_id);
        loop->ScheduleAfter(rtt, [this, held = std::move(held), client,
                                  source, site = slot.site]() {
          reply_items.assign(
              {net::UdpSocket::SendItem{held, client, source}});
          reply_sites.assign({site});
          SendReplies();
        });
        continue;
      }
      Bytes& wire = Stage(reply_wire, reply_items.size(), item.payload);
      WriteId(wire, slot.client_id);
      reply_items.push_back(net::UdpSocket::SendItem{wire, client, source});
      reply_sites.push_back(slot.site);
    }
    if (!reply_items.empty()) SendReplies();
  }

  // Flushes reply_items through the ingress path, attributing each
  // accepted reply to its site.
  void SendReplies() {
    const size_t accepted = ingress->SendBatch(reply_items);
    ledger.Add<&RelayStats::responses_out>(accepted);
    ledger.Add<&RelayStats::rewritten>(accepted);
    for (size_t i = 0; i < accepted && !sites.empty(); ++i) {
      sites[reply_sites[i]].responses_out->Add();
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
    StartUpstream(id);
  }

  void StartUpstream(uint64_t id) {
    auto it = splices.find(id);
    if (it == splices.end()) return;
    Splice& splice = *it->second;
    BuryUpstream(splice);
    splice.up_connected = false;
    splice.from_upstream = dns::StreamAssembler();  // new stream, new framing
    net::TcpConnectOptions options;
    // Dial from the OQDA at an ephemeral port, so the meta server's view
    // match sees the OQDA, as on the UDP leg.
    options.local = Endpoint{splice.oqda, 0};
    auto conn = net::TcpConnection::Connect(
        *loop, config.meta_server,
        [this, id](Status status) { OnUpstreamConnected(id, status); },
        [this, id](std::span<const uint8_t> data) {
          OnUpstreamData(id, data);
        },
        [this, id](Status) { OnUpstreamClosed(id); }, options);
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
      const uint16_t dns_id = ReadId(*wire);
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
      const uint16_t dns_id = ReadId(*wire);
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
    splice.reconnect_timer =
        loop->ScheduleAfter(delay, [this, id]() { StartUpstream(id); });
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
  if (config.sites.size() > UINT16_MAX) {
    return Error(ErrorCode::kOutOfRange, "more than 65535 anycast sites");
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
    // OnIngressBatch reads each query's OQDA from RecvItem::to. TCP
    // splices on shard 0 only (mirrors ShardedDnsServer: the TCP lane
    // needs correctness, not multi-core throughput). An ephemeral UDP port
    // may be held by some TCP socket on another address, so shard 0 draws
    // again a few times, as SocketDnsServer does.
    shard->emulated.insert(config.addresses.begin(), config.addresses.end());
    const bool tcp = i == 0 && config.splice_tcp;
    Status opened = shard->OpenIngress(port, tcp, udp_options);
    for (int attempt = 1; !opened.ok() && port == 0 && attempt < 8;
         ++attempt) {
      opened = shard->OpenIngress(port, tcp, udp_options);
    }
    if (!opened.ok()) return opened.error();
    LDP_RETURN_IF_ERROR(shard->OpenUpstream(udp_options));
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
    total.pending += shard->pending->Get();
    for (size_t i = 0; i < shard->sites.size(); ++i) {
      total.sites[i].queries_in += shard->sites[i].queries_in->Get();
      total.sites[i].responses_out += shard->sites[i].responses_out->Get();
    }
  }
  return total;
}

}  // namespace ldp::proxy
