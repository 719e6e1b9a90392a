#include "proxy/proxy.h"

namespace ldp::proxy {

RecursiveProxy::RecursiveProxy(sim::SimNetwork& net, IpAddress recursive,
                               IpAddress meta_server)
    : net_(net), recursive_(recursive), meta_server_(meta_server) {
  net_.SetEgressHook(recursive_, [this](sim::SimPacket& packet) {
    // Port-based capture, as with the iptables mangle rule: every UDP
    // packet leaving the recursive for port 53 is a hierarchy query.
    if (packet.kind != sim::SegmentKind::kUdp || packet.dst_port != 53) {
      ledger_.Add<&ProxyStats::passed_through>();
      return false;
    }
    // OQDA into the source; meta server into the destination.
    packet.src = packet.dst;
    packet.dst = meta_server_;
    ledger_.Add<&ProxyStats::rewritten>();
    net_.Inject(std::move(packet));
    return true;
  });
}

RecursiveProxy::~RecursiveProxy() { net_.ClearEgressHook(recursive_); }

AuthoritativeProxy::AuthoritativeProxy(sim::SimNetwork& net,
                                       IpAddress meta_server,
                                       IpAddress recursive)
    : net_(net), meta_server_(meta_server), recursive_(recursive) {
  net_.SetEgressHook(meta_server_, [this](sim::SimPacket& packet) {
    if (packet.kind != sim::SegmentKind::kUdp || packet.src_port != 53) {
      ledger_.Add<&ProxyStats::passed_through>();
      return false;
    }
    // The server replied toward the OQDA (the rewritten query source).
    // Put that OQDA back in the source field and hand the packet to the
    // recursive, which then matches reply source == query destination.
    packet.src = packet.dst;
    packet.dst = recursive_;
    ledger_.Add<&ProxyStats::rewritten>();
    net_.Inject(std::move(packet));
    return true;
  });
}

AuthoritativeProxy::~AuthoritativeProxy() {
  net_.ClearEgressHook(meta_server_);
}

}  // namespace ldp::proxy
