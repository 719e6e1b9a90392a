// Authoritative server bound to the simulator: UDP, TCP, and TLS listeners
// feeding one AuthServerEngine, with per-connection stream reassembly, the
// idle-timeout knob of Figs 11/13/14, and resource metering.
#ifndef LDPLAYER_SERVER_SIM_SERVER_H
#define LDPLAYER_SERVER_SIM_SERVER_H

#include <memory>

#include "server/engine.h"
#include "sim/meters.h"
#include "sim/network.h"
#include "sim/tcp.h"

namespace ldp::server {

class SimDnsServer {
 public:
  struct Config {
    IpAddress address;
    uint16_t udp_tcp_port = 53;
    uint16_t tls_port = 853;
    bool serve_tcp = true;
    bool serve_tls = true;
    // Idle-connection close timer (0 = never close) — the experiments
    // sweep this from 5 s to 40 s.
    NanoDuration tcp_idle_timeout = Seconds(20);
    sim::ResourceModel resources;
  };

  // The engine is shared so several listener nodes can front one zone set
  // (the meta-DNS-server is "a single authoritative server instance").
  SimDnsServer(sim::SimNetwork& net, std::shared_ptr<AuthServerEngine> engine,
               const Config& config);

  // Starts the listeners.
  Status Start();

  sim::NodeMeters& meters() { return meters_; }
  const Config& config() const { return config_; }

 private:
  void OnUdp(const sim::SimPacket& packet);
  sim::ConnCallbacks MakeStreamCallbacks();

  sim::SimNetwork& net_;
  std::shared_ptr<AuthServerEngine> engine_;
  Config config_;
  sim::NodeMeters meters_;
  sim::SimTcpStack tcp_stack_;
};

// Convenience: a single-view authoritative node serving `zones` to anyone —
// the building block of the simulated Internet used for zone construction.
std::unique_ptr<SimDnsServer> MakeAuthoritativeNode(sim::SimNetwork& net,
                                                    IpAddress address,
                                                    zone::ZoneSet zones);

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_SIM_SERVER_H
