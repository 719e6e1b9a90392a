#include <gtest/gtest.h>

#include "mutate/mutate.h"
#include "replay/sim_engine.h"
#include "replay/sticky.h"
#include "server/sim_server.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::replay {
namespace {

TEST(StickyAssigner, SameSourceSameDownstream) {
  StickyAssigner assigner(8, 42);
  IpAddress a(10, 1, 1, 1), b(10, 2, 2, 2);
  size_t slot_a = assigner.Assign(a);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(assigner.Assign(a), slot_a);
  EXPECT_LT(assigner.Assign(b), 8u);
  EXPECT_EQ(assigner.known_sources(), 2u);
}

TEST(StickyAssigner, SpreadsSources) {
  StickyAssigner assigner(4, 7);
  for (uint32_t i = 0; i < 4000; ++i) {
    assigner.Assign(IpAddress(0x0a000000 + i));
  }
  for (size_t count : assigner.source_counts()) {
    EXPECT_GT(count, 800u);
    EXPECT_LT(count, 1200u);
  }
}

class SimReplayTest : public ::testing::Test {
 protected:
  SimReplayTest() : net_(sim_) {
    net_.SetDefaultOneWayDelay(Millis(5));  // RTT = 10 ms

    auto zone = zone::ParseMasterFile(
        "$ORIGIN example.com.\n"
        "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
        "@ IN NS ns1\n"
        "ns1 IN A 192.0.2.53\n"
        "* IN A 192.0.2.200\n",  // wildcard answers every replayed name
        zone::MasterFileOptions{});
    EXPECT_TRUE(zone.ok());
    zone::ZoneSet set;
    EXPECT_TRUE(
        set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
    zone::ViewTable views;
    views.SetDefaultView(std::move(set));
    engine_ = std::make_shared<server::AuthServerEngine>(std::move(views));

    server::SimDnsServer::Config config;
    config.address = server_addr_;
    config.tcp_idle_timeout = Seconds(20);
    server_ = std::make_unique<server::SimDnsServer>(net_, engine_, config);
    EXPECT_TRUE(server_->Start().ok());
  }

  std::vector<trace::QueryRecord> MakeTrace(size_t n, NanoDuration gap) {
    workload::FixedIntervalConfig config;
    config.interarrival = gap;
    config.duration = gap * static_cast<int64_t>(n);
    config.server = server_addr_;
    config.n_clients = 10;
    return workload::MakeFixedIntervalTrace(config);
  }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  IpAddress server_addr_{10, 0, 0, 1};
  std::shared_ptr<server::AuthServerEngine> engine_;
  std::unique_ptr<server::SimDnsServer> server_;
};

TEST_F(SimReplayTest, UdpRepliesInOneRtt) {
  auto records = MakeTrace(100, Millis(10));
  SimReplayConfig config;
  config.server = Endpoint{server_addr_, 53};
  config.gauge_interval = 0;
  SimReplayEngine engine(net_, config, &server_->meters());
  engine.Load(records);
  auto report = engine.Finish();

  EXPECT_EQ(report.queries_sent, 100u);
  EXPECT_EQ(report.responses, 100u);
  for (const auto& outcome : report.outcomes) {
    ASSERT_TRUE(outcome.answered());
    EXPECT_EQ(outcome.latency(), Millis(10));  // exactly 1 RTT
    EXPECT_GT(outcome.response_bytes, 0u);
  }
  EXPECT_EQ(server_->meters().queries_served(), 100u);
}

TEST_F(SimReplayTest, TcpReusesConnectionsPerSource) {
  auto records = MakeTrace(60, Millis(50));
  mutate::MutationPipeline pipeline;
  pipeline.Add(mutate::ForceProtocol(trace::Protocol::kTcp));
  pipeline.Apply(records);

  SimReplayConfig config;
  config.server = Endpoint{server_addr_, 53};
  config.gauge_interval = 0;
  SimReplayEngine engine(net_, config, &server_->meters());
  engine.Load(records);
  auto report = engine.Finish();

  EXPECT_EQ(report.responses, 60u);
  // 10 client sources -> 10 fresh connections, the remaining 50 reused.
  EXPECT_EQ(report.fresh_connections, 10u);
  EXPECT_EQ(report.reused_connections, 50u);

  // Fresh queries cost 2 RTT, reused 1 RTT (plus possible Nagle effects on
  // the server side; with one query in flight per conn there are none).
  for (const auto& outcome : report.outcomes) {
    ASSERT_TRUE(outcome.answered());
    if (outcome.fresh_connection) {
      EXPECT_EQ(outcome.latency(), Millis(20));
    } else {
      EXPECT_EQ(outcome.latency(), Millis(10));
    }
  }
}

TEST_F(SimReplayTest, TlsFreshQueryIsFourRtts) {
  auto records = MakeTrace(10, Seconds(1));
  mutate::MutationPipeline pipeline;
  pipeline.Add(mutate::ForceProtocol(trace::Protocol::kTls));
  pipeline.Apply(records);

  SimReplayConfig config;
  config.server = Endpoint{server_addr_, 53};
  config.gauge_interval = 0;
  SimReplayEngine engine(net_, config, &server_->meters());
  engine.Load(records);
  auto report = engine.Finish();

  ASSERT_EQ(report.responses, 10u);
  for (const auto& outcome : report.outcomes) {
    if (outcome.fresh_connection) {
      EXPECT_EQ(outcome.latency(), Millis(40));  // 4 RTT
    } else {
      EXPECT_EQ(outcome.latency(), Millis(10));  // reused: 1 RTT
    }
  }
  EXPECT_EQ(report.fresh_connections, 10u);
  // Finish() drains the whole simulation, including the server's idle
  // timeout closing every connection — so the live-session gauge is back
  // to zero by now.
  EXPECT_EQ(server_->meters().tls_sessions(), 0u);
  EXPECT_EQ(server_->meters().established_connections(), 0u);
}

TEST_F(SimReplayTest, ServerIdleTimeoutForcesReconnect) {
  // Two queries from one source 30 s apart with a 20 s server timeout:
  // both connections are fresh.
  std::vector<trace::QueryRecord> records = MakeTrace(2, Seconds(30));
  records[0].src = records[1].src = IpAddress(172, 16, 0, 1);
  for (auto& r : records) r.protocol = trace::Protocol::kTcp;

  SimReplayConfig config;
  config.server = Endpoint{server_addr_, 53};
  config.gauge_interval = 0;
  SimReplayEngine engine(net_, config, &server_->meters());
  engine.Load(records);
  auto report = engine.Finish();

  EXPECT_EQ(report.responses, 2u);
  EXPECT_EQ(report.fresh_connections, 2u);
  EXPECT_EQ(report.reused_connections, 0u);
}

TEST_F(SimReplayTest, GaugeSamplingTracksConnections) {
  auto records = MakeTrace(200, Millis(100));  // 20 s of trace
  mutate::MutationPipeline pipeline;
  pipeline.Add(mutate::ForceProtocol(trace::Protocol::kTcp));
  pipeline.Apply(records);

  SimReplayConfig config;
  config.server = Endpoint{server_addr_, 53};
  config.gauge_interval = Seconds(5);
  SimReplayEngine engine(net_, config, &server_->meters());
  engine.Load(records);
  auto report = engine.Finish();

  ASSERT_GE(report.memory_samples.size(), 3u);
  ASSERT_EQ(report.memory_samples.size(), report.established_samples.size());
  // Established connections at mid-run equal the source count.
  bool saw_connections = false;
  for (const auto& [when, value] : report.established_samples) {
    if (value == 10) saw_connections = true;
  }
  EXPECT_TRUE(saw_connections);
  // Memory grows above base when connections are up.
  uint64_t base = server_->meters().model().base_memory;
  bool memory_grew = false;
  for (const auto& [when, value] : report.memory_samples) {
    if (value > base) memory_grew = true;
  }
  EXPECT_TRUE(memory_grew);
}

TEST_F(SimReplayTest, LatencySummaryAndSourceLoads) {
  auto records = MakeTrace(50, Millis(20));
  SimReplayConfig config;
  config.server = Endpoint{server_addr_, 53};
  config.gauge_interval = 0;
  SimReplayEngine engine(net_, config, &server_->meters());
  engine.Load(records);
  auto report = engine.Finish();

  auto all = report.LatencySummary();
  EXPECT_EQ(all.count, 50u);
  EXPECT_DOUBLE_EQ(all.p50, 10.0);  // ms

  auto loads = report.SourceLoads();
  EXPECT_EQ(loads.size(), 10u);
  for (const auto& [src, count] : loads) EXPECT_EQ(count, 5u);

  // Filtering to "non-busy" sources with a threshold below their load
  // excludes everyone.
  auto none = report.LatencySummary(4);
  EXPECT_EQ(none.count, 0u);
}

}  // namespace
}  // namespace ldp::replay
