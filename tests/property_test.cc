// Parameterized property suites sweeping configuration grids:
//  * master-file serialize/parse is a fixpoint for arbitrary generated
//    hierarchies (signed and unsigned),
//  * the simulated TCP lifecycle balances its connection accounting for
//    every idle-timeout setting,
//  * binary/text trace codecs are inverses on every workload model,
//  * the slab response cache behaves exactly like a list-based LRU.
#include <gtest/gtest.h>

#include <list>

#include "common/rng.h"
#include "mutate/mutate.h"
#include "replay/sim_engine.h"
#include "server/response_cache.h"
#include "server/sim_server.h"
#include "trace/binary.h"
#include "trace/pcap.h"
#include "trace/text.h"
#include "workload/hierarchy.h"
#include "workload/traces.h"
#include "zone/dnssec.h"
#include "zone/masterfile.h"

namespace ldp {
namespace {

// --- Master-file fixpoint over hierarchy shapes ---

struct ZoneCase {
  size_t tlds;
  size_t slds;
  bool sign;
};

class MasterFileFixpoint : public ::testing::TestWithParam<ZoneCase> {};

TEST_P(MasterFileFixpoint, SerializeParseSerialize) {
  const ZoneCase& c = GetParam();
  workload::HierarchyConfig config;
  config.n_tlds = c.tlds;
  config.n_slds_per_tld = c.slds;
  config.sign_root = c.sign;
  auto hierarchy = workload::BuildHierarchy(config);

  for (const auto& zone : hierarchy.AllZones()) {
    std::string first = zone::SerializeZone(*zone);
    auto reparsed = zone::ParseMasterFile(first, zone::MasterFileOptions{});
    ASSERT_TRUE(reparsed.ok())
        << zone->origin().ToString() << ": " << reparsed.error().ToString();
    EXPECT_EQ(reparsed->record_count(), zone->record_count());
    // Fixpoint: a second round produces byte-identical text.
    std::string second = zone::SerializeZone(*reparsed);
    EXPECT_EQ(first, second) << zone->origin().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MasterFileFixpoint,
    ::testing::Values(ZoneCase{1, 0, false}, ZoneCase{3, 2, false},
                      ZoneCase{3, 2, true}, ZoneCase{10, 0, true},
                      ZoneCase{5, 8, false}));

// --- TCP accounting balance across timeout grid ---

class TcpAccounting : public ::testing::TestWithParam<int> {};

TEST_P(TcpAccounting, GaugesReturnToZeroAfterDrain) {
  int timeout_s = GetParam();
  sim::Simulator simulator;
  sim::SimNetwork net(simulator);
  net.SetDefaultOneWayDelay(Millis(2));

  auto zone = zone::ParseMasterFile(
      "$ORIGIN t.\n@ 60 IN SOA ns.t. a.t. 1 2 3 4 5\n@ IN NS ns.t.\n"
      "* IN A 1.2.3.4\n",
      zone::MasterFileOptions{});
  ASSERT_TRUE(zone.ok());
  zone::ZoneSet set;
  ASSERT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  auto engine = std::make_shared<server::AuthServerEngine>(std::move(views));
  server::SimDnsServer::Config config;
  config.address = IpAddress(10, 0, 0, 1);
  config.tcp_idle_timeout = Seconds(timeout_s);
  server::SimDnsServer server(net, engine, config);
  ASSERT_TRUE(server.Start().ok());

  workload::FixedIntervalConfig tconfig;
  tconfig.interarrival = Millis(50);
  tconfig.duration = Seconds(10);
  tconfig.n_clients = 17;
  tconfig.server = config.address;
  auto records = workload::MakeFixedIntervalTrace(tconfig);
  mutate::MutationPipeline pipeline;
  pipeline.Add(mutate::ForceProtocol(trace::Protocol::kTcp));
  pipeline.Apply(records);

  replay::SimReplayConfig rconfig;
  rconfig.server = Endpoint{config.address, 53};
  rconfig.gauge_interval = 0;
  replay::SimReplayEngine replayer(net, rconfig, &server.meters());
  replayer.Load(records);
  auto report = replayer.Finish();

  // Every query answered; after the full drain (idle close + TIME_WAIT
  // expiry) all gauges balance to zero.
  EXPECT_EQ(report.responses, records.size());
  EXPECT_EQ(server.meters().established_connections(), 0u)
      << "timeout " << timeout_s;
  EXPECT_EQ(server.meters().time_wait_connections(), 0u)
      << "timeout " << timeout_s;
  // Conservation: every fresh connection was eventually closed exactly
  // once (fresh == sources when the trace is shorter than the timeout).
  EXPECT_GE(report.fresh_connections, 17u);
}

INSTANTIATE_TEST_SUITE_P(Timeouts, TcpAccounting,
                         ::testing::Values(1, 5, 12, 20, 40));

// --- Trace codec inverses over workload models ---

class TraceCodecInverse : public ::testing::TestWithParam<int> {};

TEST_P(TraceCodecInverse, BinaryAndTextRoundTrip) {
  std::vector<trace::QueryRecord> records;
  switch (GetParam()) {
    case 0: {
      workload::BRootConfig config;
      config.median_rate_qps = 200;
      config.duration = Seconds(5);
      records = workload::MakeBRootTrace(config);
      break;
    }
    case 1: {
      workload::FixedIntervalConfig config;
      config.interarrival = Millis(3);
      config.duration = Seconds(3);
      records = workload::MakeFixedIntervalTrace(config);
      break;
    }
    default: {
      workload::HierarchyConfig hconfig;
      hconfig.n_tlds = 2;
      hconfig.n_slds_per_tld = 2;
      auto hierarchy = workload::BuildHierarchy(hconfig);
      workload::RecConfig config;
      config.n_records = 500;
      records = workload::MakeRecursiveTrace(config, hierarchy);
      break;
    }
  }
  ASSERT_FALSE(records.empty());

  auto binary = trace::DecodeBinaryTrace(trace::EncodeBinaryTrace(records));
  ASSERT_TRUE(binary.ok());
  EXPECT_EQ(*binary, records);

  std::ostringstream text;
  ASSERT_TRUE(trace::WriteTextTrace(records, text).ok());
  std::istringstream in(text.str());
  auto parsed = trace::ReadTextTrace(in);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  EXPECT_EQ(*parsed, records);
}

INSTANTIATE_TEST_SUITE_P(Models, TraceCodecInverse, ::testing::Values(0, 1, 2));


// --- Decoder robustness: arbitrary bytes never crash, only fail cleanly ---

class DecoderRobustness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderRobustness, RandomBuffersNeverCrash) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.NextBelow(300));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
    auto message = dns::Message::Decode(garbage);
    (void)message;  // ok() or clean error; must not crash or hang
    auto packets = trace::ReadPcap(garbage);
    (void)packets;
    auto records = trace::DecodeBinaryTrace(garbage);
    (void)records;
  }
}

TEST_P(DecoderRobustness, BitFlippedMessagesNeverCrash) {
  // Start from a valid message and flip random bits: decoders must reject
  // or accept without crashing, even with corrupted compression pointers.
  Rng rng(GetParam() ^ 0xf11b);
  dns::Message msg;
  msg.id = 7;
  msg.qr = true;
  msg.questions.push_back(dns::Question{*dns::Name::Parse("www.example.com"),
                                        dns::RRType::kA, dns::RRClass::kIN});
  msg.answers.push_back(dns::ResourceRecord{
      *dns::Name::Parse("www.example.com"), dns::RRType::kCNAME,
      dns::RRClass::kIN, 60,
      dns::CnameRdata{*dns::Name::Parse("target.example.com")}});
  Bytes base = msg.Encode();
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes mutated = base;
    int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      size_t index = rng.NextBelow(mutated.size());
      mutated[index] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    auto decoded = dns::Message::Decode(mutated);
    if (decoded.ok()) {
      // Re-encoding whatever was decoded must also not crash.
      Bytes reencoded = decoded->Encode();
      (void)reencoded;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderRobustness,
                         ::testing::Values(1, 2, 3, 4));

// --- Response cache: the slab LRU against a reference list LRU ---

// The reference: the cache as it was specified, a std::list in LRU order
// (front = most recently used) searched linearly.
class ReferenceLru {
 public:
  struct Item {
    const void* view;
    Bytes question;
    bool has_edns;
    bool do_bit;
    uint32_t advertised;
    uint32_t limit;
    Bytes wire;
    dns::Rcode rcode;
  };

  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  const Item* Lookup(const server::ResponseCacheKey& key) {
    auto it = Find(key);
    if (it == items_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it);
    return &items_.front();
  }

  void Insert(const server::ResponseCacheKey& key, const Bytes& wire,
              dns::Rcode rcode) {
    if (capacity_ == 0) return;
    auto it = Find(key);
    if (it != items_.end()) {
      it->wire = wire;
      it->rcode = rcode;
      items_.splice(items_.begin(), items_, it);
      return;
    }
    if (items_.size() >= capacity_) {
      items_.pop_back();
      ++evictions_;
    }
    items_.push_front(Item{key.view,
                           Bytes(key.question.begin(), key.question.end()),
                           key.has_edns, key.do_bit, key.advertised,
                           key.limit, wire, rcode});
  }

  size_t size() const { return items_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  std::list<Item>::iterator Find(const server::ResponseCacheKey& key) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->view == key.view && it->has_edns == key.has_edns &&
          it->do_bit == key.do_bit && it->advertised == key.advertised &&
          it->limit == key.limit &&
          std::equal(it->question.begin(), it->question.end(),
                     key.question.begin(), key.question.end())) {
        return it;
      }
    }
    return items_.end();
  }

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::list<Item> items_;
};

class ResponseCacheVsReference : public ::testing::TestWithParam<size_t> {};

TEST_P(ResponseCacheVsReference, RandomLookupInsertSequencesAgree) {
  const size_t capacity = GetParam();
  // 24 keys over a few views, questions and EDNS shapes: with capacity 7
  // the 16-bucket index probes and shifts entries constantly.
  const int views[2] = {0, 0};
  std::vector<Bytes> questions;
  for (int i = 0; i < 6; ++i) {
    Bytes question = {3, 'w', 'w', static_cast<uint8_t>('a' + i), 0, 0, 1,
                      0, 1};
    questions.push_back(question);
  }
  std::vector<server::ResponseCacheKey> keys;
  for (size_t i = 0; i < 24; ++i) {
    server::ResponseCacheKey key;
    key.view = &views[i % 2];
    key.question = questions[i / 4];
    key.has_edns = (i / 2) % 2 == 1;
    key.do_bit = key.has_edns && i % 3 == 0;
    key.advertised = key.has_edns ? 1232 : 0;
    key.limit = key.has_edns ? 1232 : 512;
    keys.push_back(key);
  }

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 7919 + capacity);
    server::ResponseCache cache(capacity);
    ReferenceLru reference(capacity);
    for (int step = 0; step < 5000; ++step) {
      const server::ResponseCacheKey& key =
          keys[rng.NextBelow(keys.size())];
      const uint64_t hash = server::ResponseCache::Hash(key);
      if (rng.NextBelow(2) == 0) {
        const auto* got = cache.Lookup(key, hash);
        const auto* want = reference.Lookup(key);
        ASSERT_EQ(got != nullptr, want != nullptr)
            << "seed " << seed << " step " << step;
        if (got != nullptr) {
          EXPECT_EQ(got->wire, want->wire);
          EXPECT_EQ(got->rcode, want->rcode);
        }
      } else {
        Bytes wire(1 + rng.NextBelow(40));
        for (auto& byte : wire) byte = static_cast<uint8_t>(rng.NextU64());
        const auto rcode = rng.NextBelow(2) == 0 ? dns::Rcode::kNoError
                                                 : dns::Rcode::kNxDomain;
        cache.Insert(key, hash, wire, rcode);
        reference.Insert(key, wire, rcode);
      }
      ASSERT_EQ(cache.size(), reference.size())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(cache.evictions(), reference.evictions())
          << "seed " << seed << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, ResponseCacheVsReference,
                         ::testing::Values(0, 1, 2, 7));

}  // namespace
}  // namespace ldp
