// Compiled-answer fuzz target: a zone in master-file text, a query, the
// query's source and the transport limit. Every response the engine gives
// — for the input query and for queries derived from the zone's own names
// — must be byte-identical to the reference path, BuildResponse(...)
// .Encode(limit) (compiled_oracle.h), cache off and on.
//
// Input layout:
//   u16 zone_len | zone_len bytes of zone text | u8 flags | u16 udp_limit |
//   query wire (the rest)
// flags bit 0: ask from an address no view matches (REFUSED: no default
// view); bits 1-3 pick the derived queries' EDNS shape, 0x20 case mixing
// and DO; bits 4-7 rotate the derived qtypes.
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "../compiled_oracle.h"
#include "dns/wire.h"
#include "server/engine.h"
#include "zone/masterfile.h"

namespace {

using namespace ldp;

[[noreturn]] void Fail(const std::string& what, const Bytes& query) {
  std::fprintf(stderr, "fuzz_answer oracle violation: %s\nquery %s\n",
               what.c_str(), HexDump(query).c_str());
  std::abort();
}

const IpAddress kViewSource(10, 0, 0, 1);
const IpAddress kOtherSource(10, 0, 0, 2);

void CheckOne(const zone::ViewTable& views, server::AuthServerEngine& plain,
              server::AuthServerEngine& cached, const Bytes& query,
              IpAddress source, size_t udp_limit) {
  auto decoded = dns::Message::Decode(query);
  if (decoded.ok() && !decoded->questions.empty() &&
      decoded->questions.front().type == dns::RRType::kAXFR) {
    return;  // refused over UDP by its own path, not BuildResponse's
  }
  auto expected = oracle::ReferenceResponse(views, query, source, udp_limit);
  auto actual = plain.HandleWire(query, source, udp_limit);
  if (!expected.has_value()) {
    if (actual.ok()) Fail("engine answered an undecodable query", query);
    return;
  }
  if (!actual.ok()) Fail("engine dropped a decodable query", query);
  if (*actual != *expected) Fail("HandleWire differs", query);
  for (int pass = 0; pass < 2; ++pass) {
    auto again = cached.HandleWire(query, source, udp_limit);
    if (!again.ok() || *again != *expected) Fail("cached differs", query);
  }
  if (udp_limit == 0) {
    auto stream = plain.HandleStream(query, source);
    if (!stream.ok() || stream->size() != 1 || stream->front() != *expected) {
      Fail("HandleStream differs", query);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  size_t zone_len = (static_cast<size_t>(data[0]) << 8) | data[1];
  if (size < 2 + zone_len + 3) return 0;
  std::string_view text(reinterpret_cast<const char*>(data + 2), zone_len);
  const uint8_t* rest = data + 2 + zone_len;
  uint8_t flags = rest[0];
  size_t udp_limit = (static_cast<size_t>(rest[1]) << 8) | rest[2];
  Bytes query(rest + 3, data + size);

  auto parsed = zone::ParseMasterFile(text, zone::MasterFileOptions{});
  if (!parsed.ok()) return 0;
  auto zone = std::make_shared<zone::Zone>(std::move(*parsed));
  zone::ZoneSet set;
  if (!set.AddZone(zone).ok()) return 0;
  zone::ViewTable table;
  if (!table.AddView("zone", {kViewSource}, std::move(set)).ok()) return 0;
  auto views = std::make_shared<const zone::ViewTable>(std::move(table));
  server::AuthServerEngine plain(views);
  server::AuthServerEngine cached(views, server::EngineOptions{64});
  IpAddress source = (flags & 1) ? kOtherSource : kViewSource;

  CheckOne(*views, plain, cached, query, source, udp_limit);

  // Derived queries: the zone's first owners and a missing child of each.
  std::vector<dns::Name> names;
  zone->ForEachRRset([&](const dns::RRset& rrset) {
    if (names.size() >= 6) return;
    if (!names.empty() && names.back() == rrset.name) return;
    names.push_back(rrset.name);
  });
  for (size_t i = 0, n = names.size(); i < n; ++i) {
    if (auto child = names[i].Child("zz"); child.ok()) {
      names.push_back(*child);
    }
  }
  static const dns::RRType kTypes[] = {
      dns::RRType::kA,     dns::RRType::kANY,  dns::RRType::kDS,
      dns::RRType::kCNAME, dns::RRType::kNSEC, dns::RRType::kRRSIG,
      dns::RRType::kMX,    dns::RRType::kNS,   dns::RRType::kTXT,
      dns::RRType::kAAAA,  dns::RRType::kSOA,  dns::RRType::kSRV};
  constexpr size_t kNumTypes = sizeof(kTypes) / sizeof(kTypes[0]);
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t k = 0; k < 2; ++k) {
      dns::Name name = names[i];
      if (flags & 0x04) {
        std::vector<std::string> labels = name.labels();
        for (auto& label : labels) {
          for (size_t c = 0; c < label.size(); c += 2) {
            if (label[c] >= 'a' && label[c] <= 'z') label[c] -= 'a' - 'A';
          }
        }
        name = *dns::Name::FromLabels(std::move(labels));
      }
      auto message = dns::Message::MakeQuery(
          name, kTypes[((flags >> 4) + i * 5 + k * 7) % kNumTypes], i & 1);
      message.id = static_cast<uint16_t>(i * 2 + k);
      if (flags & 0x02) {
        message.edns = dns::Edns{
            .udp_payload_size = static_cast<uint16_t>(flags & 0x10 ? 512 : 4096),
            .do_bit = (flags & 0x08) != 0};
      }
      CheckOne(*views, plain, cached, message.Encode(), source, udp_limit);
    }
  }
  return 0;
}
