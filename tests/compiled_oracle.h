// The byte-identity oracle for compiled answers, shared by
// compiled_answer_test and the fuzz_answer harness: the response the
// reference path gives for a query — Message::Decode, the matched view's
// longest-match zone, zone::BuildResponse, Message::Encode at the
// effective UDP limit — which AuthServerEngine::HandleWire must reproduce
// byte for byte.
#ifndef LDPLAYER_TESTS_COMPILED_ORACLE_H
#define LDPLAYER_TESTS_COMPILED_ORACLE_H

#include <algorithm>
#include <optional>
#include <span>

#include "common/bytes.h"
#include "common/ip.h"
#include "dns/message.h"
#include "zone/lookup.h"
#include "zone/view.h"

namespace ldp::oracle {

// The response size ceiling the engine applies (see engine.cc).
inline size_t EffectiveLimit(size_t udp_limit, const dns::Message& query) {
  if (udp_limit == 0) return dns::kMaxMessageSize;
  size_t ceiling = query.edns.has_value() ? query.edns->udp_payload_size
                                          : dns::kMaxUdpPayloadDefault;
  ceiling = std::max(ceiling, dns::kMaxUdpPayloadDefault);
  return std::min(udp_limit, ceiling);
}

// The reference response to a non-AXFR query, or nullopt when the query
// does not decode (the engine drops those).
inline std::optional<Bytes> ReferenceResponse(const zone::ViewTable& views,
                                              std::span<const uint8_t> wire,
                                              IpAddress source,
                                              size_t udp_limit) {
  auto query = dns::Message::Decode(wire);
  if (!query.ok()) return std::nullopt;
  const zone::ZoneSet* zones = views.Match(source);
  const zone::Zone* zone = nullptr;
  if (zones != nullptr && !query->questions.empty()) {
    zone = zones->FindBestZone(query->questions.front().name);
  }
  dns::Message response;
  if (zone == nullptr) {
    response.id = query->id;
    response.qr = true;
    response.opcode = query->opcode;
    response.rd = query->rd;
    response.questions = query->questions;
    response.rcode = dns::Rcode::kRefused;
    if (query->edns.has_value()) {
      response.edns =
          dns::Edns{.udp_payload_size = query->edns->udp_payload_size};
    }
  } else {
    bool dnssec = query->edns.has_value() && query->edns->do_bit;
    response = zone::BuildResponse(*zone, *query, dnssec);
  }
  return response.Encode(EffectiveLimit(udp_limit, *query));
}

}  // namespace ldp::oracle

#endif  // LDPLAYER_TESTS_COMPILED_ORACLE_H
