#include "server/engine.h"

namespace ldp::server {
namespace {

// Messages in an AXFR stream stay comfortably under the 64 KiB frame cap;
// real servers batch a few hundred records per message.
constexpr size_t kAxfrMessageBudget = 32 * 1024;

// The effective UDP ceiling: the client's EDNS advertisement, else the
// classic 512 bytes (RFC 1035 §4.2.1), both capped by the transport.
// udp_limit == 0 means a stream transport: no truncation.
size_t EffectiveLimit(size_t udp_limit, bool has_edns, uint32_t advertised) {
  if (udp_limit == 0) return dns::kMaxMessageSize;
  size_t ceiling = has_edns ? advertised : dns::kMaxUdpPayloadDefault;
  if (ceiling < dns::kMaxUdpPayloadDefault) {
    ceiling = dns::kMaxUdpPayloadDefault;
  }
  return std::min(udp_limit, ceiling);
}

}  // namespace

AuthServerEngine::AuthServerEngine(
    std::shared_ptr<const zone::ViewTable> views, EngineOptions options,
    stats::MetricsRegistry* metrics)
    : views_(std::move(views)),
      metrics_(stats::RegistryOrOwn(metrics, own_metrics_)),
      ledger_(metrics_) {
  if (options.response_cache_entries > 0) {
    cache_ =
        std::make_unique<ResponseCache>(options.response_cache_entries);
  }
}

void AuthServerEngine::CountResponse(dns::Rcode rcode, size_t bytes) {
  ledger_.Add<&EngineStats::queries>();
  ledger_.Add<&EngineStats::responses>();
  if (rcode == dns::Rcode::kNxDomain) ledger_.Add<&EngineStats::nxdomain>();
  if (rcode == dns::Rcode::kRefused) ledger_.Add<&EngineStats::refused>();
  ledger_.Add<&EngineStats::response_bytes>(bytes);
}

dns::Message AuthServerEngine::AnswerDecoded(const dns::Message& query,
                                             IpAddress source) {
  ledger_.Add<&EngineStats::queries>();

  const zone::ZoneSet* zones = views_->Match(source);
  const zone::Zone* zone = nullptr;
  if (zones != nullptr && !query.questions.empty()) {
    zone = zones->FindBestZone(query.questions.front().name);
  }

  dns::Message response;
  if (zone == nullptr) {
    // No zone for this name in the matched view: REFUSED, like BIND with
    // no matching zone clause.
    response.id = query.id;
    response.qr = true;
    response.opcode = query.opcode;
    response.rd = query.rd;
    response.questions = query.questions;
    response.rcode = dns::Rcode::kRefused;
    if (query.edns.has_value()) {
      // Echo the client's advertised payload size (RFC 6891 §6.2.3: the
      // OPT in a response states *our* capability, but for a zoneless
      // REFUSED the paper-faithful behaviour is a plain echo).
      response.edns =
          dns::Edns{.udp_payload_size = query.edns->udp_payload_size};
    }
    ledger_.Add<&EngineStats::refused>();
  } else {
    bool want_dnssec = query.edns.has_value() && query.edns->do_bit;
    response = zone::BuildResponse(*zone, query, want_dnssec);
    if (response.rcode == dns::Rcode::kNxDomain) {
      ledger_.Add<&EngineStats::nxdomain>();
    }
    if (response.rcode == dns::Rcode::kRefused) {
      ledger_.Add<&EngineStats::refused>();
    }
  }
  ledger_.Add<&EngineStats::responses>();
  return response;
}

Result<std::vector<Bytes>> AuthServerEngine::HandleAxfr(
    const dns::Message& query, IpAddress source) {
  ledger_.Add<&EngineStats::queries>();
  if (query.questions.empty()) {
    return Error(ErrorCode::kInvalidArgument, "AXFR without a question");
  }
  const dns::Name& origin = query.questions.front().name;
  const zone::ZoneSet* zones = views_->Match(source);
  zone::ZonePtr zone = zones != nullptr ? zones->FindZone(origin) : nullptr;

  auto make_base = [&]() {
    dns::Message msg;
    msg.id = query.id;
    msg.qr = true;
    msg.aa = true;
    msg.questions = query.questions;
    return msg;
  };

  if (zone == nullptr || zone->Soa() == nullptr) {
    // Not authoritative for exactly this origin in this view.
    dns::Message refused = make_base();
    refused.aa = false;
    refused.rcode = dns::Rcode::kNotAuth;
    ledger_.Add<&EngineStats::refused>();
    ledger_.Add<&EngineStats::responses>();
    return std::vector<Bytes>{refused.Encode()};
  }

  // SOA, every other record in canonical order, SOA again. Flush a message
  // whenever the running estimate crosses the per-message budget.
  std::vector<Bytes> messages;
  dns::Message current = make_base();
  size_t current_size = 0;
  auto flush = [&]() {
    if (current.answers.empty() && !messages.empty()) return;
    messages.push_back(current.Encode());
    ledger_.Add<&EngineStats::response_bytes>(messages.back().size());
    ledger_.Add<&EngineStats::responses>();
    current = make_base();
    current.questions.clear();  // only the first message carries it
    current_size = 0;
  };
  auto append = [&](const dns::ResourceRecord& record) {
    size_t estimate = record.name.WireLength() + 10 +
                      dns::RdataWireLength(record.rdata);
    if (current_size + estimate > kAxfrMessageBudget) flush();
    current.answers.push_back(record);
    current_size += estimate;
  };

  const dns::RRset* soa = zone->Soa();
  dns::ResourceRecord soa_record = soa->ToRecords().front();
  append(soa_record);
  zone->ForEachRRset([&](const dns::RRset& rrset) {
    if (rrset.type == dns::RRType::kSOA && rrset.name == zone->origin()) {
      return;
    }
    for (const auto& record : rrset.ToRecords()) append(record);
  });
  append(soa_record);  // terminal SOA
  flush();
  return messages;
}

Result<std::vector<Bytes>> AuthServerEngine::HandleStream(
    std::span<const uint8_t> wire, IpAddress source) {
  dns::WireQueryInfo info;
  if (dns::ParseWireQuery(wire, &info) &&
      info.qtype != static_cast<uint16_t>(dns::RRType::kAXFR)) {
    auto answer =
        answerer_.Respond(*views_->Match(source), info, dns::kMaxMessageSize);
    CountResponse(answer.rcode, answer.wire.size());
    return std::vector<Bytes>{Bytes(answer.wire.begin(), answer.wire.end())};
  }
  auto query = dns::Message::Decode(wire);
  if (!query.ok()) {
    ledger_.Add<&EngineStats::dropped>();
    return query.error();
  }
  if (!query->questions.empty() &&
      query->questions.front().type == dns::RRType::kAXFR) {
    return HandleAxfr(*query, source);
  }
  dns::Message response = AnswerDecoded(*query, source);
  Bytes encoded = response.Encode(dns::kMaxMessageSize);
  ledger_.Add<&EngineStats::response_bytes>(encoded.size());
  return std::vector<Bytes>{std::move(encoded)};
}

Result<Bytes> AuthServerEngine::HandleWire(std::span<const uint8_t> wire,
                                           IpAddress source,
                                           size_t udp_limit) {
  // Plain queries never become a dns::Message. The wire-level response
  // cache answers a repeat from the stored encoding with just the ID and
  // RD flag patched in; a miss is answered from the compiled zones, which
  // copy pre-encoded records. ParseWireQuery reads the key fields straight
  // from the wire; other shapes bypass the cache and take the decode path
  // (and a truncated response is never stored, response_cache.h).
  dns::WireQueryInfo info;
  bool plain = dns::ParseWireQuery(wire, &info) &&
               info.qtype != static_cast<uint16_t>(dns::RRType::kAXFR);
  const zone::ZoneSet& zones = *views_->Match(source);
  size_t limit = 0;
  if (plain) limit = EffectiveLimit(udp_limit, info.has_edns, info.advertised);
  ResponseCacheKey key;
  uint64_t hash = 0;
  if (cache_ != nullptr) {
    if (!plain) {
      ledger_.Add<&EngineStats::cache_bypass>();
    } else {
      key = ResponseCacheKey{.view = &zones,
                             .question = info.question,
                             .has_edns = info.has_edns,
                             .do_bit = info.do_bit,
                             .advertised = info.has_edns ? info.advertised : 0,
                             .limit = static_cast<uint32_t>(limit)};
      hash = ResponseCache::Hash(key);
      if (const ResponseCache::Entry* entry = cache_->Lookup(key, hash)) {
        ledger_.Add<&EngineStats::cache_hits>();
        CountResponse(entry->rcode, entry->wire.size());
        return ResponseCache::PatchedCopy(entry->wire, info.id, info.rd);
      }
      ledger_.Add<&EngineStats::cache_misses>();
    }
  }
  if (!plain) return HandleDecoded(wire, source, udp_limit);

  auto answer = answerer_.Respond(zones, info, limit);
  CountResponse(answer.rcode, answer.wire.size());
  if (answer.truncated) ledger_.Add<&EngineStats::truncated>();
  if (cache_ != nullptr && !answer.truncated) {
    // One copy into the entry's reused buffer.
    const uint64_t evictions = cache_->evictions();
    cache_->Insert(key, hash, answer.wire, answer.rcode);
    ledger_.Add<&EngineStats::cache_evictions>(cache_->evictions() -
                                               evictions);
    ledger_.gauge<&EngineStats::cache_size>().Set(
        static_cast<int64_t>(cache_->size()));
  }
  return Bytes(answer.wire.begin(), answer.wire.end());
}

Result<Bytes> AuthServerEngine::HandleDecoded(std::span<const uint8_t> wire,
                                              IpAddress source,
                                              size_t udp_limit) {
  auto query = dns::Message::Decode(wire);
  if (!query.ok()) {
    ledger_.Add<&EngineStats::dropped>();
    return query.error();
  }
  if (!query->questions.empty() &&
      query->questions.front().type == dns::RRType::kAXFR) {
    // AXFR needs a stream; over UDP it is refused (RFC 5936 §4.2). Stream
    // transports special-case AXFR before calling HandleWire.
    ledger_.Add<&EngineStats::queries>();
    ledger_.Add<&EngineStats::responses>();
    ledger_.Add<&EngineStats::refused>();
    dns::Message refused;
    refused.id = query->id;
    refused.qr = true;
    refused.questions = query->questions;
    refused.rcode = dns::Rcode::kRefused;
    return refused.Encode();
  }

  size_t limit = EffectiveLimit(
      udp_limit, query->edns.has_value(),
      query->edns.has_value() ? query->edns->udp_payload_size : 0);

  dns::Message response = AnswerDecoded(*query, source);
  Bytes encoded = response.Encode(limit);
  // TC is patched into the wire during truncation; detect via re-check of
  // the flags byte rather than re-decoding the whole message.
  if (encoded.size() >= 4 && (encoded[2] & 0x02)) {
    ledger_.Add<&EngineStats::truncated>();
  }
  ledger_.Add<&EngineStats::response_bytes>(encoded.size());
  return encoded;
}

}  // namespace ldp::server
