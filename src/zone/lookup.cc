#include "zone/lookup.h"

#include <algorithm>
#include <unordered_set>

namespace ldp::zone {
namespace {

// The suffix of `name` keeping its last `labels` labels.
dns::Name Suffix(const dns::Name& name, size_t labels) {
  std::span<const uint8_t> wire = name.wire();
  size_t pos = 0;
  for (size_t skip = name.label_count() - labels; skip > 0; --skip) {
    pos += 1 + wire[pos];
  }
  return *dns::Name::FromWire(wire.subspan(pos));  // a tail of a valid name
}

// Copies an RRset with a replaced owner name (wildcard synthesis).
dns::RRset WithOwner(const dns::RRset& rrset, const dns::Name& owner) {
  dns::RRset out = rrset;
  out.name = owner;
  return out;
}

// Glue: A/AAAA records for each NS target found inside this zone.
void CollectGlue(const Zone& zone, const dns::RRset& ns_rrset,
                 std::vector<dns::RRset>& additional) {
  for (const auto& rdata : ns_rrset.rdatas) {
    const auto* ns = std::get_if<dns::NsRdata>(&rdata);
    if (ns == nullptr) continue;
    if (!ns->nsdname.IsSubdomainOf(zone.origin())) continue;
    for (dns::RRType type : {dns::RRType::kA, dns::RRType::kAAAA}) {
      const dns::RRset* glue = zone.FindRRset(ns->nsdname, type);
      if (glue != nullptr) additional.push_back(*glue);
    }
  }
}

}  // namespace

LookupResult Lookup(const Zone& zone, const dns::Name& qname,
                    dns::RRType qtype) {
  LookupResult result;
  if (!qname.IsSubdomainOf(zone.origin())) {
    result.outcome = LookupOutcome::kNotInZone;
    return result;
  }

  // 1. Referral check: the highest zone cut on the path from the apex to
  // qname wins. A cut at qname itself still answers DS from this side of
  // the cut (the parent holds DS, RFC 4035 §3.1.4.1).
  size_t origin_labels = zone.origin().label_count();
  size_t qname_labels = qname.label_count();
  for (size_t i = origin_labels + 1; i <= qname_labels; ++i) {
    dns::Name candidate = Suffix(qname, i);
    const dns::RRset* ns = zone.FindRRset(candidate, dns::RRType::kNS);
    if (ns == nullptr) continue;
    if (candidate == qname && qtype == dns::RRType::kDS) break;
    result.outcome = LookupOutcome::kDelegation;
    result.authority.push_back(*ns);
    const dns::RRset* ds = zone.FindRRset(candidate, dns::RRType::kDS);
    if (ds != nullptr) result.authority.push_back(*ds);
    CollectGlue(zone, *ns, result.additional);
    return result;
  }

  // 2. Exact match / CNAME chain. The chase loop re-enters for in-zone
  // CNAME targets; a visited set guards against rdata loops.
  dns::Name current = qname;
  std::unordered_set<dns::Name> visited;
  bool synthesized_any = false;
  while (true) {
    if (!visited.insert(current).second) break;  // CNAME loop: stop chasing

    bool node_exists = zone.HasNode(current);
    const dns::RRset* node_src = nullptr;
    dns::RRset synthesized;  // wildcard-expanded copy, when applicable

    if (!node_exists) {
      // 3. Wildcard: only if `current` is not an empty non-terminal and a
      // "*.<closest-enclosing-existing-name>" node exists (RFC 4592).
      if (zone.IsEmptyNonTerminal(current)) {
        result.outcome = LookupOutcome::kNoData;
        break;
      }
      // Find the closest encloser by walking up.
      dns::Name encloser = current;
      bool found_wildcard = false;
      while (encloser.label_count() > zone.origin().label_count()) {
        auto parent = encloser.Parent();
        encloser = *parent;
        if (zone.HasNode(encloser) || zone.IsEmptyNonTerminal(encloser)) {
          auto wc = encloser.Child("*");
          if (wc.ok() && zone.HasNode(*wc)) {
            // Wildcard applies only if nothing exists between qname and
            // the encloser (guaranteed: we stopped at the closest one).
            found_wildcard = true;
            // Reuse the wildcard node below via `wc_name`.
            encloser = *wc;
          }
          break;
        }
      }
      if (!found_wildcard) {
        result.outcome = LookupOutcome::kNxDomain;
        break;  // fall through to attach the SOA for negative caching
      }
      // CNAME at the wildcard?
      const dns::RRset* wc_cname =
          zone.FindRRset(encloser, dns::RRType::kCNAME);
      if (wc_cname != nullptr && qtype != dns::RRType::kCNAME &&
          qtype != dns::RRType::kANY) {
        result.answers.push_back(WithOwner(*wc_cname, current));
        result.wildcard = true;
        synthesized_any = true;
        const auto& target =
            std::get<dns::CnameRdata>(wc_cname->rdatas.front()).target;
        if (!target.IsSubdomainOf(zone.origin())) {
          result.outcome = LookupOutcome::kCname;
          return result;
        }
        current = target;
        continue;
      }
      node_src = zone.FindRRset(encloser, qtype);
      if (node_src == nullptr) {
        result.outcome = LookupOutcome::kNoData;
        result.wildcard = true;
        break;
      }
      synthesized = WithOwner(*node_src, current);
      result.answers.push_back(synthesized);
      result.wildcard = true;
      result.outcome =
          synthesized_any ? LookupOutcome::kCname : LookupOutcome::kAnswer;
      return result;
    }

    // Node exists. CNAME first (unless the query asks for the CNAME).
    const dns::RRset* cname = zone.FindRRset(current, dns::RRType::kCNAME);
    if (cname != nullptr && qtype != dns::RRType::kCNAME &&
        qtype != dns::RRType::kANY) {
      result.answers.push_back(*cname);
      synthesized_any = true;
      const auto& target =
          std::get<dns::CnameRdata>(cname->rdatas.front()).target;
      if (!target.IsSubdomainOf(zone.origin())) {
        result.outcome = LookupOutcome::kCname;
        return result;
      }
      current = target;
      continue;
    }

    if (qtype == dns::RRType::kANY) {
      for (const auto* rrset : zone.FindNode(current)) {
        result.answers.push_back(*rrset);
      }
      result.outcome = result.answers.empty() ? LookupOutcome::kNoData
                                              : LookupOutcome::kAnswer;
      if (result.outcome == LookupOutcome::kNoData) break;
      return result;
    }

    const dns::RRset* match = zone.FindRRset(current, qtype);
    if (match != nullptr) {
      result.answers.push_back(*match);
      result.outcome =
          synthesized_any ? LookupOutcome::kCname : LookupOutcome::kAnswer;
      return result;
    }
    result.outcome = LookupOutcome::kNoData;
    break;
  }

  // Negative answer: attach the SOA for caching (RFC 2308).
  if (synthesized_any) {
    // A chase that dead-ends inside the zone is still a CNAME response;
    // the negative part applies to the final target.
    result.outcome = LookupOutcome::kCname;
  }
  const dns::RRset* soa = zone.Soa();
  if (soa != nullptr) result.authority.push_back(*soa);
  return result;
}

namespace {

// Returns a copy of the RRSIG RRset at `name` narrowed to signatures
// covering `covered`, or an empty optional when none exist.
std::optional<dns::RRset> RrsigsCovering(const Zone& zone,
                                         const dns::Name& name,
                                         dns::RRType covered) {
  const dns::RRset* sigs = zone.FindRRset(name, dns::RRType::kRRSIG);
  if (sigs == nullptr) return std::nullopt;
  dns::RRset out;
  out.name = name;
  out.type = dns::RRType::kRRSIG;
  out.klass = sigs->klass;
  out.ttl = sigs->ttl;
  for (const auto& rdata : sigs->rdatas) {
    const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
    if (sig != nullptr && sig->type_covered == covered) {
      out.rdatas.push_back(rdata);
    }
  }
  if (out.rdatas.empty()) return std::nullopt;
  return out;
}

// Finds the NSEC record whose owner-to-next span covers `qname` (the zone
// must be signed and `qname` must sort inside the zone).
std::optional<dns::RRset> CoveringNsec(const Zone& zone,
                                       const dns::Name& qname) {
  const dns::RRset* nsec =
      zone.FindPredecessorWithType(qname, dns::RRType::kNSEC);
  if (nsec == nullptr) return std::nullopt;
  return *nsec;
}

void AppendRRset(const dns::RRset& rrset,
                 std::vector<dns::ResourceRecord>& section) {
  for (auto& record : rrset.ToRecords()) section.push_back(std::move(record));
}

// Appends rrset (+ covering RRSIGs when signing data exists and DNSSEC was
// requested). For wildcard-synthesized rrsets the signatures live at the
// wildcard owner; we look them up at both owners.
void AppendWithSigs(const Zone& zone, const dns::RRset& rrset,
                    bool include_dnssec,
                    std::vector<dns::ResourceRecord>& section) {
  AppendRRset(rrset, section);
  if (!include_dnssec || rrset.type == dns::RRType::kRRSIG) return;
  auto sigs = RrsigsCovering(zone, rrset.name, rrset.type);
  if (!sigs.has_value()) {
    // Wildcard synthesis: signatures are stored at the wildcard owner.
    auto wc = rrset.name.AsWildcardSibling();
    if (wc.ok()) {
      sigs = RrsigsCovering(zone, *wc, rrset.type);
      if (sigs.has_value()) sigs->name = rrset.name;
    }
  }
  if (sigs.has_value()) AppendRRset(*sigs, section);
}

}  // namespace

dns::Message BuildResponse(const Zone& zone, const dns::Message& query,
                           bool include_dnssec) {
  dns::Message response;
  response.id = query.id;
  response.qr = true;
  response.opcode = query.opcode;
  response.rd = query.rd;
  response.questions = query.questions;
  if (query.edns.has_value()) {
    response.edns = dns::Edns{.udp_payload_size = 4096,
                              .do_bit = query.edns->do_bit};
  }

  if (query.opcode != dns::Opcode::kQuery || query.questions.empty()) {
    response.rcode = dns::Rcode::kNotImp;
    return response;
  }
  const dns::Question& q = query.questions.front();

  LookupResult result = Lookup(zone, q.name, q.type);
  switch (result.outcome) {
    case LookupOutcome::kNotInZone:
      response.rcode = dns::Rcode::kRefused;
      return response;
    case LookupOutcome::kNxDomain:
      response.rcode = dns::Rcode::kNxDomain;
      response.aa = true;
      break;
    case LookupOutcome::kDelegation:
      response.aa = false;
      break;
    default:
      response.aa = true;
      break;
  }

  for (const auto& rrset : result.answers) {
    AppendWithSigs(zone, rrset, include_dnssec, response.answers);
  }
  for (const auto& rrset : result.authority) {
    // Referral NS sets are not signed (they live on the parent side of the
    // cut); everything else in the authority section is.
    bool sign = include_dnssec &&
                !(result.outcome == LookupOutcome::kDelegation &&
                  rrset.type == dns::RRType::kNS);
    AppendWithSigs(zone, rrset, sign, response.authorities);
  }
  for (const auto& rrset : result.additional) {
    AppendWithSigs(zone, rrset, include_dnssec, response.additionals);
  }

  // DNSSEC denial of existence: covering NSEC records for negative answers
  // and for wildcard expansions (RFC 4035 §3.1.3).
  if (include_dnssec &&
      (result.outcome == LookupOutcome::kNxDomain ||
       result.outcome == LookupOutcome::kNoData || result.wildcard)) {
    auto nsec = CoveringNsec(zone, q.name);
    if (nsec.has_value()) {
      AppendWithSigs(zone, *nsec, true, response.authorities);
    }
    if (result.outcome == LookupOutcome::kNxDomain) {
      // Also deny the wildcard at the apex (simplified: one extra NSEC,
      // matching the two-to-three NSEC shape of real root responses).
      auto wc = zone.origin().Child("*");
      if (wc.ok()) {
        auto wc_nsec = CoveringNsec(zone, *wc);
        if (wc_nsec.has_value() && nsec.has_value() &&
            !(wc_nsec->name == nsec->name)) {
          AppendWithSigs(zone, *wc_nsec, true, response.authorities);
        }
      }
    }
  }

  // Additional-section processing: addresses for NS/MX/SRV targets named in
  // answer/authority (RFC 1034 §4.3.2 step 6), skipping duplicates.
  auto add_target_addresses = [&](const dns::Name& target) {
    for (dns::RRType type : {dns::RRType::kA, dns::RRType::kAAAA}) {
      const dns::RRset* addr = zone.FindRRset(target, type);
      if (addr == nullptr) continue;
      bool already = false;
      for (const auto& rr : response.additionals) {
        if (rr.name == target && rr.type == type) {
          already = true;
          break;
        }
      }
      if (!already) AppendWithSigs(zone, *addr, include_dnssec,
                                   response.additionals);
    }
  };
  for (const auto& rr : response.answers) {
    if (const auto* ns = std::get_if<dns::NsRdata>(&rr.rdata)) {
      add_target_addresses(ns->nsdname);
    } else if (const auto* mx = std::get_if<dns::MxRdata>(&rr.rdata)) {
      add_target_addresses(mx->exchange);
    } else if (const auto* srv = std::get_if<dns::SrvRdata>(&rr.rdata)) {
      add_target_addresses(srv->target);
    }
  }

  return response;
}

}  // namespace ldp::zone
