#include "trace/record.h"

namespace ldp::trace {

std::string_view ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kUdp: return "udp";
    case Protocol::kTcp: return "tcp";
    case Protocol::kTls: return "tls";
  }
  return "?";
}

Result<Protocol> ProtocolFromString(std::string_view text) {
  if (text == "udp") return Protocol::kUdp;
  if (text == "tcp") return Protocol::kTcp;
  if (text == "tls") return Protocol::kTls;
  return Error(ErrorCode::kParseError, "unknown protocol: " + std::string(text));
}

dns::Message QueryRecord::ToMessage() const {
  dns::Message msg;
  msg.id = id;
  msg.rd = rd;
  msg.cd = cd;
  msg.questions.push_back(dns::Question{qname, qtype, qclass});
  if (edns) {
    msg.edns = dns::Edns{.udp_payload_size = udp_payload_size,
                         .do_bit = do_bit};
  }
  return msg;
}

void QueryRecord::AppendWire(uint16_t id, Bytes& out) const {
  out.reserve(out.size() + 12 + qname.WireLength() + 4 + (edns ? 11 : 0));
  auto u16 = [&out](uint16_t v) {
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v & 0xff));
  };
  // Header: a standard query (opcode 0, rcode 0) with RD and CD from the
  // record; one question, and the OPT RR as the only additional.
  u16(id);
  u16(static_cast<uint16_t>((rd ? 0x0100 : 0) | (cd ? 0x0010 : 0)));
  u16(1);
  u16(0);
  u16(0);
  u16(edns ? 1 : 0);
  std::span<const uint8_t> name = qname.wire();
  out.insert(out.end(), name.begin(), name.end());
  u16(static_cast<uint16_t>(qtype));
  u16(static_cast<uint16_t>(qclass));
  if (edns) {
    // OPT (RFC 6891 §6.1.2): root owner, the payload size in the class
    // field, TTL = extended rcode 0, version 0, DO; no options.
    out.push_back(0);
    u16(static_cast<uint16_t>(dns::RRType::kOPT));
    u16(udp_payload_size);
    u16(0);
    u16(do_bit ? 0x8000 : 0);
    u16(0);
  }
}

QueryRecord QueryRecord::FromMessage(const dns::Message& message,
                                     NanoTime time, IpAddress src,
                                     uint16_t src_port, IpAddress dst,
                                     uint16_t dst_port, Protocol protocol) {
  QueryRecord record;
  record.timestamp = time;
  record.src = src;
  record.src_port = src_port;
  record.dst = dst;
  record.dst_port = dst_port;
  record.protocol = protocol;
  record.id = message.id;
  if (!message.questions.empty()) {
    record.qname = message.questions[0].name;
    record.qtype = message.questions[0].type;
    record.qclass = message.questions[0].klass;
  }
  record.rd = message.rd;
  record.cd = message.cd;
  if (message.edns.has_value()) {
    record.edns = true;
    record.udp_payload_size = message.edns->udp_payload_size;
    record.do_bit = message.edns->do_bit;
  }
  return record;
}

}  // namespace ldp::trace
