// Trace records: the replayable essence of one captured DNS query (paper
// Fig 3). A QueryRecord carries timing, addressing, transport, and the
// question — everything the query engine needs to rebuild and schedule the
// query — while PacketRecord (packet.h) keeps raw payloads for the zone
// constructor, which needs full responses.
#ifndef LDPLAYER_TRACE_RECORD_H
#define LDPLAYER_TRACE_RECORD_H

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ip.h"
#include "common/result.h"
#include "dns/message.h"

namespace ldp::trace {

enum class Protocol : uint8_t { kUdp = 0, kTcp = 1, kTls = 2 };

std::string_view ProtocolName(Protocol protocol);
Result<Protocol> ProtocolFromString(std::string_view text);

struct QueryRecord {
  // Field order packs the small fields behind the 24-byte name, and the
  // protocol and the four flags share one byte of bit-fields: 56 bytes. A
  // decoded trace holds one record per query, so each byte here is ~137 MB
  // on a 137M-record trace.
  NanoTime timestamp = 0;  // nanoseconds since trace epoch
  dns::Name qname;
  IpAddress src;
  IpAddress dst;           // original query destination address (OQDA)
  uint16_t src_port = 0;
  uint16_t dst_port = 53;
  uint16_t id = 0;
  dns::RRType qtype = dns::RRType::kA;
  dns::RRClass qclass = dns::RRClass::kIN;
  uint16_t udp_payload_size = 0;
  Protocol protocol : 2 = Protocol::kUdp;
  bool rd : 1 = false;
  bool cd : 1 = false;
  bool edns : 1 = false;
  bool do_bit : 1 = false;

  bool operator==(const QueryRecord&) const = default;

  // Builds the wire-ready DNS query message this record describes.
  dns::Message ToMessage() const;

  // Appends this record's query, with message ID `id`, to `out`: the
  // header, the qname uncompressed (a lone question has nothing to
  // compress against), qtype, qclass and, with EDNS, the OPT RR. The bytes
  // are exactly those of ToMessage() with `id`, then Encode(); every
  // record-to-wire site uses this instead, as it builds no dns::Message.
  void AppendWire(uint16_t id, Bytes& out) const;

  // Extracts a record from a decoded query message plus transport metadata.
  static QueryRecord FromMessage(const dns::Message& message, NanoTime time,
                                 IpAddress src, uint16_t src_port,
                                 IpAddress dst, uint16_t dst_port,
                                 Protocol protocol);
};

static_assert(sizeof(QueryRecord) == 56);

}  // namespace ldp::trace

#endif  // LDPLAYER_TRACE_RECORD_H
