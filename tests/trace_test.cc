#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/rng.h"
#include "trace/binary.h"
#include "trace/pcap.h"
#include "trace/text.h"
#include "trace/tracestats.h"

namespace ldp::trace {
namespace {

QueryRecord SampleRecord() {
  QueryRecord record;
  record.timestamp = Seconds(12) + 345678901;
  record.src = IpAddress(172, 16, 0, 5);
  record.src_port = 33333;
  record.dst = IpAddress(10, 0, 0, 1);
  record.dst_port = 53;
  record.protocol = Protocol::kUdp;
  record.id = 4242;
  record.qname = *dns::Name::Parse("www.example.com");
  record.qtype = dns::RRType::kAAAA;
  record.rd = true;
  record.edns = true;
  record.udp_payload_size = 4096;
  record.do_bit = true;
  return record;
}

// The decoded pool holds millions of these: the small fields pack behind
// the timestamp and the 24-byte name, protocol and flags in one byte.
TEST(QueryRecord, SmallFieldsPack) {
  EXPECT_EQ(sizeof(QueryRecord), 56u);
}

TEST(QueryRecord, ToMessageRoundTrip) {
  QueryRecord record = SampleRecord();
  dns::Message msg = record.ToMessage();
  EXPECT_EQ(msg.id, record.id);
  EXPECT_TRUE(msg.rd);
  ASSERT_TRUE(msg.edns.has_value());
  EXPECT_TRUE(msg.edns->do_bit);

  QueryRecord back = QueryRecord::FromMessage(
      msg, record.timestamp, record.src, record.src_port, record.dst,
      record.dst_port, record.protocol);
  EXPECT_EQ(back, record);
}

// The query encoder's oracle: AppendWire must write exactly what the
// general encoder makes of ToMessage() with the same ID.
Bytes OracleWire(const QueryRecord& record, uint16_t id) {
  dns::Message msg = record.ToMessage();
  msg.id = id;
  return msg.Encode();
}

void ExpectAppendWireMatches(const QueryRecord& record, uint16_t id) {
  Bytes wire = {0xaa, 0xbb};  // AppendWire appends: a prefix must survive
  record.AppendWire(id, wire);
  ASSERT_GE(wire.size(), 2u);
  EXPECT_EQ(wire[0], 0xaa);
  EXPECT_EQ(wire[1], 0xbb);
  EXPECT_EQ(Bytes(wire.begin() + 2, wire.end()), OracleWire(record, id))
      << record.qname.ToString() << " id=" << id;
}

TEST(QueryRecord, AppendWireMatchesEncodeAcrossShapes) {
  std::vector<dns::Name> names = {
      dns::Name::Root(),
      *dns::Name::Parse("www.example.com"),
      *dns::Name::Parse("WwW.ExAmPlE.CoM"),
      *dns::Name::Parse("a\\.b\\\\c.example."),
      *dns::Name::Parse("\\000\\255\\032x.example."),
      *dns::Name::FromLabels({std::string(63, 'a'), "com"}),
  };
  // 255 octets on the wire: three 63-octet labels, one of 61, the root.
  auto longest = dns::Name::FromLabels({std::string(63, 'x'),
                                        std::string(63, 'Y'),
                                        std::string(63, 'z'),
                                        std::string(61, 'w')});
  ASSERT_TRUE(longest.ok());
  ASSERT_EQ(longest->WireLength(), 255u);
  names.push_back(*longest);

  const dns::RRType types[] = {dns::RRType::kA, dns::RRType::kANY,
                               dns::RRType::kAXFR, dns::RRType::kOPT};
  const dns::RRClass classes[] = {dns::RRClass::kIN, dns::RRClass::kCH,
                                  dns::RRClass::kAny};
  struct EdnsShape {
    bool edns;
    uint16_t size;
    bool do_bit;
  };
  std::vector<EdnsShape> edns_shapes = {{false, 0, false}};
  for (uint16_t size : {0, 512, 1232, 4096, 65535}) {
    edns_shapes.push_back({true, size, false});
    edns_shapes.push_back({true, size, true});
  }
  const uint16_t ids[] = {0, 1, 0x1234, 0xffff};

  size_t cases = 0;
  for (const auto& name : names) {
    for (dns::RRType type : types) {
      for (dns::RRClass klass : classes) {
        for (const auto& shape : edns_shapes) {
          for (int flags = 0; flags < 4; ++flags) {
            QueryRecord record;
            record.qname = name;
            record.qtype = type;
            record.qclass = klass;
            record.rd = flags & 1;
            record.cd = flags & 2;
            record.edns = shape.edns;
            record.udp_payload_size = shape.size;
            record.do_bit = shape.do_bit;
            for (uint16_t id : ids) {
              ExpectAppendWireMatches(record, id);
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 7u * 4 * 3 * 11 * 4 * 4);
}

TEST(QueryRecord, AppendWireIgnoresTheRecordsOwnId) {
  // The ID comes from the caller (the querier's allocator), never from
  // the captured query; the rest is the record's.
  QueryRecord record = SampleRecord();
  Bytes wire;
  record.AppendWire(0xbeef, wire);
  auto decoded = dns::Message::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->id, 0xbeef);
  EXPECT_EQ(QueryRecord::FromMessage(*decoded, record.timestamp, record.src,
                                     record.src_port, record.dst,
                                     record.dst_port, record.protocol)
                .qname,
            record.qname);
  ExpectAppendWireMatches(record, record.id);
}

// The protocol and the four flags share one byte of bit-fields: every
// combination must survive both trace formats and reach the wire intact.
TEST(QueryRecord, PackedFieldsRoundTripEveryCombination) {
  size_t cases = 0;
  for (Protocol protocol : {Protocol::kUdp, Protocol::kTcp, Protocol::kTls}) {
    for (int flags = 0; flags < 16; ++flags) {
      QueryRecord record = SampleRecord();
      record.protocol = protocol;
      record.rd = flags & 1;
      record.cd = flags & 2;
      record.edns = flags & 4;
      record.do_bit = flags & 8;
      record.udp_payload_size = record.edns ? 1232 : 0;
      ASSERT_EQ(record.protocol, protocol);
      ASSERT_EQ(record.rd, (flags & 1) != 0);
      ASSERT_EQ(record.cd, (flags & 2) != 0);
      ASSERT_EQ(record.edns, (flags & 4) != 0);
      ASSERT_EQ(record.do_bit, (flags & 8) != 0);

      ByteWriter writer;
      EncodeBinaryRecord(record, writer);
      ByteReader reader(writer.data());
      auto binary = DecodeBinaryRecord(reader);
      ASSERT_TRUE(binary.ok()) << binary.error().ToString();
      EXPECT_EQ(*binary, record) << "flags=" << flags;

      // The text format writes DO only as a flag beside an EDNS size, so
      // DO without EDNS comes back with EDNS at the default 4096.
      auto text = ParseQueryLine(FormatQueryLine(record));
      ASSERT_TRUE(text.ok()) << text.error().ToString();
      QueryRecord expected = record;
      if (record.do_bit && !record.edns) {
        expected.edns = true;
        expected.udp_payload_size = 4096;
      }
      EXPECT_EQ(*text, expected) << "flags=" << flags;

      ExpectAppendWireMatches(record, 0x5151);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 3u * 16);
}

TEST(TextFormat, LineRoundTrip) {
  QueryRecord record = SampleRecord();
  std::string line = FormatQueryLine(record);
  auto parsed = ParseQueryLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString() << "\n" << line;
  EXPECT_EQ(*parsed, record);
}

TEST(TextFormat, MinimalQuery) {
  QueryRecord record;
  record.qname = *dns::Name::Parse("a.b");
  std::string line = FormatQueryLine(record);
  auto parsed = ParseQueryLine(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(*parsed, record);
}

TEST(TextFormat, ParseRejectsBadLines) {
  EXPECT_FALSE(ParseQueryLine("").ok());
  EXPECT_FALSE(ParseQueryLine("only three fields here").ok());
  EXPECT_FALSE(ParseQueryLine("1.0 1.2.3.4:5 6.7.8.9:53 udp a.b IN A 70000 - 0")
                   .ok());  // id out of range
  EXPECT_FALSE(
      ParseQueryLine("1.0 1.2.3.4:5 6.7.8.9:53 xyz a.b IN A 1 - 0").ok());
  EXPECT_FALSE(
      ParseQueryLine("1.0 1.2.3.4:5 6.7.8.9:53 udp a.b IN A 1 zz 0").ok());
}

TEST(TextFormat, FileRoundTrip) {
  std::vector<QueryRecord> records;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    QueryRecord r = SampleRecord();
    r.timestamp = Millis(i * 17);
    r.id = static_cast<uint16_t>(rng.NextU64());
    r.protocol = static_cast<Protocol>(rng.NextBelow(3));
    records.push_back(r);
  }
  std::ostringstream out;
  ASSERT_TRUE(WriteTextTrace(records, out).ok());
  std::istringstream in(out.str());
  auto back = ReadTextTrace(in);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(*back, records);
}

TEST(BinaryFormat, RecordRoundTrip) {
  QueryRecord record = SampleRecord();
  ByteWriter writer;
  EncodeBinaryRecord(record, writer);
  ByteReader reader(writer.data());
  auto back = DecodeBinaryRecord(reader);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(*back, record);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryFormat, TraceRoundTrip) {
  std::vector<QueryRecord> records(100, SampleRecord());
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].timestamp = static_cast<NanoTime>(i) * Millis(1);
    records[i].id = static_cast<uint16_t>(i);
  }
  Bytes encoded = EncodeBinaryTrace(records);
  auto back = DecodeBinaryTrace(encoded);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, records);
}

TEST(BinaryFormat, DecodeRejectsCorruptStream) {
  QueryRecord record = SampleRecord();
  ByteWriter writer;
  EncodeBinaryRecord(record, writer);
  Bytes data = writer.data();
  data.resize(data.size() - 3);  // truncate payload
  EXPECT_FALSE(DecodeBinaryTrace(data).ok());
}

// The payload of `record` as EncodeBinaryRecord writes it (no prefix).
// Its qname starts at kQnameOffset, after the fixed fields; the protocol
// byte sits at kProtocolOffset.
constexpr size_t kProtocolOffset = 20;
constexpr size_t kQnameOffset = 30;

Bytes Payload(const QueryRecord& record) {
  ByteWriter writer;
  EncodeBinaryRecord(record, writer);
  return Bytes(writer.data().begin() + 2, writer.data().end());
}

// Two good records, then `payload` behind a prefix claiming `length`.
Bytes StreamWithThird(const Bytes& payload, size_t length) {
  std::vector<QueryRecord> good(2, SampleRecord());
  Bytes stream = EncodeBinaryTrace(good);
  stream.push_back(static_cast<uint8_t>(length >> 8));
  stream.push_back(static_cast<uint8_t>(length & 0xff));
  stream.insert(stream.end(), payload.begin(), payload.end());
  return stream;
}

void ExpectRejectsThird(const Bytes& stream, const std::string& why) {
  auto decoded = DecodeBinaryTrace(stream);
  ASSERT_FALSE(decoded.ok()) << why;
  EXPECT_NE(decoded.error().message().find("record 2"), std::string::npos)
      << why << ": " << decoded.error().ToString();
}

// A payload whose qname is replaced by `qname_wire`.
Bytes WithQname(const Bytes& qname_wire) {
  Bytes payload = Payload(SampleRecord());
  payload.resize(kQnameOffset);
  payload.insert(payload.end(), qname_wire.begin(), qname_wire.end());
  return payload;
}

TEST(BinaryFormat, DecodeRejectsEachCorruptionWithTheRecordIndex) {
  Bytes good = Payload(SampleRecord());

  std::vector<QueryRecord> two(2, SampleRecord());
  Bytes half_prefix = EncodeBinaryTrace(two);
  half_prefix.push_back(0x00);
  ExpectRejectsThird(half_prefix, "truncated length prefix");

  ExpectRejectsThird(StreamWithThird(good, good.size() + 5),
                     "truncated payload");

  Bytes bad_protocol = good;
  bad_protocol[kProtocolOffset] = 3;
  ExpectRejectsThird(StreamWithThird(bad_protocol, bad_protocol.size()),
                     "bad protocol byte");

  for (uint8_t label_type : {0x40, 0x80}) {
    Bytes reserved = WithQname({label_type, 'a', 0});
    ExpectRejectsThird(StreamWithThird(reserved, reserved.size()),
                       "reserved label type " + std::to_string(label_type));
  }

  // A pointer to an offset after itself, inside the payload.
  Bytes forward = WithQname({0xc0, kQnameOffset + 3, 0, 1, 'a', 0});
  ExpectRejectsThird(StreamWithThird(forward, forward.size()),
                     "forward compression pointer");

  // Three 63-octet labels and one of 62: 256 octets with the root.
  Bytes long_name;
  for (size_t len : {63, 63, 63, 62}) {
    long_name.push_back(static_cast<uint8_t>(len));
    long_name.insert(long_name.end(), len, 'x');
  }
  long_name.push_back(0);
  Bytes too_long = WithQname(long_name);
  ExpectRejectsThird(StreamWithThird(too_long, too_long.size()),
                     "name over 255 octets");

  Bytes trailing = good;
  trailing.push_back(0);
  ExpectRejectsThird(StreamWithThird(trailing, trailing.size()),
                     "trailing bytes");
}

TEST(BinaryFormat, DecodeRoundTripsNameShapesWithCasePreserved) {
  std::vector<dns::Name> names = {
      dns::Name::Root(),
      *dns::Name::FromLabels({std::string(63, 'a'), std::string(63, 'B')}),
      // 255 octets on the wire: three 63-octet labels, one of 61, the root.
      *dns::Name::FromLabels({std::string(63, 'x'), std::string(63, 'Y'),
                              std::string(63, 'z'), std::string(61, 'w')}),
      *dns::Name::Parse("WwW.ExAmPlE.CoM"),
      *dns::Name::Parse("MiXeD\\.dot\\000.Example."),
  };
  std::vector<QueryRecord> records;
  for (const auto& name : names) {
    QueryRecord record = SampleRecord();
    record.qname = name;
    records.push_back(record);
  }
  auto back = DecodeBinaryTrace(EncodeBinaryTrace(records));
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  ASSERT_EQ(back->size(), records.size());
  EXPECT_EQ(*back, records);
  for (size_t i = 0; i < records.size(); ++i) {
    // == folds case; the text and the wire octets do not.
    EXPECT_EQ((*back)[i].qname.ToString(), names[i].ToString());
    auto wire = (*back)[i].qname.wire();
    EXPECT_EQ(Bytes(wire.begin(), wire.end()),
              Bytes(names[i].wire().begin(), names[i].wire().end()));
  }
  EXPECT_EQ((*back)[2].qname.WireLength(), 255u);
}

// The binary trace format is a file format: these bytes must not change.
TEST(BinaryFormat, GoldenBytes) {
  QueryRecord tcp;
  tcp.timestamp = 1;
  tcp.src = IpAddress(192, 0, 2, 1);
  tcp.src_port = 1053;
  tcp.dst = IpAddress(198, 51, 100, 7);
  tcp.protocol = Protocol::kTcp;
  tcp.id = 0xbeef;
  tcp.qtype = dns::RRType::kNS;
  QueryRecord tls = SampleRecord();
  tls.protocol = Protocol::kTls;
  tls.qname = *dns::Name::Parse("Ab.c");
  tls.cd = true;
  tls.qclass = dns::RRClass::kCH;
  Bytes encoded = EncodeBinaryTrace({SampleRecord(), tcp, tls});
  EXPECT_EQ(HexDump(encoded),
            "00 2f 00 00 00 02 df dc 1c 35 ac 10 00 05 82 35 "
            "0a 00 00 01 00 35 00 10 92 0d 10 00 00 1c 00 01 "
            "03 77 77 77 07 65 78 61 6d 70 6c 65 03 63 6f 6d "
            "00 00 1f 00 00 00 00 00 00 00 01 c0 00 02 01 04 "
            "1d c6 33 64 07 00 35 01 be ef 00 00 00 00 02 00 "
            "01 00 00 24 00 00 00 02 df dc 1c 35 ac 10 00 05 "
            "82 35 0a 00 00 01 00 35 02 10 92 0f 10 00 00 1c "
            "00 03 02 41 62 01 63 00");
}

TEST(BinaryFormat, FileStreaming) {
  std::vector<QueryRecord> records(10, SampleRecord());
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<uint16_t>(i);
  }
  std::string path = ::testing::TempDir() + "/ldp_binary_trace_test.bin";
  ASSERT_TRUE(WriteBinaryTraceFile(records, path).ok());

  auto loaded = ReadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_EQ(*loaded, records);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadTraceFile(path).ok());
}

TEST(Pcap, UdpRoundTrip) {
  QueryRecord record = SampleRecord();
  dns::Message query = record.ToMessage();
  PacketRecord packet = MessageToPacket(
      query, record.timestamp, record.src, record.src_port, record.dst,
      record.dst_port, Protocol::kUdp);

  Bytes file = WritePcap({packet});
  auto parsed = ReadPcap(file);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  const PacketRecord& got = (*parsed)[0];
  EXPECT_EQ(got.src, packet.src);
  EXPECT_EQ(got.dst, packet.dst);
  EXPECT_EQ(got.src_port, packet.src_port);
  EXPECT_EQ(got.protocol, Protocol::kUdp);
  // Timestamps survive at microsecond granularity.
  EXPECT_NEAR(static_cast<double>(got.timestamp),
              static_cast<double>(packet.timestamp), 1000.0);

  auto back = PacketToQuery(got);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back->qname, record.qname);
  EXPECT_EQ(back->qtype, record.qtype);
  EXPECT_EQ(back->do_bit, record.do_bit);
}

TEST(Pcap, TcpRoundTrip) {
  QueryRecord record = SampleRecord();
  record.protocol = Protocol::kTcp;
  PacketRecord packet = MessageToPacket(
      record.ToMessage(), record.timestamp, record.src, record.src_port,
      record.dst, record.dst_port, Protocol::kTcp);
  Bytes file = WritePcap({packet});
  auto parsed = ReadPcap(file);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].protocol, Protocol::kTcp);
  auto query = PacketToQuery((*parsed)[0]);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->qname, record.qname);
}

TEST(Pcap, ResponseMessageExtraction) {
  dns::Message response;
  response.qr = true;
  response.id = 7;
  response.answers.push_back(dns::ResourceRecord{
      *dns::Name::Parse("x.test"), dns::RRType::kA, dns::RRClass::kIN, 60,
      dns::ARdata{IpAddress(1, 2, 3, 4)}});
  PacketRecord packet =
      MessageToPacket(response, 0, IpAddress(9, 9, 9, 9), 53,
                      IpAddress(10, 0, 0, 2), 5555, Protocol::kUdp);
  auto message = PacketToMessage(packet);
  ASSERT_TRUE(message.ok());
  EXPECT_TRUE(message->qr);
  ASSERT_EQ(message->answers.size(), 1u);
  // A response must not parse as a query.
  EXPECT_FALSE(PacketToQuery(packet).ok());
}

TEST(Pcap, RejectsGarbage) {
  Bytes garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(ReadPcap(garbage).ok());
}

TEST(TraceStats, ComputesTableOneColumns) {
  std::vector<QueryRecord> records;
  for (int i = 0; i < 100; ++i) {
    QueryRecord r = SampleRecord();
    r.timestamp = static_cast<NanoTime>(i) * Millis(10);  // 10ms apart
    r.src = IpAddress(172, 16, 0, static_cast<uint8_t>(i % 10));
    r.do_bit = i % 2 == 0;
    r.protocol = i % 25 == 0 ? Protocol::kTcp : Protocol::kUdp;
    records.push_back(r);
  }
  TraceStats stats = ComputeTraceStats(records);
  EXPECT_EQ(stats.records, 100u);
  EXPECT_EQ(stats.unique_clients, 10u);
  EXPECT_NEAR(stats.interarrival_mean_s, 0.010, 1e-9);
  EXPECT_NEAR(stats.interarrival_stddev_s, 0.0, 1e-9);
  EXPECT_NEAR(stats.fraction_do, 0.5, 1e-9);
  EXPECT_NEAR(stats.fraction_tcp, 0.04, 1e-9);
  EXPECT_EQ(stats.duration, Millis(990));
}

TEST(TraceStats, EmptyAndSingle) {
  EXPECT_EQ(ComputeTraceStats({}).records, 0u);
  TraceStats one = ComputeTraceStats({SampleRecord()});
  EXPECT_EQ(one.records, 1u);
  EXPECT_EQ(one.unique_clients, 1u);
  EXPECT_EQ(one.duration, 0);
}

}  // namespace
}  // namespace ldp::trace
