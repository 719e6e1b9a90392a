#include "trace/binary.h"

#include <fstream>

#include "common/strings.h"
#include "trace/text.h"

namespace ldp::trace {
namespace {

constexpr uint8_t kFlagRd = 0x01;
constexpr uint8_t kFlagCd = 0x02;
constexpr uint8_t kFlagDo = 0x04;
constexpr uint8_t kFlagEdns = 0x08;

void EncodePayload(const QueryRecord& record, ByteWriter& writer) {
  writer.WriteU64(static_cast<uint64_t>(record.timestamp));
  writer.WriteU32(record.src.value());
  writer.WriteU16(record.src_port);
  writer.WriteU32(record.dst.value());
  writer.WriteU16(record.dst_port);
  writer.WriteU8(static_cast<uint8_t>(record.protocol));
  writer.WriteU16(record.id);
  uint8_t flags = 0;
  if (record.rd) flags |= kFlagRd;
  if (record.cd) flags |= kFlagCd;
  if (record.do_bit) flags |= kFlagDo;
  if (record.edns) flags |= kFlagEdns;
  writer.WriteU8(flags);
  writer.WriteU16(record.udp_payload_size);
  writer.WriteU16(static_cast<uint16_t>(record.qtype));
  writer.WriteU16(static_cast<uint16_t>(record.qclass));
  dns::EncodeNameUncompressed(record.qname, writer);
}

// The fixed fields, then the qname: no valid payload is shorter than the
// fixed fields plus the root octet.
constexpr size_t kFixedBytes = 30;
constexpr size_t kMinPayload = kFixedBytes + 1;

uint64_t LoadBigEndian(const uint8_t* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v = (v << 8) | p[i];
  return v;
}

// Decodes the record at the stream's length prefix into `record`.
Status DecodeRecord(ByteReader& stream, QueryRecord& record) {
  LDP_ASSIGN_OR_RETURN(uint16_t length, stream.ReadU16());
  LDP_ASSIGN_OR_RETURN(auto payload, stream.ReadSpan(length));
  if (payload.size() < kFixedBytes) {
    return Error(ErrorCode::kTruncated, "record shorter than its fixed fields");
  }
  // Offsets follow the payload layout in binary.h.
  const uint8_t* p = payload.data();
  uint8_t protocol = p[20];
  if (protocol > static_cast<uint8_t>(Protocol::kTls)) {
    return Error(ErrorCode::kParseError, "bad protocol byte");
  }
  record.timestamp = static_cast<NanoTime>(LoadBigEndian(p, 8));
  record.src = IpAddress(static_cast<uint32_t>(LoadBigEndian(p + 8, 4)));
  record.src_port = static_cast<uint16_t>(LoadBigEndian(p + 12, 2));
  record.dst = IpAddress(static_cast<uint32_t>(LoadBigEndian(p + 14, 4)));
  record.dst_port = static_cast<uint16_t>(LoadBigEndian(p + 18, 2));
  record.protocol = static_cast<Protocol>(protocol);
  record.id = static_cast<uint16_t>(LoadBigEndian(p + 21, 2));
  uint8_t flags = p[23];
  record.rd = flags & kFlagRd;
  record.cd = flags & kFlagCd;
  record.do_bit = flags & kFlagDo;
  record.edns = flags & kFlagEdns;
  record.udp_payload_size = static_cast<uint16_t>(LoadBigEndian(p + 24, 2));
  record.qtype = static_cast<dns::RRType>(LoadBigEndian(p + 26, 2));
  record.qclass = static_cast<dns::RRClass>(LoadBigEndian(p + 28, 2));
  // The name decodes against the whole payload: a compression pointer
  // counts from the payload's first octet.
  ByteReader reader(payload);
  LDP_RETURN_IF_ERROR(reader.Seek(kFixedBytes));
  LDP_ASSIGN_OR_RETURN(record.qname, dns::DecodeName(reader));
  if (!reader.AtEnd()) {
    return Error(ErrorCode::kParseError, "trailing bytes in binary record");
  }
  return Status::Ok();
}

}  // namespace

void EncodeBinaryRecord(const QueryRecord& record, ByteWriter& writer) {
  size_t prefix = writer.size();
  writer.WriteU16(0);  // patched once the payload is written
  EncodePayload(record, writer);
  writer.PatchU16(prefix, static_cast<uint16_t>(writer.size() - prefix - 2));
}

Result<QueryRecord> DecodeBinaryRecord(ByteReader& reader) {
  QueryRecord record;
  LDP_RETURN_IF_ERROR(DecodeRecord(reader, record));
  return record;
}

Bytes EncodeBinaryTrace(const std::vector<QueryRecord>& records) {
  ByteWriter writer(records.size() * 48);
  for (const auto& record : records) EncodeBinaryRecord(record, writer);
  return std::move(writer).Take();
}

Result<std::vector<QueryRecord>> DecodeBinaryTrace(
    std::span<const uint8_t> data) {
  // One pass over the length prefixes sizes the output. It stops at the
  // first prefix too short for a record, so garbage cannot inflate the
  // reservation; the decode loop reports that record.
  size_t count = 0;
  for (size_t pos = 0; pos + 2 <= data.size(); ++count) {
    size_t length = (size_t{data[pos]} << 8) | data[pos + 1];
    if (length < kMinPayload) break;
    pos += 2 + length;
  }
  std::vector<QueryRecord> records;
  records.reserve(count);
  ByteReader reader(data);
  while (!reader.AtEnd()) {
    Status status = DecodeRecord(reader, records.emplace_back());
    if (!status.ok()) {
      return status.error().WithContext(
          "record " + std::to_string(records.size() - 1));
    }
  }
  return records;
}

Status WriteBinaryTraceFile(const std::vector<QueryRecord>& records,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error(ErrorCode::kIoError, "cannot open " + path);
  Bytes data = EncodeBinaryTrace(records);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return Error(ErrorCode::kIoError, "write failed: " + path);
  return Status::Ok();
}

Result<std::vector<QueryRecord>> ReadBinaryTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) return Error(ErrorCode::kIoError, "cannot open " + path);
  Bytes data(static_cast<size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!in) return Error(ErrorCode::kIoError, "read failed: " + path);
  return DecodeBinaryTrace(data);
}

Result<std::vector<QueryRecord>> ReadTraceFile(const std::string& path) {
  if (EndsWith(path, ".txt")) return ReadTextTraceFile(path);
  return ReadBinaryTraceFile(path);
}

}  // namespace ldp::trace
