// Length-prefixed binary stream of internal query messages (paper §2.5,
// Fig 3): the pre-processed replay input format. Each record is
//
//   u16 length | payload
//
// with a fixed-layout payload (big-endian): i64 timestamp-ns, u32 src, u16
// sport, u32 dst, u16 dport, u8 protocol, u16 id, u8 flags(rd|cd|do|edns),
// u16 edns-size, u16 qtype, u16 qclass, qname (uncompressed wire form).
// The length prefix lets the reader split records without parsing, exactly
// like DNS-over-TCP framing.
#ifndef LDPLAYER_TRACE_BINARY_H
#define LDPLAYER_TRACE_BINARY_H

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "trace/record.h"

namespace ldp::trace {

// Encodes one record (with its length prefix) onto the writer.
void EncodeBinaryRecord(const QueryRecord& record, ByteWriter& writer);

// Decodes one record from the reader positioned at a length prefix.
Result<QueryRecord> DecodeBinaryRecord(ByteReader& reader);

// Whole-buffer helpers.
Bytes EncodeBinaryTrace(const std::vector<QueryRecord>& records);
Result<std::vector<QueryRecord>> DecodeBinaryTrace(
    std::span<const uint8_t> data);

// Whole-file I/O. A binary trace is read in one read and decoded by
// DecodeBinaryTrace.
Status WriteBinaryTraceFile(const std::vector<QueryRecord>& records,
                            const std::string& path);
Result<std::vector<QueryRecord>> ReadBinaryTraceFile(const std::string& path);

// Loads a replay input: the text format (trace/text.h) when `path` ends in
// ".txt", the binary stream otherwise.
Result<std::vector<QueryRecord>> ReadTraceFile(const std::string& path);

}  // namespace ldp::trace

#endif  // LDPLAYER_TRACE_BINARY_H
