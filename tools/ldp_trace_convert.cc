// ldp-trace-convert: convert DNS query traces between the three formats of
// paper Figure 3 — pcap (network capture), column text (editable), and the
// length-prefixed binary replay input.
//
//   ldp_trace_convert --in queries.pcap --out queries.txt
//   ldp_trace_convert --in queries.txt  --out queries.bin
//   ldp_trace_convert --in queries.bin  --out queries.pcap
//
// Formats are inferred from file extensions (.pcap/.txt/.bin) or forced
// with --in-format/--out-format.
#include <cstdio>

#include "common/flags.h"
#include "common/strings.h"
#include "trace/binary.h"
#include "trace/pcap.h"
#include "trace/text.h"

using namespace ldp;

namespace {

constexpr const char* kUsage = R"(usage: ldp_trace_convert --in FILE --out FILE
      [--in-format pcap|text|binary] [--out-format pcap|text|binary]
      [--limit N]
Converts DNS query traces between capture, editable-text, and replay-binary
formats. Response packets in pcap inputs are skipped.)";

std::string InferFormat(const std::string& path, const std::string& forced) {
  if (!forced.empty()) return forced;
  if (EndsWith(path, ".pcap")) return "pcap";
  if (EndsWith(path, ".txt") || EndsWith(path, ".text")) return "text";
  if (EndsWith(path, ".bin")) return "binary";
  return "";
}

Result<std::vector<trace::QueryRecord>> Load(const std::string& path,
                                             const std::string& format) {
  if (format == "text") return trace::ReadTextTraceFile(path);
  if (format == "binary") return trace::ReadBinaryTraceFile(path);
  if (format == "pcap") {
    LDP_ASSIGN_OR_RETURN(auto packets, trace::ReadPcapFile(path));
    std::vector<trace::QueryRecord> records;
    size_t skipped = 0;
    for (const auto& packet : packets) {
      auto query = trace::PacketToQuery(packet);
      if (query.ok()) {
        records.push_back(std::move(*query));
      } else {
        ++skipped;
      }
    }
    if (skipped > 0) {
      std::fprintf(stderr, "skipped %zu non-query packets\n", skipped);
    }
    return records;
  }
  return Error(ErrorCode::kInvalidArgument, "unknown format: " + format);
}

Status Save(const std::vector<trace::QueryRecord>& records,
            const std::string& path, const std::string& format) {
  if (format == "text") return trace::WriteTextTraceFile(records, path);
  if (format == "binary") return trace::WriteBinaryTraceFile(records, path);
  if (format == "pcap") {
    std::vector<trace::PacketRecord> packets;
    packets.reserve(records.size());
    for (const auto& record : records) {
      packets.push_back(trace::MessageToPacket(
          record.ToMessage(), record.timestamp, record.src, record.src_port,
          record.dst, record.dst_port, record.protocol));
    }
    return trace::WritePcapFile(packets, path);
  }
  return Error(ErrorCode::kInvalidArgument, "unknown format: " + format);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().ToString().c_str());
    return 2;
  }
  if (auto s = flags->RequireKnown(
          {"in", "out", "in-format", "out-format", "limit", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  if (flags->GetBool("help", false) || !flags->Has("in") ||
      !flags->Has("out")) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  std::string in_path = flags->GetString("in", "");
  std::string out_path = flags->GetString("out", "");
  std::string in_format =
      InferFormat(in_path, flags->GetString("in-format", ""));
  std::string out_format =
      InferFormat(out_path, flags->GetString("out-format", ""));
  if (in_format.empty() || out_format.empty()) {
    std::fprintf(stderr, "cannot infer format; use --in-format/--out-format\n");
    return 2;
  }

  auto records = Load(in_path, in_format);
  if (!records.ok()) {
    std::fprintf(stderr, "read %s: %s\n", in_path.c_str(),
                 records.error().ToString().c_str());
    return 1;
  }
  auto limit = flags->GetInt("limit", 0);
  if (!limit.ok()) {
    std::fprintf(stderr, "%s\n", limit.error().ToString().c_str());
    return 2;
  }
  if (*limit > 0 && records->size() > static_cast<size_t>(*limit)) {
    records->resize(static_cast<size_t>(*limit));
  }

  if (auto s = Save(*records, out_path, out_format); !s.ok()) {
    std::fprintf(stderr, "write %s: %s\n", out_path.c_str(),
                 s.error().ToString().c_str());
    return 1;
  }
  std::printf("%zu queries: %s (%s) -> %s (%s)\n", records->size(),
              in_path.c_str(), in_format.c_str(), out_path.c_str(),
              out_format.c_str());
  return 0;
}
