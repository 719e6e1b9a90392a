#include "dns/rdata.h"

#include <algorithm>

#include "common/base64.h"
#include "common/strings.h"

namespace ldp::dns {
namespace {

// Encodes the NSEC type bitmap (RFC 4034 §4.1.2): window blocks of up to 32
// octets, omitting trailing zero octets per window.
void EncodeTypeBitmap(const std::vector<RRType>& types, ByteWriter& writer) {
  // Group types by window (high byte of the type code).
  uint8_t window_bits[256][32] = {};
  bool window_used[256] = {};
  for (RRType type : types) {
    uint16_t code = static_cast<uint16_t>(type);
    uint8_t window = static_cast<uint8_t>(code >> 8);
    uint8_t low = static_cast<uint8_t>(code & 0xff);
    window_bits[window][low / 8] |= static_cast<uint8_t>(0x80 >> (low % 8));
    window_used[window] = true;
  }
  for (int w = 0; w < 256; ++w) {
    if (!window_used[w]) continue;
    int len = 32;
    while (len > 0 && window_bits[w][len - 1] == 0) --len;
    if (len == 0) continue;
    writer.WriteU8(static_cast<uint8_t>(w));
    writer.WriteU8(static_cast<uint8_t>(len));
    writer.WriteBytes(std::span<const uint8_t>(window_bits[w],
                                               static_cast<size_t>(len)));
  }
}

Result<std::vector<RRType>> DecodeTypeBitmap(ByteReader& reader, size_t end) {
  std::vector<RRType> types;
  int last_window = -1;
  while (reader.offset() < end) {
    LDP_ASSIGN_OR_RETURN(uint8_t window, reader.ReadU8());
    LDP_ASSIGN_OR_RETURN(uint8_t len, reader.ReadU8());
    if (len == 0 || len > 32) {
      return Error(ErrorCode::kParseError, "bad NSEC bitmap window length");
    }
    if (static_cast<int>(window) <= last_window) {
      return Error(ErrorCode::kParseError, "NSEC bitmap windows out of order");
    }
    last_window = window;
    LDP_ASSIGN_OR_RETURN(auto bits, reader.ReadSpan(len));
    for (size_t octet = 0; octet < bits.size(); ++octet) {
      for (int bit = 0; bit < 8; ++bit) {
        if (bits[octet] & (0x80 >> bit)) {
          types.push_back(static_cast<RRType>((window << 8) |
                                              (octet * 8 + bit)));
        }
      }
    }
  }
  if (reader.offset() != end) {
    return Error(ErrorCode::kParseError, "NSEC bitmap overruns rdata");
  }
  return types;
}

// Master-file <character-string>: either a quoted string or a bare token.
std::string CharacterStringToText(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Result<std::string> CharacterStringFromToken(std::string_view token) {
  std::string out;
  if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
    token = token.substr(1, token.size() - 2);
    for (size_t i = 0; i < token.size(); ++i) {
      if (token[i] == '\\' && i + 1 < token.size()) ++i;
      out.push_back(token[i]);
    }
  } else {
    out.assign(token.begin(), token.end());
  }
  if (out.size() > 255) {
    return Error(ErrorCode::kParseError, "character-string exceeds 255 octets");
  }
  return out;
}

Result<Bytes> HexDecode(std::string_view text) {
  if (text.size() % 2 != 0) {
    return Error(ErrorCode::kParseError, "odd-length hex string");
  }
  Bytes out;
  out.reserve(text.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < text.size(); i += 2) {
    int hi = nibble(text[i]);
    int lo = nibble(text[i + 1]);
    if (hi < 0 || lo < 0) {
      return Error(ErrorCode::kParseError, "bad hex digit");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string HexEncode(std::span<const uint8_t> data) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

template <typename T>
Result<T> TokenToInt(std::string_view token, uint64_t max) {
  LDP_ASSIGN_OR_RETURN(uint64_t value, ParseUint64(token));
  if (value > max) {
    return Error(ErrorCode::kOutOfRange,
                 "value out of range: " + std::string(token));
  }
  return static_cast<T>(value);
}

}  // namespace

void EncodeRdata(const Rdata& rdata, NameCompressor& compressor,
                 ByteWriter& writer) {
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          writer.WriteU32(r.address.value());
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          writer.WriteBytes(r.address.octets());
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          compressor.Encode(r.nsdname, writer);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          compressor.Encode(r.target, writer);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          compressor.Encode(r.target, writer);
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          compressor.Encode(r.mname, writer);
          compressor.Encode(r.rname, writer);
          writer.WriteU32(r.serial);
          writer.WriteU32(r.refresh);
          writer.WriteU32(r.retry);
          writer.WriteU32(r.expire);
          writer.WriteU32(r.minimum);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          writer.WriteU16(r.preference);
          compressor.Encode(r.exchange, writer);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : r.strings) {
            writer.WriteU8(static_cast<uint8_t>(s.size()));
            writer.WriteString(s);
          }
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          writer.WriteU16(r.priority);
          writer.WriteU16(r.weight);
          writer.WriteU16(r.port);
          // RFC 2782: target must not be compressed.
          EncodeNameUncompressed(r.target, writer);
        } else if constexpr (std::is_same_v<T, DsRdata>) {
          writer.WriteU16(r.key_tag);
          writer.WriteU8(r.algorithm);
          writer.WriteU8(r.digest_type);
          writer.WriteBytes(r.digest);
        } else if constexpr (std::is_same_v<T, DnskeyRdata>) {
          writer.WriteU16(r.flags);
          writer.WriteU8(r.protocol);
          writer.WriteU8(r.algorithm);
          writer.WriteBytes(r.public_key);
        } else if constexpr (std::is_same_v<T, RrsigRdata>) {
          writer.WriteU16(static_cast<uint16_t>(r.type_covered));
          writer.WriteU8(r.algorithm);
          writer.WriteU8(r.labels);
          writer.WriteU32(r.original_ttl);
          writer.WriteU32(r.expiration);
          writer.WriteU32(r.inception);
          writer.WriteU16(r.key_tag);
          EncodeNameUncompressed(r.signer, writer);
          writer.WriteBytes(r.signature);
        } else if constexpr (std::is_same_v<T, NsecRdata>) {
          EncodeNameUncompressed(r.next, writer);
          EncodeTypeBitmap(r.types, writer);
        } else if constexpr (std::is_same_v<T, GenericRdata>) {
          writer.WriteBytes(r.data);
        }
      },
      rdata);
}

Result<Rdata> DecodeRdata(RRType type, uint16_t rdlength, ByteReader& reader) {
  size_t end = reader.offset() + rdlength;
  if (end > reader.size()) {
    return Error(ErrorCode::kTruncated, "rdata extends past message");
  }
  auto check_consumed = [&](Rdata value) -> Result<Rdata> {
    if (reader.offset() != end) {
      return Error(ErrorCode::kParseError, "rdata length mismatch for type " +
                                               RRTypeToString(type));
    }
    return value;
  };

  switch (type) {
    case RRType::kA: {
      LDP_ASSIGN_OR_RETURN(uint32_t addr, reader.ReadU32());
      return check_consumed(ARdata{IpAddress(addr)});
    }
    case RRType::kAAAA: {
      LDP_ASSIGN_OR_RETURN(auto span, reader.ReadSpan(16));
      std::array<uint8_t, 16> octets;
      std::copy(span.begin(), span.end(), octets.begin());
      return check_consumed(AaaaRdata{Ipv6Address(octets)});
    }
    case RRType::kNS: {
      LDP_ASSIGN_OR_RETURN(Name name, DecodeName(reader));
      return check_consumed(NsRdata{std::move(name)});
    }
    case RRType::kCNAME: {
      LDP_ASSIGN_OR_RETURN(Name name, DecodeName(reader));
      return check_consumed(CnameRdata{std::move(name)});
    }
    case RRType::kPTR: {
      LDP_ASSIGN_OR_RETURN(Name name, DecodeName(reader));
      return check_consumed(PtrRdata{std::move(name)});
    }
    case RRType::kSOA: {
      SoaRdata soa;
      LDP_ASSIGN_OR_RETURN(soa.mname, DecodeName(reader));
      LDP_ASSIGN_OR_RETURN(soa.rname, DecodeName(reader));
      LDP_ASSIGN_OR_RETURN(soa.serial, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(soa.refresh, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(soa.retry, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(soa.expire, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(soa.minimum, reader.ReadU32());
      return check_consumed(std::move(soa));
    }
    case RRType::kMX: {
      MxRdata mx;
      LDP_ASSIGN_OR_RETURN(mx.preference, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(mx.exchange, DecodeName(reader));
      return check_consumed(std::move(mx));
    }
    case RRType::kTXT: {
      TxtRdata txt;
      while (reader.offset() < end) {
        LDP_ASSIGN_OR_RETURN(uint8_t len, reader.ReadU8());
        if (reader.offset() + len > end) {
          return Error(ErrorCode::kParseError, "TXT string overruns rdata");
        }
        LDP_ASSIGN_OR_RETURN(auto span, reader.ReadSpan(len));
        txt.strings.emplace_back(span.begin(), span.end());
      }
      if (txt.strings.empty()) {
        return Error(ErrorCode::kParseError, "empty TXT rdata");
      }
      return check_consumed(std::move(txt));
    }
    case RRType::kSRV: {
      SrvRdata srv;
      LDP_ASSIGN_OR_RETURN(srv.priority, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(srv.weight, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(srv.port, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(srv.target, DecodeName(reader));
      return check_consumed(std::move(srv));
    }
    case RRType::kDS: {
      DsRdata ds;
      LDP_ASSIGN_OR_RETURN(ds.key_tag, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(ds.algorithm, reader.ReadU8());
      LDP_ASSIGN_OR_RETURN(ds.digest_type, reader.ReadU8());
      LDP_ASSIGN_OR_RETURN(ds.digest, reader.ReadBytes(end - reader.offset()));
      return check_consumed(std::move(ds));
    }
    case RRType::kDNSKEY: {
      DnskeyRdata key;
      LDP_ASSIGN_OR_RETURN(key.flags, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(key.protocol, reader.ReadU8());
      LDP_ASSIGN_OR_RETURN(key.algorithm, reader.ReadU8());
      LDP_ASSIGN_OR_RETURN(key.public_key,
                           reader.ReadBytes(end - reader.offset()));
      return check_consumed(std::move(key));
    }
    case RRType::kRRSIG: {
      RrsigRdata sig;
      LDP_ASSIGN_OR_RETURN(uint16_t covered, reader.ReadU16());
      sig.type_covered = static_cast<RRType>(covered);
      LDP_ASSIGN_OR_RETURN(sig.algorithm, reader.ReadU8());
      LDP_ASSIGN_OR_RETURN(sig.labels, reader.ReadU8());
      LDP_ASSIGN_OR_RETURN(sig.original_ttl, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(sig.expiration, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(sig.inception, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(sig.key_tag, reader.ReadU16());
      LDP_ASSIGN_OR_RETURN(sig.signer, DecodeName(reader));
      LDP_ASSIGN_OR_RETURN(sig.signature,
                           reader.ReadBytes(end - reader.offset()));
      return check_consumed(std::move(sig));
    }
    case RRType::kNSEC: {
      NsecRdata nsec;
      LDP_ASSIGN_OR_RETURN(nsec.next, DecodeName(reader));
      LDP_ASSIGN_OR_RETURN(nsec.types, DecodeTypeBitmap(reader, end));
      return check_consumed(std::move(nsec));
    }
    default: {
      LDP_ASSIGN_OR_RETURN(Bytes data, reader.ReadBytes(rdlength));
      return Rdata(GenericRdata{std::move(data)});
    }
  }
}

std::string RdataToText(const Rdata& rdata) {
  // Wire or RFC 3597 input can carry an empty trailing binary field (DS
  // digest, DNSKEY key, RRSIG signature), which has no presentation form;
  // such rdata is written in the generic form, which parses back to it.
  const bool empty_binary = std::visit(
      [](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DsRdata>) {
          return r.digest.empty();
        } else if constexpr (std::is_same_v<T, DnskeyRdata>) {
          return r.public_key.empty();
        } else if constexpr (std::is_same_v<T, RrsigRdata>) {
          return r.signature.empty();
        } else {
          return false;
        }
      },
      rdata);
  if (empty_binary) {
    NameCompressor compressor;
    ByteWriter writer;
    EncodeRdata(rdata, compressor, writer);
    return RdataToText(GenericRdata{std::move(writer).Take()});
  }
  return std::visit(
      [](const auto& r) -> std::string {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          return r.address.ToString();
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          return r.address.ToString();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          return r.nsdname.ToString();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          return r.target.ToString();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          return r.target.ToString();
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          return r.mname.ToString() + " " + r.rname.ToString() + " " +
                 std::to_string(r.serial) + " " + std::to_string(r.refresh) +
                 " " + std::to_string(r.retry) + " " +
                 std::to_string(r.expire) + " " + std::to_string(r.minimum);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          return std::to_string(r.preference) + " " + r.exchange.ToString();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          std::string out;
          for (size_t i = 0; i < r.strings.size(); ++i) {
            if (i) out += " ";
            out += CharacterStringToText(r.strings[i]);
          }
          return out;
        } else if constexpr (std::is_same_v<T, SrvRdata>) {
          return std::to_string(r.priority) + " " + std::to_string(r.weight) +
                 " " + std::to_string(r.port) + " " + r.target.ToString();
        } else if constexpr (std::is_same_v<T, DsRdata>) {
          return std::to_string(r.key_tag) + " " +
                 std::to_string(r.algorithm) + " " +
                 std::to_string(r.digest_type) + " " + HexEncode(r.digest);
        } else if constexpr (std::is_same_v<T, DnskeyRdata>) {
          return std::to_string(r.flags) + " " + std::to_string(r.protocol) +
                 " " + std::to_string(r.algorithm) + " " +
                 Base64Encode(r.public_key);
        } else if constexpr (std::is_same_v<T, RrsigRdata>) {
          return RRTypeToString(r.type_covered) + " " +
                 std::to_string(r.algorithm) + " " + std::to_string(r.labels) +
                 " " + std::to_string(r.original_ttl) + " " +
                 std::to_string(r.expiration) + " " +
                 std::to_string(r.inception) + " " + std::to_string(r.key_tag) +
                 " " + r.signer.ToString() + " " + Base64Encode(r.signature);
        } else if constexpr (std::is_same_v<T, NsecRdata>) {
          std::string out = r.next.ToString();
          for (RRType t : r.types) out += " " + RRTypeToString(t);
          return out;
        } else if constexpr (std::is_same_v<T, GenericRdata>) {
          // RFC 3597 unknown-rdata form.
          return "\\# " + std::to_string(r.data.size()) +
                 (r.data.empty() ? "" : " " + HexEncode(r.data));
        }
      },
      rdata);
}

Result<Rdata> RdataFromText(RRType type,
                            const std::vector<std::string_view>& tokens) {
  auto need = [&](size_t n) -> Status {
    if (tokens.size() < n) {
      return Error(ErrorCode::kParseError,
                   RRTypeToString(type) + " rdata needs " + std::to_string(n) +
                       " fields, got " + std::to_string(tokens.size()));
    }
    return Status::Ok();
  };

  // RFC 3597 generic form is accepted for any type. Rdata of a type with a
  // typed form is decoded into it (§5), so a generic CNAME serves exactly
  // like one written normally; it must decode to exactly its stated length.
  if (!tokens.empty() && tokens[0] == "\\#") {
    LDP_RETURN_IF_ERROR(need(2));
    LDP_ASSIGN_OR_RETURN(uint64_t len, ParseUint64(tokens[1]));
    std::string hex;
    for (size_t i = 2; i < tokens.size(); ++i) hex += std::string(tokens[i]);
    LDP_ASSIGN_OR_RETURN(Bytes data, HexDecode(hex));
    if (data.size() != len || len > 0xffff) {
      return Error(ErrorCode::kParseError, "\\# length mismatch");
    }
    ByteReader reader(data);
    return DecodeRdata(type, static_cast<uint16_t>(len), reader);
  }

  switch (type) {
    case RRType::kA: {
      LDP_RETURN_IF_ERROR(need(1));
      LDP_ASSIGN_OR_RETURN(IpAddress addr, IpAddress::Parse(tokens[0]));
      return Rdata(ARdata{addr});
    }
    case RRType::kAAAA: {
      LDP_RETURN_IF_ERROR(need(1));
      LDP_ASSIGN_OR_RETURN(Ipv6Address addr, Ipv6Address::Parse(tokens[0]));
      return Rdata(AaaaRdata{addr});
    }
    case RRType::kNS: {
      LDP_RETURN_IF_ERROR(need(1));
      LDP_ASSIGN_OR_RETURN(Name name, Name::Parse(tokens[0]));
      return Rdata(NsRdata{std::move(name)});
    }
    case RRType::kCNAME: {
      LDP_RETURN_IF_ERROR(need(1));
      LDP_ASSIGN_OR_RETURN(Name name, Name::Parse(tokens[0]));
      return Rdata(CnameRdata{std::move(name)});
    }
    case RRType::kPTR: {
      LDP_RETURN_IF_ERROR(need(1));
      LDP_ASSIGN_OR_RETURN(Name name, Name::Parse(tokens[0]));
      return Rdata(PtrRdata{std::move(name)});
    }
    case RRType::kSOA: {
      LDP_RETURN_IF_ERROR(need(7));
      SoaRdata soa;
      LDP_ASSIGN_OR_RETURN(soa.mname, Name::Parse(tokens[0]));
      LDP_ASSIGN_OR_RETURN(soa.rname, Name::Parse(tokens[1]));
      LDP_ASSIGN_OR_RETURN(soa.serial, TokenToInt<uint32_t>(tokens[2], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(soa.refresh, TokenToInt<uint32_t>(tokens[3], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(soa.retry, TokenToInt<uint32_t>(tokens[4], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(soa.expire, TokenToInt<uint32_t>(tokens[5], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(soa.minimum, TokenToInt<uint32_t>(tokens[6], 0xffffffff));
      return Rdata(std::move(soa));
    }
    case RRType::kMX: {
      LDP_RETURN_IF_ERROR(need(2));
      MxRdata mx;
      LDP_ASSIGN_OR_RETURN(mx.preference, TokenToInt<uint16_t>(tokens[0], 0xffff));
      LDP_ASSIGN_OR_RETURN(mx.exchange, Name::Parse(tokens[1]));
      return Rdata(std::move(mx));
    }
    case RRType::kTXT: {
      LDP_RETURN_IF_ERROR(need(1));
      TxtRdata txt;
      for (auto token : tokens) {
        LDP_ASSIGN_OR_RETURN(std::string s, CharacterStringFromToken(token));
        txt.strings.push_back(std::move(s));
      }
      return Rdata(std::move(txt));
    }
    case RRType::kSRV: {
      LDP_RETURN_IF_ERROR(need(4));
      SrvRdata srv;
      LDP_ASSIGN_OR_RETURN(srv.priority, TokenToInt<uint16_t>(tokens[0], 0xffff));
      LDP_ASSIGN_OR_RETURN(srv.weight, TokenToInt<uint16_t>(tokens[1], 0xffff));
      LDP_ASSIGN_OR_RETURN(srv.port, TokenToInt<uint16_t>(tokens[2], 0xffff));
      LDP_ASSIGN_OR_RETURN(srv.target, Name::Parse(tokens[3]));
      return Rdata(std::move(srv));
    }
    case RRType::kDS: {
      LDP_RETURN_IF_ERROR(need(4));
      DsRdata ds;
      LDP_ASSIGN_OR_RETURN(ds.key_tag, TokenToInt<uint16_t>(tokens[0], 0xffff));
      LDP_ASSIGN_OR_RETURN(ds.algorithm, TokenToInt<uint8_t>(tokens[1], 0xff));
      LDP_ASSIGN_OR_RETURN(ds.digest_type, TokenToInt<uint8_t>(tokens[2], 0xff));
      std::string hex;
      for (size_t i = 3; i < tokens.size(); ++i) hex += std::string(tokens[i]);
      LDP_ASSIGN_OR_RETURN(ds.digest, HexDecode(hex));
      return Rdata(std::move(ds));
    }
    case RRType::kDNSKEY: {
      LDP_RETURN_IF_ERROR(need(4));
      DnskeyRdata key;
      LDP_ASSIGN_OR_RETURN(key.flags, TokenToInt<uint16_t>(tokens[0], 0xffff));
      LDP_ASSIGN_OR_RETURN(key.protocol, TokenToInt<uint8_t>(tokens[1], 0xff));
      LDP_ASSIGN_OR_RETURN(key.algorithm, TokenToInt<uint8_t>(tokens[2], 0xff));
      std::string b64;
      for (size_t i = 3; i < tokens.size(); ++i) b64 += std::string(tokens[i]);
      LDP_ASSIGN_OR_RETURN(key.public_key, Base64Decode(b64));
      return Rdata(std::move(key));
    }
    case RRType::kRRSIG: {
      LDP_RETURN_IF_ERROR(need(9));
      RrsigRdata sig;
      LDP_ASSIGN_OR_RETURN(sig.type_covered, RRTypeFromString(tokens[0]));
      LDP_ASSIGN_OR_RETURN(sig.algorithm, TokenToInt<uint8_t>(tokens[1], 0xff));
      LDP_ASSIGN_OR_RETURN(sig.labels, TokenToInt<uint8_t>(tokens[2], 0xff));
      LDP_ASSIGN_OR_RETURN(sig.original_ttl,
                           TokenToInt<uint32_t>(tokens[3], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(sig.expiration,
                           TokenToInt<uint32_t>(tokens[4], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(sig.inception,
                           TokenToInt<uint32_t>(tokens[5], 0xffffffff));
      LDP_ASSIGN_OR_RETURN(sig.key_tag, TokenToInt<uint16_t>(tokens[6], 0xffff));
      LDP_ASSIGN_OR_RETURN(sig.signer, Name::Parse(tokens[7]));
      std::string b64;
      for (size_t i = 8; i < tokens.size(); ++i) b64 += std::string(tokens[i]);
      LDP_ASSIGN_OR_RETURN(sig.signature, Base64Decode(b64));
      return Rdata(std::move(sig));
    }
    case RRType::kNSEC: {
      LDP_RETURN_IF_ERROR(need(1));
      NsecRdata nsec;
      LDP_ASSIGN_OR_RETURN(nsec.next, Name::Parse(tokens[0]));
      for (size_t i = 1; i < tokens.size(); ++i) {
        LDP_ASSIGN_OR_RETURN(RRType t, RRTypeFromString(tokens[i]));
        nsec.types.push_back(t);
      }
      std::sort(nsec.types.begin(), nsec.types.end(),
                [](RRType a, RRType b) {
                  return static_cast<uint16_t>(a) < static_cast<uint16_t>(b);
                });
      return Rdata(std::move(nsec));
    }
    default:
      return Error(ErrorCode::kUnsupported,
                   "no text parser for type " + RRTypeToString(type) +
                       " (use the RFC 3597 \\# form)");
  }
}

RRType RdataType(const Rdata& rdata) {
  return std::visit(
      [](const auto& r) -> RRType {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARdata>) return RRType::kA;
        else if constexpr (std::is_same_v<T, AaaaRdata>) return RRType::kAAAA;
        else if constexpr (std::is_same_v<T, NsRdata>) return RRType::kNS;
        else if constexpr (std::is_same_v<T, CnameRdata>) return RRType::kCNAME;
        else if constexpr (std::is_same_v<T, PtrRdata>) return RRType::kPTR;
        else if constexpr (std::is_same_v<T, SoaRdata>) return RRType::kSOA;
        else if constexpr (std::is_same_v<T, MxRdata>) return RRType::kMX;
        else if constexpr (std::is_same_v<T, TxtRdata>) return RRType::kTXT;
        else if constexpr (std::is_same_v<T, SrvRdata>) return RRType::kSRV;
        else if constexpr (std::is_same_v<T, DsRdata>) return RRType::kDS;
        else if constexpr (std::is_same_v<T, DnskeyRdata>) return RRType::kDNSKEY;
        else if constexpr (std::is_same_v<T, RrsigRdata>) return RRType::kRRSIG;
        else if constexpr (std::is_same_v<T, NsecRdata>) return RRType::kNSEC;
        else return RRType::kANY;
      },
      rdata);
}

size_t RdataWireLength(const Rdata& rdata) {
  NameCompressor compressor;
  ByteWriter writer;
  EncodeRdata(rdata, compressor, writer);
  return writer.size();
}

}  // namespace ldp::dns
