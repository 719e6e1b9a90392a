#include "zone/masterfile.h"

#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace ldp::zone {
namespace {

// Tokenizes one logical line, respecting quoted strings and stripping
// comments. Returns whether the line ends inside an open parenthesis group.
struct LineTokens {
  std::vector<std::string> tokens;
  bool continues = false;        // '(' seen without matching ')'
  bool owner_inherited = false;  // first physical line began with whitespace
};

// A legitimate token tops out at a `\# 65535 <hex>` generic-rdata blob
// (131070 hex characters); anything past this cap is hostile input, not a
// zone.
constexpr size_t kMaxTokenLength = 256 * 1024;

// True if the token ends with an odd number of backslashes, i.e. its final
// backslash escapes whatever comes next.
bool HasDanglingBackslash(std::string_view token) {
  size_t n = 0;
  while (n < token.size() && token[token.size() - 1 - n] == '\\') ++n;
  return (n % 2) == 1;
}

Status TokenizeInto(std::string_view line, LineTokens& out) {
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (c == ';') break;  // comment to end of line
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '(') {
      out.continues = true;
      ++i;
      continue;
    }
    if (c == ')') {
      out.continues = false;
      ++i;
      continue;
    }
    if (c == '"') {
      std::string token = "\"";
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) {
            return Error(ErrorCode::kParseError,
                         "backslash at end of line inside quoted string");
          }
          token.push_back('\\');
          token.push_back(line[i + 1]);
          i += 2;
          continue;
        }
        token.push_back(line[i]);
        ++i;
      }
      if (i >= line.size()) {
        return Error(ErrorCode::kParseError, "unterminated quoted string");
      }
      ++i;  // closing quote
      token.push_back('"');
      if (token.size() > kMaxTokenLength) {
        return Error(ErrorCode::kParseError, "oversized token");
      }
      out.tokens.push_back(std::move(token));
      continue;
    }
    std::string token;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
           line[i] != ';' && line[i] != '(' && line[i] != ')' &&
           line[i] != '\r') {
      token.push_back(line[i]);
      ++i;
    }
    if (token.size() > kMaxTokenLength) {
      return Error(ErrorCode::kParseError, "oversized token");
    }
    if (i >= line.size() && HasDanglingBackslash(token)) {
      // The final backslash would escape the newline — a continuation we do
      // not support; rejecting beats silently dropping the escape.
      return Error(ErrorCode::kParseError, "trailing backslash at end of line");
    }
    out.tokens.push_back(std::move(token));
  }
  return Status::Ok();
}

// A name token: absolute if it ends with '.', otherwise relative to origin;
// '@' is the origin itself.
Result<dns::Name> ParseNameToken(std::string_view token,
                                 const dns::Name& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') {
    return dns::Name::Parse(token);
  }
  LDP_ASSIGN_OR_RETURN(dns::Name relative, dns::Name::Parse(token));
  // The relative labels (without their root octet), then origin's wire
  // form; FromWire rejects a joined name over 255 octets.
  std::span<const uint8_t> head = relative.wire();
  std::span<const uint8_t> tail = origin.wire();
  uint8_t wire[2 * dns::kMaxNameWireLength];
  std::memcpy(wire, head.data(), head.size() - 1);
  std::memcpy(wire + head.size() - 1, tail.data(), tail.size());
  return dns::Name::FromWire(
      std::span<const uint8_t>(wire, head.size() - 1 + tail.size()));
}

bool IsTtlToken(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

Result<Zone> ParseMasterFile(std::string_view text,
                             const MasterFileOptions& options) {
  dns::Name origin = options.default_origin;
  uint32_t default_ttl = options.default_ttl;
  std::optional<Zone> zone;
  std::optional<dns::Name> last_owner;

  std::vector<LineTokens> logical_lines;
  {
    LineTokens current;
    size_t start = 0;
    while (start <= text.size()) {
      size_t nl = text.find('\n', start);
      std::string_view line = text.substr(
          start, nl == std::string_view::npos ? text.size() - start
                                              : nl - start);
      // The owner-inheritance decision belongs to the first physical line
      // that contributes tokens to this logical line.
      bool group_start = !current.continues && current.tokens.empty();
      LDP_RETURN_IF_ERROR(TokenizeInto(line, current));
      if (group_start && !current.tokens.empty()) {
        current.owner_inherited =
            !line.empty() && (line[0] == ' ' || line[0] == '\t');
      }
      if (!current.continues) {
        if (!current.tokens.empty()) {
          logical_lines.push_back(std::move(current));
        }
        current = LineTokens{};
      }
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
  }

  for (auto& line : logical_lines) {
    auto& tokens = line.tokens;
    const bool owner_inherited = line.owner_inherited;

    if (tokens[0] == "$ORIGIN") {
      if (tokens.size() != 2) {
        return Error(ErrorCode::kParseError, "$ORIGIN needs one argument");
      }
      LDP_ASSIGN_OR_RETURN(origin, dns::Name::Parse(tokens[1]));
      continue;
    }
    if (tokens[0] == "$TTL") {
      if (tokens.size() != 2) {
        return Error(ErrorCode::kParseError, "$TTL needs one argument");
      }
      LDP_ASSIGN_OR_RETURN(uint64_t ttl, ParseUint64(tokens[1]));
      if (ttl > 0xffffffffu) {
        return Error(ErrorCode::kOutOfRange, "$TTL exceeds 32 bits");
      }
      default_ttl = static_cast<uint32_t>(ttl);
      continue;
    }
    if (tokens[0].size() > 1 && tokens[0][0] == '$') {
      return Error(ErrorCode::kUnsupported,
                   "unsupported directive: " + tokens[0]);
    }

    size_t cursor = 0;
    dns::Name owner;
    if (owner_inherited) {
      if (!last_owner.has_value()) {
        return Error(ErrorCode::kParseError,
                     "record with inherited owner before any owner");
      }
      owner = *last_owner;
    } else {
      LDP_ASSIGN_OR_RETURN(owner, ParseNameToken(tokens[cursor], origin));
      ++cursor;
    }
    last_owner = owner;

    // [TTL] [class] type — TTL and class may appear in either order.
    uint32_t ttl = default_ttl;
    dns::RRClass klass = dns::RRClass::kIN;
    for (int pass = 0; pass < 2 && cursor < tokens.size(); ++pass) {
      if (IsTtlToken(tokens[cursor])) {
        LDP_ASSIGN_OR_RETURN(uint64_t value, ParseUint64(tokens[cursor]));
        if (value > 0xffffffffu) {
          return Error(ErrorCode::kOutOfRange, "TTL exceeds 32 bits");
        }
        ttl = static_cast<uint32_t>(value);
        ++cursor;
      } else if (dns::RRClassFromString(tokens[cursor]).ok()) {
        klass = dns::RRClassFromString(tokens[cursor]).value();
        ++cursor;
      }
    }
    if (cursor >= tokens.size()) {
      return Error(ErrorCode::kParseError, "record missing type");
    }
    LDP_ASSIGN_OR_RETURN(dns::RRType type, dns::RRTypeFromString(tokens[cursor]));
    ++cursor;

    // Remaining tokens are rdata. Relative names inside rdata are resolved
    // against the origin by pre-qualifying name-ish fields: we rely on
    // RdataFromText for typed parsing, so qualify tokens that look like
    // relative names for the name-bearing types.
    // RFC 3597 generic rdata ("\# <length> <hex>") holds no names to
    // qualify.
    const bool generic = cursor < tokens.size() && tokens[cursor] == "\\#";
    std::vector<std::string> qualified;
    std::vector<std::string_view> rdata_tokens;
    qualified.reserve(tokens.size() - cursor);
    auto qualify_indices = [&]() -> std::vector<size_t> {
      if (generic) return {};
      switch (type) {
        case dns::RRType::kNS:
        case dns::RRType::kCNAME:
        case dns::RRType::kPTR:
          return {0};
        case dns::RRType::kMX:
          return {1};
        case dns::RRType::kSOA:
          return {0, 1};
        case dns::RRType::kSRV:
          return {3};
        case dns::RRType::kRRSIG:
          return {7};
        case dns::RRType::kNSEC:
          return {0};
        default:
          return {};
      }
    }();
    for (size_t i = cursor; i < tokens.size(); ++i) {
      std::string token = tokens[i];
      for (size_t qi : qualify_indices) {
        if (i - cursor == qi && !token.empty() && token.back() != '.' &&
            token[0] != '"') {
          if (token == "@") {
            token = origin.ToString();
          } else {
            auto name = ParseNameToken(token, origin);
            if (name.ok()) token = name->ToString();
          }
        }
      }
      qualified.push_back(std::move(token));
    }
    for (const auto& t : qualified) rdata_tokens.push_back(t);

    auto rdata = dns::RdataFromText(type, rdata_tokens);
    if (!rdata.ok()) {
      return rdata.error().WithContext("owner " + owner.ToString());
    }

    if (!zone.has_value()) {
      // Zone origin: the SOA owner if this is the first record, else the
      // current $ORIGIN.
      zone.emplace(type == dns::RRType::kSOA ? owner : origin);
    }
    dns::ResourceRecord record{owner, type, klass, ttl, std::move(*rdata)};
    LDP_RETURN_IF_ERROR(zone->AddRecord(record));
  }

  if (!zone.has_value()) {
    return Error(ErrorCode::kParseError, "master file contains no records");
  }
  return std::move(*zone);
}

Result<Zone> LoadMasterFile(const std::string& path,
                            const MasterFileOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseMasterFile(buffer.str(), options);
}

std::string SerializeZone(const Zone& zone) {
  std::string out = "$ORIGIN " + zone.origin().ToString() + "\n";
  const dns::RRset* soa = zone.Soa();
  if (soa != nullptr) {
    for (const auto& record : soa->ToRecords()) {
      out += record.ToText() + "\n";
    }
  }
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (rrset.type == dns::RRType::kSOA && rrset.name == zone.origin()) {
      return;  // already emitted first
    }
    for (const auto& record : rrset.ToRecords()) {
      out += record.ToText() + "\n";
    }
  });
  return out;
}

Status SaveMasterFile(const Zone& zone, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Error(ErrorCode::kIoError, "cannot open " + path + " for writing");
  }
  out << SerializeZone(zone);
  if (!out) {
    return Error(ErrorCode::kIoError, "write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace ldp::zone
