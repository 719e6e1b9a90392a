// Wire-format fuzz target: Message::Decode over arbitrary bytes (header
// counts, name decompression, EDNS, rdata decoders), with a differential
// idempotence oracle — any message we accept must survive
// parse → encode → reparse → re-encode with a byte-identical second
// encoding. A violation means the decoder and encoder disagree about what
// the message *is*, which silently corrupts replayed traces.
//
// A second oracle covers the replay querier's encoder: any accepted
// message with one question, taken into a trace record, must encode the
// same through QueryRecord::AppendWire as through ToMessage() + Encode().
//
// A third covers dns::Name itself: every decoded question and owner name
// must reparse from its presentation text to an equal name with an equal
// hash.
#include <cstdio>
#include <cstdlib>

#include "dns/message.h"
#include "trace/record.h"

namespace {

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "fuzz_wire oracle violation: %s\n", what);
  std::abort();
}

void CheckNameRoundTrip(const ldp::dns::Name& name) {
  auto reparsed = ldp::dns::Name::Parse(name.ToString());
  if (!reparsed.ok()) Fail("decoded name does not reparse from its text");
  if (!(*reparsed == name)) Fail("reparsed name differs");
  if (reparsed->Hash() != name.Hash()) Fail("reparsed name hashes apart");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using ldp::dns::Message;
  auto msg = Message::Decode({data, size});
  if (!msg.ok()) return 0;  // rejection is fine; crashing is not

  // Rendering must be total for anything the decoder accepts.
  (void)msg->ToText();

  for (const auto& question : msg->questions) {
    CheckNameRoundTrip(question.name);
  }
  for (const auto* section :
       {&msg->answers, &msg->authorities, &msg->additionals}) {
    for (const auto& rr : *section) CheckNameRoundTrip(rr.name);
  }

  ldp::Bytes first = msg->Encode();
  auto reparsed = Message::Decode(first);
  if (!reparsed.ok()) Fail("encoder output does not reparse");
  ldp::Bytes second = reparsed->Encode();
  if (second != first) Fail("re-encoding is not a fixed point");

  if (msg->questions.size() == 1) {
    auto record = ldp::trace::QueryRecord::FromMessage(
        *msg, 0, ldp::IpAddress(), 0, ldp::IpAddress(), 53,
        ldp::trace::Protocol::kUdp);
    ldp::dns::Message query = record.ToMessage();
    query.id = msg->id;
    ldp::Bytes appended;
    record.AppendWire(msg->id, appended);
    if (appended != query.Encode()) Fail("AppendWire differs from Encode");
  }
  return 0;
}
