// ldp-mutate: apply what-if mutations to a trace (paper §2.5) — the CLI
// face of the query mutator.
//
//   ldp_mutate --in t.bin --out t-tcp.bin --force-protocol tcp
//   ldp_mutate --in t.txt --out t-do.txt  --do-fraction 1.0
//   ldp_mutate --in t.bin --out t-2x.bin  --time-scale 0.5 --sample 0.5
#include <cstdint>
#include <cstdio>

#include "common/flags.h"
#include "common/strings.h"
#include "mutate/attack.h"
#include "mutate/mutate.h"
#include "trace/binary.h"
#include "trace/text.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_mutate --in FILE --out FILE [passes...]
  --force-protocol udp|tcp|tls   rewrite every query's transport
  --do-fraction F                set DO bit on fraction F of queries, F in
                                 [0, 1]
  --edns-size N                  force EDNS payload size, in [0, 65535]
  --unique-prefix STR            prepend "<STR><index>." to each qname
  --time-scale F                 multiply timestamps (0.5 = double rate),
                                 F in (0, 1e6]
  --time-shift-s S               add S seconds to timestamps, S in
                                 [-1e9, 1e9]
  --rebase                       shift so the first query is at t=0
  --sample F                     keep a deterministic fraction F, in [0, 1]
  --keep-protocol udp|tcp|tls    drop queries on other transports
Attack overlay (after the passes; see src/mutate/attack.h):
  --attack KIND                  overlay nxdomain|amplification|spoofed
  --attack-qps N                 attack rate, queries/sec, in (0, 1e7] (1000)
  --attack-duration-s S          attack length, seconds, in (0, 31536000]
                                 (trace span or 10)
  --attack-server IP             victim address (default: first record's dst)
  --attack-base NAME             zone under attack (default: root)
  --attack-seed N                attack RNG seed (0xa77ac)
Passes apply in the order listed above; --sample 0 --attack KIND emits an
attack-only trace. Formats by extension (.txt/.bin).)";

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"rebase"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown(
          {"in", "out", "force-protocol", "do-fraction", "edns-size",
           "unique-prefix", "time-scale", "time-shift-s", "rebase", "sample",
           "keep-protocol", "seed", "attack", "attack-qps",
           "attack-duration-s", "attack-server", "attack-base",
           "attack-seed", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("in") || !flags.Has("out")) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  // Numeric flags are read before the trace loads: a value that does not
  // parse or lies outside its range exits 2 by flag name.
  const auto seed_flag = flags.GetIntInRange("seed", 0x5a, 0, INT64_MAX);
  const auto edns_size = flags.GetIntInRange("edns-size", 4096, 0, 65535);
  const auto attack_seed =
      flags.GetIntInRange("attack-seed", 0xa77ac, 0, INT64_MAX);
  for (const auto* value : {&seed_flag, &edns_size, &attack_seed}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }
  const auto do_fraction = flags.GetDoubleInRange("do-fraction", 1, 0, 1);
  const auto time_scale =
      flags.GetDoubleInRange("time-scale", 1, 0, 1e6, true);
  const auto time_shift_s =
      flags.GetDoubleInRange("time-shift-s", 0, -1e9, 1e9);
  const auto sample = flags.GetDoubleInRange("sample", 1, 0, 1);
  const auto attack_qps =
      flags.GetDoubleInRange("attack-qps", 1000, 0, 1e7, true);
  // Its default, the trace span, is known only once the trace is read.
  const auto attack_duration_s =
      flags.GetDoubleInRange("attack-duration-s", 10, 0, 31'536'000, true);
  for (const auto* value : {&do_fraction, &time_scale, &time_shift_s,
                            &sample, &attack_qps, &attack_duration_s}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }

  auto records = trace::ReadTraceFile(flags.GetString("in", ""));
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.error().ToString().c_str());
    return 1;
  }
  size_t before = records->size();
  const uint64_t seed = static_cast<uint64_t>(*seed_flag);

  mutate::MutationPipeline pipeline;
  if (flags.Has("keep-protocol")) {
    auto protocol =
        trace::ProtocolFromString(flags.GetString("keep-protocol", ""));
    if (!protocol.ok()) {
      std::fprintf(stderr, "%s\n", protocol.error().ToString().c_str());
      return 2;
    }
    pipeline.Add(mutate::KeepOnlyProtocol(*protocol));
  }
  if (flags.Has("force-protocol")) {
    auto protocol =
        trace::ProtocolFromString(flags.GetString("force-protocol", ""));
    if (!protocol.ok()) {
      std::fprintf(stderr, "%s\n", protocol.error().ToString().c_str());
      return 2;
    }
    pipeline.Add(mutate::ForceProtocol(*protocol));
  }
  if (flags.Has("do-fraction")) {
    pipeline.Add(mutate::SetDnssecOk(*do_fraction, seed));
  }
  if (flags.Has("edns-size")) {
    pipeline.Add(mutate::SetEdnsSize(static_cast<uint16_t>(*edns_size)));
  }
  if (flags.Has("unique-prefix")) {
    pipeline.Add(
        mutate::PrependUniqueLabel(flags.GetString("unique-prefix", "r")));
  }
  if (flags.Has("time-scale")) {
    pipeline.Add(mutate::TimeScale(*time_scale));
  }
  if (flags.Has("time-shift-s")) {
    pipeline.Add(mutate::TimeShift(SecondsF(*time_shift_s)));
  }
  if (flags.GetBool("rebase", false) && !records->empty()) {
    pipeline.Add(mutate::RebaseToZero(records->front().timestamp));
  }
  if (flags.Has("sample")) {
    pipeline.Add(mutate::Sample(*sample, seed));
  }
  if (pipeline.pass_count() == 0 && !flags.Has("attack")) {
    std::fprintf(stderr, "no mutation passes given\n%s\n", kUsage);
    return 2;
  }
  // `--sample 0 --attack KIND` empties the trace before the attack block
  // runs, but the attack should still default its victim and window to the
  // input it was shaped against — keep the pre-mutation endpoints.
  const bool had_input = !records->empty();
  trace::QueryRecord input_front;
  trace::QueryRecord input_back;
  if (had_input) {
    input_front = records->front();
    input_back = records->back();
  }
  pipeline.Apply(*records);

  // Attack overlay: generated against the (already-mutated) trace and
  // merged by timestamp, so `--sample 0 --attack KIND` yields a pure
  // attack trace and any other combination rides alongside the original
  // queries.
  size_t attack_count = 0;
  if (flags.Has("attack")) {
    auto kind = mutate::AttackKindFromString(flags.GetString("attack", ""));
    if (!kind.ok()) {
      std::fprintf(stderr, "--attack: %s\n", kind.error().ToString().c_str());
      return 2;
    }
    mutate::AttackConfig attack_config;
    attack_config.kind = *kind;
    attack_config.rate_qps = *attack_qps;
    // Default the attack window to the trace span, so the overlay covers
    // the legitimate traffic it is meant to degrade. Fall back to the
    // pre-mutation span when sampling dropped every record.
    const trace::QueryRecord* front =
        !records->empty() ? &records->front() : (had_input ? &input_front : nullptr);
    const trace::QueryRecord* back =
        !records->empty() ? &records->back() : (had_input ? &input_back : nullptr);
    double span_s =
        front ? ToSeconds(back->timestamp - front->timestamp) : 10.0;
    if (span_s <= 0) span_s = 10.0;
    attack_config.duration = SecondsF(
        flags.Has("attack-duration-s") ? *attack_duration_s : span_s);
    attack_config.start = front ? front->timestamp : 0;
    if (flags.Has("attack-server")) {
      auto server = IpAddress::Parse(flags.GetString("attack-server", ""));
      if (!server.ok()) {
        std::fprintf(stderr, "--attack-server: %s\n",
                     server.error().ToString().c_str());
        return 2;
      }
      attack_config.server = *server;
    } else if (front) {
      attack_config.server = front->dst;
    }
    if (flags.Has("attack-base")) {
      auto base = dns::Name::Parse(flags.GetString("attack-base", "."));
      if (!base.ok()) {
        std::fprintf(stderr, "--attack-base: %s\n",
                     base.error().ToString().c_str());
        return 2;
      }
      attack_config.apex = *base;
    }
    attack_config.seed = static_cast<uint64_t>(*attack_seed);
    if (attack_config.rate_qps <= 0 || attack_config.duration <= 0) {
      std::fprintf(stderr, "--attack-qps/--attack-duration-s must be > 0\n");
      return 2;
    }
    auto attack = mutate::MakeAttackTrace(attack_config);
    attack_count = attack.size();
    mutate::OverlayAttack(*records, std::move(attack));
  }

  std::string out = flags.GetString("out", "");
  Status saved = EndsWith(out, ".txt")
                     ? trace::WriteTextTraceFile(*records, out)
                     : trace::WriteBinaryTraceFile(*records, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.error().ToString().c_str());
    return 1;
  }
  if (attack_count > 0) {
    std::printf("%zu -> %zu queries through %zu passes "
                "(+%zu %s attack) -> %s\n",
                before, records->size(), pipeline.pass_count(), attack_count,
                flags.GetString("attack", "").c_str(), out.c_str());
  } else {
    std::printf("%zu -> %zu queries through %zu passes -> %s\n", before,
                records->size(), pipeline.pass_count(), out.c_str());
  }
  return 0;
}
