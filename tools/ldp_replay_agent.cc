// ldp-replay-agent: one distributed-replay worker process (paper §2.6).
// Listens for a controller (ldp_replay_trace --agents/--connect), receives
// its replay configuration and trace chunks over the wire protocol, runs
// the Distributor/Querier engine, and reports outcome accounting back.
//
//   ldp_replay_agent --listen 127.0.0.1:0 --metrics-out agent0.jsonl
//
// Prints "agent listening on IP:PORT" once bound (scripts parse it), then
// serves exactly one controller session and exits.
#include <cstdio>

#include "common/flags.h"
#include "distrib/agent.h"
#include "net/event_loop.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_replay_agent [options]
  --listen IP:PORT      bind address (127.0.0.1:0 = loopback ephemeral)
  --metrics-out FILE    append JSONL metric snapshots (with histogram
                        buckets, so per-agent files merge exactly)
  --max-outstanding N   cap queries fed into the engine but not yet at a
                        terminal outcome, in [1, 16777216] (16384)
Replay parameters (timing, timeouts, thread counts) arrive from the
controller's HELLO frame, not flags.)";

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown(
          {"listen", "metrics-out", "max-outstanding", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  const auto max_outstanding =
      flags.GetIntInRange("max-outstanding", 16384, 1, 1 << 24);
  if (!max_outstanding.ok()) {
    std::fprintf(stderr, "%s\n", max_outstanding.error().ToString().c_str());
    return 2;
  }

  distrib::AgentOptions options;
  std::string listen = flags.GetString("listen", "127.0.0.1:0");
  auto endpoint = Endpoint::Parse(listen);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "--listen: %s\n",
                 endpoint.error().ToString().c_str());
    return 2;
  }
  options.listen = *endpoint;
  options.metrics_path = flags.GetString("metrics-out", "");
  options.max_outstanding = static_cast<uint64_t>(*max_outstanding);

  auto loop = net::EventLoop::Create();
  if (!loop.ok()) {
    std::fprintf(stderr, "%s\n", loop.error().ToString().c_str());
    return 1;
  }
  auto agent = distrib::AgentServer::Start(**loop, options);
  if (!agent.ok()) {
    std::fprintf(stderr, "%s\n", agent.error().ToString().c_str());
    return 1;
  }
  std::printf("agent listening on %s\n",
              (*agent)->local().ToString().c_str());
  std::fflush(stdout);

  (*loop)->Run();

  const Status& result = (*agent)->result();
  if (!result.ok()) {
    std::fprintf(stderr, "agent failed: %s\n",
                 result.error().ToString().c_str());
    return 1;
  }
  return 0;
}
