// ldp_datapath_probe: answers "does this build speak TLS?" for scripts.
// With --tls, exit 0 and print "ok" when the TLS transport is usable; exit
// 1 and print the reason (a build without OpenSSL) otherwise. verify.sh
// and the benches use this to detect-and-skip honestly instead of failing.
//
//   ldp_datapath_probe --tls
#include <cstdio>

#include "common/flags.h"
#include "net/tls.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_datapath_probe --tls
  --tls                    probe the TLS transport
Prints "ok" and exits 0 when the probed capability is usable.)";

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"tls"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown({"tls", "help"}); !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.GetBool("tls", false)) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  if (!net::TlsAvailable()) {
    std::printf("built without OpenSSL (no TLS)\n");
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
