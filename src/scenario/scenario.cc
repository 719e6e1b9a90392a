#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "dns/message.h"
#include "net/event_loop.h"
#include "net/sockets.h"

namespace ldp::scenario {

namespace {

double QuantileMs(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted_ms.size()));
  rank = std::min(rank, sorted_ms.size() - 1);
  return sorted_ms[rank];
}

void FillLatencies(TrafficClassReport& out, std::vector<double>& ms) {
  std::sort(ms.begin(), ms.end());
  out.latency_p50_ms = QuantileMs(ms, 0.50);
  out.latency_p95_ms = QuantileMs(ms, 0.95);
  out.latency_p99_ms = QuantileMs(ms, 0.99);
}

}  // namespace

SplitReport SplitOutcomes(const replay::RealtimeReport& report,
                          const std::vector<bool>& mask) {
  SplitReport split;
  std::vector<double> legit_ms;
  std::vector<double> attack_ms;
  size_t index = 0;  // outcomes are in trace order, as the mask is
  for (const auto& outcome : report.sends) {
    if (index >= mask.size()) break;
    bool is_attack = mask[index++];
    TrafficClassReport& cls = is_attack ? split.attack : split.legit;
    ++cls.sent;
    switch (outcome.state) {
      case replay::SendOutcome::State::kAnswered:
        ++cls.answered;
        (is_attack ? attack_ms : legit_ms)
            .push_back(ToMillis(outcome.replied - outcome.sent));
        break;
      case replay::SendOutcome::State::kTimedOut:
        ++cls.timed_out;
        break;
      case replay::SendOutcome::State::kSendFailed:
        ++cls.send_failed;
        break;
      case replay::SendOutcome::State::kPending:
        break;
    }
  }
  FillLatencies(split.legit, legit_ms);
  FillLatencies(split.attack, attack_ms);
  return split;
}

AmplificationReport ComputeAmplification(
    server::AuthServerEngine& engine,
    std::span<const trace::QueryRecord> records) {
  AmplificationReport report;
  Bytes wire;
  for (const auto& record : records) {
    wire.clear();
    record.AppendWire(record.id, wire);
    size_t udp_limit =
        record.edns ? record.udp_payload_size : dns::kMaxUdpPayloadDefault;
    auto response = engine.HandleWire(wire, record.dst, udp_limit);
    if (!response.ok()) continue;
    ++report.queries;
    report.query_bytes += wire.size();
    report.response_bytes += response->size();
  }
  return report;
}

Result<SpoofedFloodReport> RunSpoofedFlood(const SpoofedFloodConfig& config) {
  if (config.rate_qps <= 0 || config.n_sockets == 0 ||
      config.rotate_after_sends == 0) {
    return Error(ErrorCode::kInvalidArgument, "bad spoofed-flood config");
  }
  std::unique_ptr<net::EventLoop> loop;
  LDP_ASSIGN_OR_RETURN(loop, net::EventLoop::Create());

  SpoofedFloodReport report;
  auto on_reply = [&report](std::span<const uint8_t>, Endpoint) {
    ++report.replies;
  };

  std::vector<std::unique_ptr<net::UdpSocket>> socks(config.n_sockets);
  std::vector<size_t> sends_on(config.n_sockets, 0);
  auto open = [&](size_t i) {
    auto sock = net::UdpSocket::Bind(
        *loop, Endpoint{IpAddress::Loopback(), 0}, on_reply);
    if (!sock.ok()) return false;
    socks[i] = std::move(*sock);
    sends_on[i] = 0;
    ++report.sockets_opened;
    return true;
  };

  constexpr NanoDuration kTick = Millis(1);
  const NanoTime deadline = MonotonicNow() + config.duration;
  double carry = 0;
  size_t cursor = 0;
  bool stopping = false;
  // Self-rearming pacer; everything it touches outlives loop->Run().
  std::function<void()> tick = [&]() {
    NanoTime now = MonotonicNow();
    if (now >= deadline) {
      if (!stopping) {
        stopping = true;
        loop->ScheduleAfter(config.linger,
                            [&loop]() { loop->RequestStop(); });
      }
      return;
    }
    carry += config.rate_qps * ToSeconds(kTick);
    auto burst = static_cast<size_t>(carry);
    carry -= static_cast<double>(burst);
    for (size_t n = 0; n < burst; ++n) {
      size_t i = cursor++ % socks.size();
      if (socks[i] == nullptr && !open(i)) {
        ++report.send_errors;
        continue;
      }
      if (socks[i]->SendTo(config.query_wire, config.target).ok()) {
        ++report.sent;
      } else {
        ++report.send_errors;
      }
      if (++sends_on[i] >= config.rotate_after_sends) {
        // Rotation: the next use of slot i binds a fresh ephemeral port —
        // a brand-new client endpoint from the proxy's point of view.
        socks[i].reset();
      }
    }
    loop->ScheduleAfter(kTick, tick);
  };
  loop->ScheduleAfter(0, tick);
  loop->Run();
  return report;
}

}  // namespace ldp::scenario
