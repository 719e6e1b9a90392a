#include <gtest/gtest.h>

#include <vector>

#include "dns/framing.h"
#include "net/event_loop.h"
#include "net/sockets.h"

namespace ldp::net {
namespace {

TEST(EventLoop, TimersFireInOrder) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  std::vector<int> order;
  NanoTime start = MonotonicNow();
  (*loop)->ScheduleAt(start + Millis(4), [&] { order.push_back(2); });
  (*loop)->ScheduleAt(start + Millis(1), [&] { order.push_back(1); });
  (*loop)->ScheduleAt(start + Millis(8), [&] {
    order.push_back(3);
    (*loop)->Stop();
  });
  (*loop)->Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TimerAccuracySubMillisecond) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  NanoTime fired = 0;
  NanoTime deadline = MonotonicNow() + Millis(5);
  (*loop)->ScheduleAt(deadline, [&] {
    fired = MonotonicNow();
    (*loop)->Stop();
  });
  (*loop)->Run();
  ASSERT_GT(fired, 0);
  EXPECT_GE(fired, deadline);
  // Generous bound (loaded CI machines); typical error is < 100 µs with
  // epoll_pwait2.
  EXPECT_LT(fired - deadline, Millis(5));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  bool fired = false;
  TimerHandle handle =
      (*loop)->ScheduleAfter(Millis(1), [&] { fired = true; });
  handle.Cancel();
  (*loop)->ScheduleAfter(Millis(3), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, ZeroDelayRearmDoesNotStarveIo) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  // A handler that re-arms itself with a zero delay must not monopolize
  // the timer pass: the loop has to keep polling epoll between passes, or
  // socket reads starve for as long as the re-arm chain continues (the
  // fast-mode replay pump works exactly like this).
  int pumps = 0;
  bool received = false;
  std::function<void()> pump = [&] {
    ++pumps;
    if (!received && pumps < 100000) (*loop)->ScheduleAfter(0, pump);
  };
  (*loop)->ScheduleAfter(0, pump);

  std::unique_ptr<UdpSocket> receiver;
  auto receiver_result = UdpSocket::Bind(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const uint8_t>, Endpoint) {
        received = true;
        (*loop)->Stop();
      });
  ASSERT_TRUE(receiver_result.ok());
  receiver = std::move(*receiver_result);

  auto sender_result =
      UdpSocket::Bind(**loop, Endpoint{IpAddress::Loopback(), 0},
                      [](std::span<const uint8_t>, Endpoint) {});
  ASSERT_TRUE(sender_result.ok());
  auto sender = std::move(*sender_result);
  Bytes ping{1};
  ASSERT_TRUE(sender->SendTo(ping, receiver->local()).ok());

  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_TRUE(received) << "IO starved by a zero-delay re-arm chain";
  EXPECT_GT(pumps, 0);
}

TEST(UdpSockets, EchoOverLoopback) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  // Server: echoes back.
  std::unique_ptr<UdpSocket> server;
  auto server_result = UdpSocket::Bind(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&server](std::span<const uint8_t> payload, Endpoint from) {
        auto status = server->SendTo(payload, from);
        EXPECT_TRUE(status.ok());
      });
  ASSERT_TRUE(server_result.ok()) << server_result.error().ToString();
  server = std::move(*server_result);
  ASSERT_NE(server->local().port, 0);

  Bytes received;
  auto client_result = UdpSocket::Bind(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const uint8_t> payload, Endpoint) {
        received.assign(payload.begin(), payload.end());
        (*loop)->Stop();
      });
  ASSERT_TRUE(client_result.ok());
  auto client = std::move(*client_result);

  Bytes message{1, 2, 3, 4};
  ASSERT_TRUE(client->SendTo(message, server->local()).ok());
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();
  EXPECT_EQ(received, message);
}

TEST(TcpSockets, ConnectSendReceiveClose) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::vector<std::unique_ptr<TcpConnection>> server_conns;
  auto listener_result = TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::unique_ptr<TcpConnection> conn) {
        TcpConnection* raw = conn.get();
        server_conns.push_back(std::move(conn));
        auto status = TcpListener::AdoptHandlers(
            *raw,
            [raw](std::span<const uint8_t> data) {
              // Echo.
              auto send_ok = raw->Send(data);
              EXPECT_TRUE(send_ok.ok());
            },
            [](Status) {});
        EXPECT_TRUE(status.ok());
      });
  ASSERT_TRUE(listener_result.ok()) << listener_result.error().ToString();
  auto listener = std::move(*listener_result);

  Bytes received;
  bool connected = false;
  std::unique_ptr<TcpConnection> client;
  auto client_result = TcpConnection::Connect(
      **loop, listener->local(),
      [&](Status status) {
        ASSERT_TRUE(status.ok());
        connected = true;
        Bytes hello{'h', 'i'};
        auto send_ok = client->Send(hello);
        EXPECT_TRUE(send_ok.ok());
      },
      [&](std::span<const uint8_t> data) {
        received.insert(received.end(), data.begin(), data.end());
        if (received.size() >= 2) (*loop)->Stop();
      },
      [](Status) {});
  ASSERT_TRUE(client_result.ok());
  client = std::move(*client_result);

  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(received, (Bytes{'h', 'i'}));
}

TEST(TcpSockets, LargeTransferSurvivesBuffering) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::vector<std::unique_ptr<TcpConnection>> server_conns;
  size_t server_received = 0;
  const size_t kTotal = 4 * 1024 * 1024;
  auto listener_result = TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::unique_ptr<TcpConnection> conn) {
        TcpConnection* raw = conn.get();
        server_conns.push_back(std::move(conn));
        auto status = TcpListener::AdoptHandlers(
            *raw,
            [&](std::span<const uint8_t> data) {
              server_received += data.size();
              if (server_received >= kTotal) (*loop)->Stop();
            },
            [](Status) {});
        EXPECT_TRUE(status.ok());
      });
  ASSERT_TRUE(listener_result.ok());
  auto listener = std::move(*listener_result);

  std::unique_ptr<TcpConnection> client;
  Bytes chunk(64 * 1024, 0x5a);
  auto client_result = TcpConnection::Connect(
      **loop, listener->local(),
      [&](Status status) {
        ASSERT_TRUE(status.ok());
        for (size_t sent = 0; sent < kTotal; sent += chunk.size()) {
          auto send_ok = client->Send(chunk);
          ASSERT_TRUE(send_ok.ok());
        }
      },
      [](std::span<const uint8_t>) {}, [](Status) {});
  ASSERT_TRUE(client_result.ok());
  client = std::move(*client_result);

  (*loop)->ScheduleAfter(Seconds(10), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_EQ(server_received, kTotal);
}

TEST(TcpSockets, ConnectRefusedSurfaces) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  bool failed = false;
  std::unique_ptr<TcpConnection> client;
  // Port 1 on loopback: almost certainly closed.
  auto result = TcpConnection::Connect(
      **loop, Endpoint{IpAddress::Loopback(), 1},
      [&](Status status) {
        failed = !status.ok();
        (*loop)->Stop();
      },
      [](std::span<const uint8_t>) {}, [](Status) {});
  ASSERT_TRUE(result.ok());
  client = std::move(*result);
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_TRUE(failed);
}

TEST(TcpSockets, CloseReasonSurfacesCleanEof) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  // Accept and immediately drop the connection: the unique_ptr dies on
  // return, the kernel sends FIN, and the client's close handler must see
  // a clean (ok) reason rather than an error.
  auto listener_result = TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [](std::unique_ptr<TcpConnection>) {});
  ASSERT_TRUE(listener_result.ok());
  auto listener = std::move(*listener_result);

  bool close_fired = false;
  Status close_reason = Status::Ok();
  std::unique_ptr<TcpConnection> client;
  auto client_result = TcpConnection::Connect(
      **loop, listener->local(),
      [](Status status) { ASSERT_TRUE(status.ok()); },
      [](std::span<const uint8_t>) {},
      [&](Status reason) {
        close_fired = true;
        close_reason = reason;
        (*loop)->Stop();
      });
  ASSERT_TRUE(client_result.ok());
  client = std::move(*client_result);

  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_TRUE(close_fired);
  EXPECT_TRUE(close_reason.ok())
      << (close_reason.ok() ? "" : close_reason.error().ToString());
}

TEST(TcpSockets, WriteWatermarksSignalPauseAndResume) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  // The accepted connection is parked unread at first, so the client's
  // user-space send queue grows past the high watermark; adopting a
  // consuming handler later drains it back below the low watermark.
  std::unique_ptr<TcpConnection> server_conn;
  auto listener_result = TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::unique_ptr<TcpConnection> conn) {
        server_conn = std::move(conn);
      });
  ASSERT_TRUE(listener_result.ok());
  auto listener = std::move(*listener_result);

  std::vector<bool> events;  // true = paused, false = resumed
  std::unique_ptr<TcpConnection> client;
  Bytes chunk(64 * 1024, 0xab);
  auto client_result = TcpConnection::Connect(
      **loop, listener->local(),
      [&](Status status) {
        ASSERT_TRUE(status.ok());
        // Send until the high watermark fires (kernel buffers are finite,
        // so this terminates well before the 200-chunk cap).
        for (int i = 0; i < 200 && events.empty(); ++i) {
          ASSERT_TRUE(client->Send(chunk).ok());
        }
        EXPECT_FALSE(events.empty()) << "high watermark never fired";
      },
      [](std::span<const uint8_t>) {}, [](Status) {});
  ASSERT_TRUE(client_result.ok());
  client = std::move(*client_result);
  client->SetWriteWatermarks(128 * 1024, 16 * 1024, [&](bool paused) {
    events.push_back(paused);
    if (!paused) (*loop)->Stop();
  });

  (*loop)->ScheduleAfter(Millis(100), [&] {
    if (server_conn == nullptr) return;
    auto status = TcpListener::AdoptHandlers(
        *server_conn, [](std::span<const uint8_t>) {}, [](Status) {});
    EXPECT_TRUE(status.ok());
  });
  (*loop)->ScheduleAfter(Seconds(5), [&] { (*loop)->Stop(); });
  (*loop)->Run();

  ASSERT_GE(events.size(), 2u);
  EXPECT_TRUE(events[0]);   // paused when the queue crossed high
  EXPECT_FALSE(events[1]);  // resumed once drained to low
}

TEST(TcpSockets, DestroyInsideDataCallbackIsSafe) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::vector<std::unique_ptr<TcpConnection>> server_conns;
  auto listener_result = TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::unique_ptr<TcpConnection> conn) {
        TcpConnection* raw = conn.get();
        server_conns.push_back(std::move(conn));
        auto status = TcpListener::AdoptHandlers(
            *raw,
            [raw](std::span<const uint8_t> data) {
              auto send_ok = raw->Send(data);
              EXPECT_TRUE(send_ok.ok());
            },
            [](Status) {});
        EXPECT_TRUE(status.ok());
      });
  ASSERT_TRUE(listener_result.ok());
  auto listener = std::move(*listener_result);

  // The client destroys itself from inside its own data callback — the
  // pattern a replay querier hits when a reply retires the connection.
  // Must not touch freed memory (ASan-verified in the sanitizer preset).
  bool got_data = false;
  std::unique_ptr<TcpConnection> client;
  auto client_result = TcpConnection::Connect(
      **loop, listener->local(),
      [&](Status status) {
        ASSERT_TRUE(status.ok());
        Bytes ping{'p', 'i', 'n', 'g'};
        ASSERT_TRUE(client->Send(ping).ok());
      },
      [&](std::span<const uint8_t>) {
        got_data = true;
        client.reset();
        (*loop)->ScheduleAfter(Millis(10), [&] { (*loop)->Stop(); });
      },
      [](Status) {});
  ASSERT_TRUE(client_result.ok());
  client = std::move(*client_result);

  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });
  (*loop)->Run();
  EXPECT_TRUE(got_data);
  EXPECT_EQ(client, nullptr);
}

TEST(UdpSockets, BatchSendAndBatchReceive) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  // Receiver in batch mode: whole recvmmsg batches per handler call.
  std::vector<Bytes> got;
  size_t handler_calls = 0;
  std::unique_ptr<UdpSocket> receiver;
  auto receiver_result = UdpSocket::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const UdpSocket::RecvItem> batch) {
        ++handler_calls;
        for (const auto& item : batch) {
          got.emplace_back(item.payload.begin(), item.payload.end());
        }
        if (got.size() >= 50) (*loop)->Stop();
      });
  ASSERT_TRUE(receiver_result.ok());
  receiver = std::move(*receiver_result);

  auto sender_result =
      UdpSocket::Bind(**loop, Endpoint{IpAddress::Loopback(), 0},
                      [](std::span<const uint8_t>, Endpoint) {});
  ASSERT_TRUE(sender_result.ok());
  auto sender = std::move(*sender_result);

  // 50 datagrams in one SendBatch: spans two sendmmsg chunks (kBatchSize
  // is 32) and two recvmmsg batches on the way in.
  std::vector<Bytes> payloads;
  for (uint8_t i = 0; i < 50; ++i) payloads.push_back(Bytes{i, i, i});
  std::vector<UdpSendItem> items;
  for (const Bytes& p : payloads) {
    items.push_back(UdpSendItem{p, receiver->local()});
  }
  EXPECT_EQ(sender->SendBatch(items), items.size());

  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();
  ASSERT_EQ(got.size(), payloads.size());
  EXPECT_EQ(got, payloads);  // loopback preserves order
  EXPECT_LT(handler_calls, payloads.size()) << "expected batched delivery";
}

TEST(UdpSockets, ReusePortSharesAnAddress) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  UdpSocket::Options options;
  options.reuse_port = true;
  options.recv_buffer_bytes = 1 << 20;
  auto first =
      UdpSocket::Bind(**loop, Endpoint{IpAddress::Loopback(), 0},
                      [](std::span<const uint8_t>, Endpoint) {}, options);
  ASSERT_TRUE(first.ok());
  Endpoint shared = (*first)->local();

  // Second bind to the same concrete port succeeds only via SO_REUSEPORT.
  auto second = UdpSocket::Bind(
      **loop, shared, [](std::span<const uint8_t>, Endpoint) {}, options);
  EXPECT_TRUE(second.ok()) << (second.ok() ? "" : second.error().ToString());

  // Without the option the same bind must fail.
  auto third = UdpSocket::Bind(**loop, shared,
                               [](std::span<const uint8_t>, Endpoint) {});
  EXPECT_FALSE(third.ok());
}

// Every UdpSocket of a loop reads into the loop's one receive arena: two
// sockets' payloads land in the same slot, one after the other.
TEST(UdpSockets, SocketsOfOneLoopShareOneReceiveArena) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::vector<const uint8_t*> slots;
  std::vector<Bytes> got;
  auto on_batch = [&](std::span<const UdpSocket::RecvItem> batch) {
    for (const auto& item : batch) {
      slots.push_back(item.payload.data());
      got.emplace_back(item.payload.begin(), item.payload.end());
    }
    if (got.size() == 2) (*loop)->Stop();
  };
  auto a = UdpSocket::Open(**loop, Endpoint{IpAddress::Loopback(), 0},
                           on_batch);
  auto b = UdpSocket::Open(**loop, Endpoint{IpAddress::Loopback(), 0},
                           on_batch);
  ASSERT_TRUE(a.ok() && b.ok());

  const Bytes to_a = {'a'};
  const Bytes to_b = {'b', 'b'};
  ASSERT_TRUE((*a)->SendTo(to_a, (*a)->local()).ok());
  ASSERT_TRUE((*a)->SendTo(to_b, (*b)->local()).ok());
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();

  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE((got[0] == to_a && got[1] == to_b) ||
              (got[0] == to_b && got[1] == to_a));
  EXPECT_EQ(slots[0], slots[1]);
}

// The arena's one rule: no socket is read while another socket's batch
// handler still holds payloads in it. Debug builds assert it.
TEST(UdpSocketsDeathTest, ReadInsideAnotherSocketsHandlerAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the receive-arena guard is an assert (debug builds)";
#else
  EXPECT_DEATH(
      {
        auto loop = EventLoop::Create();
        std::unique_ptr<UdpSocket> other;
        auto reader = UdpSocket::Open(
            **loop, Endpoint{IpAddress::Loopback(), 0},
            [&](std::span<const UdpSocket::RecvItem>) { other->Drain(); });
        auto bound = UdpSocket::Open(
            **loop, Endpoint{IpAddress::Loopback(), 0},
            [](std::span<const UdpSocket::RecvItem>) {});
        other = std::move(*bound);
        const Bytes ping = {'p'};
        (void)(*reader)->SendTo(ping, (*reader)->local());
        (void)(*loop)->RunOnce(Seconds(2));
      },
      "receive slots");
#endif
}

}  // namespace
}  // namespace ldp::net
