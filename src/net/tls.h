// DNS-over-TLS transport: a TlsConnection layers TLS (OpenSSL) over a
// net::TcpConnection using memory BIOs, so the event loop, write queue, and
// accept path stay exactly the plain-TCP ones and TLS is pure byte
// transformation in userspace. Compiled against OpenSSL when CMake finds it;
// otherwise every entry point reports kUnsupported and TlsAvailable() is
// false, mirroring the probe-and-skip precedent of the fuzzing subsystem.
//
// OpenSSL never sees a socket: the SSL object reads ciphertext from a
// memory read-BIO that we fill from the TCP data callback, and writes
// ciphertext into a memory write-BIO that we drain into TcpConnection::Send.
#ifndef LDPLAYER_NET_TLS_H
#define LDPLAYER_NET_TLS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/ip.h"
#include "common/result.h"
#include "net/sockets.h"

namespace ldp::net {

// True when the build linked OpenSSL (LDP_HAVE_OPENSSL). Tests call it and
// scripts run `ldp_datapath_probe --tls`, which reports it, to skip TLS
// stages cleanly.
bool TlsAvailable();

// Routes OpenSSL's allocator through counting wrappers so the real bytes
// held by TLS state (SSL objects, buffers, session tickets) are observable
// as a gauge. Must run before any other OpenSSL call in the process;
// returns false (harmless) if OpenSSL already allocated or is absent.
bool TlsEnableMemoryAccounting();

// Live bytes allocated through OpenSSL after TlsEnableMemoryAccounting();
// 0 if accounting is off. The tls.mem_bytes gauge and the fig14 bench
// divide this by open connections for an honest memory/conn figure.
size_t TlsAllocatedBytes();

// Shared TLS configuration plus, on the client side, a session cache.
//
// Server contexts self-sign an in-memory certificate over a fresh EC P-256
// key at startup (the testbed dials by address and verifies nothing, like
// the paper's closed experiment networks; P-256 keeps a full handshake
// ~10x cheaper than RSA-2048 so mass-connection runs are CPU-honest).
//
// Client contexts cache the most recent session per target endpoint
// (captured from OpenSSL's new-session callback, which is where TLS 1.3
// tickets surface) and resume it on the next Connect to the same endpoint —
// the mechanism behind the paper's latency-vs-idle-timeout study: a short
// server idle timeout forces reconnects, and resumption is what keeps those
// reconnects to one round trip.
//
// A server context is shared by all shards (SSL_CTX is internally locked);
// a client context is typically per-querier so its cache needs no
// cross-thread traffic.
class TlsContext {
 public:
  static Result<std::unique_ptr<TlsContext>> NewServer();
  static Result<std::unique_ptr<TlsContext>> NewClient();
  ~TlsContext();

  TlsContext(const TlsContext&) = delete;
  TlsContext& operator=(const TlsContext&) = delete;

  bool is_server() const;
  // Client cache size (sessions held); server: 0.
  size_t cached_sessions() const;

  struct Impl;
  Impl* impl() const { return impl_.get(); }

 private:
  explicit TlsContext(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

// One TLS stream over an owned TcpConnection. Handlers see plaintext only;
// `on_ready` fires once when the handshake completes (or fails — a close or
// alert before completion surfaces there, not via on_close).
class TlsConnection : public StreamConn {
 public:
  using DataHandler = StreamConn::DataHandler;
  using CloseHandler = StreamConn::CloseHandler;
  using ConnectHandler = StreamConn::ConnectHandler;
  using WatermarkHandler = StreamConn::WatermarkHandler;

  // Client side: TCP connect, then handshake (resuming a cached session for
  // `remote` when the context has one). `on_ready` fires after the
  // handshake, so a caller can treat it exactly like TcpConnection's
  // connect callback — by then Send() ships application data immediately.
  static Result<std::unique_ptr<TlsConnection>> Connect(
      EventLoop& loop, TlsContext& ctx, Endpoint remote,
      ConnectHandler on_ready, DataHandler on_data, CloseHandler on_close,
      const TcpConnectOptions& options = TcpConnectOptions());

  // Server side, two-phase so the caller can key its connection table by the
  // returned pointer before any callback can fire: Accept wraps a connection
  // fresh from TcpListener; Start installs handlers and registers it.
  static Result<std::unique_ptr<TlsConnection>> Accept(
      TlsContext& ctx, std::unique_ptr<TcpConnection> conn);
  Status Start(ConnectHandler on_ready, DataHandler on_data,
               CloseHandler on_close);

  ~TlsConnection() override;

  // Plaintext write; buffered until the handshake completes.
  Status Send(std::span<const uint8_t> data) override;
  void SetWriteWatermarks(size_t high, size_t low,
                          WatermarkHandler handler) override;

  bool connected() const override;  // handshake complete
  Endpoint local() const override;
  Endpoint remote() const override;
  size_t queued_bytes() const override;

  // Handshake observability, valid once on_ready fired with Ok():
  bool session_reused() const;            // resumed (ticket/PSK) handshake
  NanoDuration handshake_duration() const;  // TCP-connect/accept → ready

 private:
  friend struct TlsCallbacks;  // OpenSSL session callback (tls.cc)
  struct Ssl;
  TlsConnection();

  void StartHandshake();
  void OnTcpData(std::span<const uint8_t> data);
  void OnTcpClose(Status reason);
  // Drives SSL_do_handshake/SSL_read and flushes produced ciphertext.
  // Returns false if this connection was destroyed by a handler.
  bool Pump();
  bool FlushCiphertext();
  void FailHandshake(Status reason);

  std::unique_ptr<Ssl> ssl_;
  std::unique_ptr<TcpConnection> tcp_;
  TlsContext* context_ = nullptr;
  Endpoint remote_;
  bool is_client_ = false;
  bool handshake_done_ = false;
  bool closed_ = false;
  bool reused_ = false;
  NanoTime start_time_ = 0;
  NanoDuration handshake_ns_ = 0;
  ConnectHandler on_ready_;
  DataHandler on_data_;
  CloseHandler on_close_;
  // Plaintext queued by Send() before the handshake finished.
  std::vector<uint8_t> pending_plaintext_;
  // Handlers may destroy this connection from inside their own invocation;
  // same stack-copy guard as TcpConnection.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace ldp::net

#endif  // LDPLAYER_NET_TLS_H
