// FrameServer: the one machine that accepts, throttles, serves and
// drains AVNF-framed connections — for every listener in the tree
// (vacd's Unix socket and TCP tier, the fleet coordinator's socket).
//
// A single-threaded epoll loop (net/eventloop.h) owns the listeners and
// every connection: non-blocking per-connection read/write state
// machines, persistent connections, pipelined frames. The owner supplies
// one handler that sees each request payload exactly once, on the loop
// thread, and either answers inline (cheap reads) or returns work for
// the worker pool (anything that takes a contended lock or does IO);
// pool replies are posted back to the loop by connection id, and a
// connection that died meanwhile just drops its reply.
//
// Flow control, identical for every listener:
//   * `max_connections` sheds new connects at the door with one
//     best-effort BUSY frame;
//   * a per-connection token bucket sheds individual requests BUSY while
//     keeping the connection usable;
//   * a reader that lets buffered replies pile past `write_buffer_limit`
//     is evicted;
//   * an idle sweep closes connections quiet past `idle_timeout_ms`.
// A stalled or slow client therefore holds an fd and a buffer, never a
// worker thread.
//
// The replies to one read batch go out in one send, and accepted TCP
// connections get TCP_NODELAY: under Nagle, a reply sent while an
// earlier one is unacknowledged waits for the client's delayed ACK.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/endpoint.h"
#include "net/eventloop.h"
#include "net/frame.h"
#include "support/metrics.h"
#include "support/status.h"
#include "support/threadpool.h"

namespace autovac::net {

// Per-connection flow-control limits. VacdOptions inherits them; the
// fleet coordinator serves with the defaults.
struct ConnectionLimits {
  // Concurrent connections, over all listeners, before new connects are
  // shed BUSY at the door; 0 sheds every connect.
  size_t max_connections = 4096;
  // Buffered reply bytes per connection before a non-draining reader is
  // evicted.
  size_t write_buffer_limit = 4u << 20;
  // Token bucket: sustained requests/second and burst capacity; a client
  // that out-runs it gets BUSY replies. 0 rps disables rate limiting.
  double rate_limit_rps = 0.0;
  double rate_limit_burst = 64.0;
  // Connections with no traffic for this long are closed. 0 disables.
  uint64_t idle_timeout_ms = 60000;
};

// What a handler makes of one request payload: either the reply payload
// now (`work` empty, answered on the loop thread) or `work`, run on the
// pool, whose result is the reply payload.
struct FrameAnswer {
  std::string reply;
  std::function<std::string()> work;
};

using FrameHandler = std::function<FrameAnswer(std::string payload)>;

class FrameServer {
 public:
  // `metric_prefix` names the counters: <prefix>.requests,
  // .requests_shed, .rate_limited, .requests_failed,
  // .slow_client_evictions.
  FrameServer(const std::string& metric_prefix, size_t threads,
              ConnectionLimits limits, FrameHandler handler);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Binds every endpoint (a Unix path replaces a stale socket file),
  // then starts the loop thread and the worker pool.
  [[nodiscard]] Status Start(const std::vector<Endpoint>& endpoints);

  // Graceful, idempotent drain: removes the listeners (unlinking Unix
  // paths) and stops reading, keeps the loop running until every
  // request already at the pool has its reply flushed (bounded by a
  // fixed timeout), then closes the connections and stops the loop.
  void Stop();

  // The bound port of the TCP listener (resolving port 0); 0 when none.
  [[nodiscard]] uint16_t tcp_port() const { return tcp_port_; }

  // Frames decoded (answered, shed or handed to the pool).
  [[nodiscard]] uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  // Connects and requests refused with BUSY.
  [[nodiscard]] uint64_t shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  // Readers closed for letting replies pile past write_buffer_limit.
  [[nodiscard]] uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

 private:
  // One connection's state machine. Owned by the loop thread; never
  // touched from anywhere else (pool replies arrive via Post).
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::string outbuf;        // encoded reply frames awaiting the socket
    size_t out_pos = 0;
    bool want_write = false;   // EPOLLOUT currently armed
    bool read_closed = false;  // peer half-closed, or draining
    size_t inflight = 0;       // requests at the pool, replies pending
    double tokens = 0.0;       // rate-limit bucket
    std::chrono::steady_clock::time_point last_refill;
    std::chrono::steady_clock::time_point last_activity;
  };
  struct Listener {
    int fd = -1;
    std::string unix_path;  // unlinked when the listener is removed
  };

  [[nodiscard]] Status Listen(const Endpoint& endpoint);
  // Unregisters, closes and unlinks every listener. Loop thread, or any
  // thread once the loop is joined.
  void CloseListeners();
  // Stop() step one and two, on the loop thread.
  void BeginDrain(std::promise<void>* drained);
  // Fulfils the drain promise once the last connection has closed.
  void NotifyIfDrained();

  void OnAcceptReady(int listen_fd, bool tcp);
  void OnConnReady(uint64_t id, uint32_t events);
  // Decodes and serves every complete frame buffered on `conn`.
  void ServeFrames(Conn& conn);
  // True when the bucket granted one request; refills lazily.
  [[nodiscard]] bool TakeToken(Conn& conn);
  // Appends one reply frame. The replies to one read batch leave in a
  // single send (ServeFrames flushes when the batch is done); a batch
  // whose replies pass write_buffer_limit flushes early, so eviction
  // still bounds the buffer. May close the connection.
  void QueueReply(Conn& conn, const std::string& payload);
  // Drives the buffered writer; arms/disarms EPOLLOUT; evicts when the
  // buffer outgrows write_buffer_limit.
  void FlushConn(Conn& conn);
  void CloseConn(uint64_t id);
  // Closes the connection when nothing more can happen on it.
  void MaybeFinish(Conn& conn);
  void SweepIdle();

  const size_t threads_;
  const ConnectionLimits limits_;
  const FrameHandler handler_;

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<Listener> listeners_;
  uint16_t tcp_port_ = 0;
  bool running_ = false;

  // Loop-thread-only state.
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::promise<void>* drained_ = nullptr;  // set while Stop() waits

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> evicted_{0};

  Counter* requests_metric_ = nullptr;
  Counter* shed_metric_ = nullptr;
  Counter* rate_limited_metric_ = nullptr;
  Counter* failed_metric_ = nullptr;
  Counter* evicted_metric_ = nullptr;

  std::thread loop_thread_;
};

}  // namespace autovac::net
