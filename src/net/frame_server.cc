#include "net/frame_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "net/binary.h"
#include "net/protocol.h"

namespace autovac::net {
namespace {

// A deep backlog: fleet ramps connect thousands of clients in bursts,
// and a dropped SYN costs the client a multi-second kernel retry.
constexpr int kBacklog = 1024;
// The idle-sweep tick.
constexpr uint64_t kTickMs = 500;
// How long Stop() keeps the loop running for replies still at the pool.
// Above any single mutation's store IO; a wedged handler cannot hold
// shutdown hostage past it.
constexpr auto kDrainTimeout = std::chrono::seconds(10);

uint64_t MsSince(std::chrono::steady_clock::time_point then,
                 std::chrono::steady_clock::time_point now) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
          .count());
}

// Errors the server raises itself use the ErrorReply shape every framed
// protocol shares; a rate-limit BUSY answers in the request's encoding.
std::string ErrorPayload(bool busy, std::string message,
                         std::string_view request = {}) {
  const Reply reply = ErrorReply{busy, std::move(message)};
  return IsBinaryPayload(request) ? EncodeBinaryReply(reply)
                                  : ReplyToJson(reply);
}

}  // namespace

FrameServer::FrameServer(const std::string& metric_prefix, size_t threads,
                         ConnectionLimits limits, FrameHandler handler)
    : threads_(std::max<size_t>(threads, 1)),
      limits_(limits),
      handler_(std::move(handler)) {
  MetricsRegistry& metrics = GlobalMetrics();
  requests_metric_ = metrics.GetCounter(metric_prefix + ".requests");
  shed_metric_ = metrics.GetCounter(metric_prefix + ".requests_shed");
  rate_limited_metric_ = metrics.GetCounter(metric_prefix + ".rate_limited");
  failed_metric_ = metrics.GetCounter(metric_prefix + ".requests_failed");
  evicted_metric_ =
      metrics.GetCounter(metric_prefix + ".slow_client_evictions");
}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start(const std::vector<Endpoint>& endpoints) {
  if (running_) return Status::FailedPrecondition("server already running");
  loop_ = std::make_unique<EventLoop>();
  Status status = loop_->Init();
  for (const Endpoint& endpoint : endpoints) {
    if (!status.ok()) break;
    status = Listen(endpoint);
  }
  if (!status.ok()) {
    CloseListeners();
    loop_.reset();
    tcp_port_ = 0;
    return status;
  }
  pool_ = std::make_unique<ThreadPool>(threads_);
  loop_thread_ =
      std::thread([this] { loop_->Run(kTickMs, [this] { SweepIdle(); }); });
  running_ = true;
  return Status::Ok();
}

Status FrameServer::Listen(const Endpoint& endpoint) {
  AUTOVAC_ASSIGN_OR_RETURN(const int fd, ListenEndpoint(endpoint, kBacklog));
  listeners_.push_back({fd, endpoint.tcp ? "" : endpoint.path});
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (endpoint.tcp) {
    AUTOVAC_ASSIGN_OR_RETURN(tcp_port_, ListenPort(fd));
  }
  const bool tcp = endpoint.tcp;
  return loop_->Add(fd, EPOLLIN,
                    [this, fd, tcp](uint32_t) { OnAcceptReady(fd, tcp); });
}

void FrameServer::CloseListeners() {
  for (const Listener& listener : listeners_) {
    if (loop_) loop_->Remove(listener.fd);
    ::close(listener.fd);
    if (!listener.unix_path.empty()) {
      (void)::unlink(listener.unix_path.c_str());
    }
  }
  listeners_.clear();
}

void FrameServer::Stop() {
  if (!running_) return;
  std::promise<void> drained;
  std::future<void> done = drained.get_future();
  loop_->Post([this, &drained] { BeginDrain(&drained); });
  (void)done.wait_for(kDrainTimeout);
  loop_->Stop();
  loop_thread_.join();
  drained_ = nullptr;
  // Joins the workers. A reply that outlived the drain timeout is posted
  // to the stopped (but live) loop and dropped with it.
  pool_.reset();
  CloseListeners();  // a no-op unless the loop never ran BeginDrain
  for (const auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  loop_.reset();
  tcp_port_ = 0;
  running_ = false;
}

void FrameServer::BeginDrain(std::promise<void>* drained) {
  CloseListeners();
  // Stop reading: nothing new is admitted, but every request already at
  // the pool still has its reply posted and flushed before its
  // connection closes (MaybeFinish).
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    conn->read_closed = true;
    (void)loop_->Modify(conn->fd, conn->want_write ? uint32_t{EPOLLOUT} : 0u);
    ids.push_back(id);
  }
  drained_ = drained;
  for (const uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it != conns_.end()) MaybeFinish(*it->second);
  }
  NotifyIfDrained();
}

void FrameServer::NotifyIfDrained() {
  if (drained_ != nullptr && conns_.empty()) {
    drained_->set_value();
    drained_ = nullptr;
  }
}

void FrameServer::OnAcceptReady(int listen_fd, bool tcp) {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    if (conns_.size() >= limits_.max_connections) {
      // Shed at the door: one best-effort busy frame, then close.
      shed_.fetch_add(1, std::memory_order_relaxed);
      shed_metric_->Increment();
      const std::string frame =
          EncodeNetFrame(ErrorPayload(true, "server overloaded"));
      (void)::send(fd, frame.data(), frame.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    if (tcp) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->tokens = limits_.rate_limit_burst;
    const auto now = std::chrono::steady_clock::now();
    conn->last_refill = now;
    conn->last_activity = now;
    const uint64_t id = conn->id;
    const Status added = loop_->Add(
        fd, EPOLLIN, [this, id](uint32_t events) { OnConnReady(id, events); });
    if (!added.ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
  }
}

void FrameServer::OnConnReady(uint64_t id, uint32_t events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConn(id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushConn(conn);
    if (conns_.find(id) == conns_.end()) return;
  }
  if ((events & EPOLLIN) != 0 && !conn.read_closed) {
    conn.last_activity = std::chrono::steady_clock::now();
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) {
        // Peer half-closed. Drop EPOLLIN so the (level-triggered) EOF
        // condition does not spin the loop while replies drain.
        conn.read_closed = true;
        (void)loop_->Modify(conn.fd,
                            conn.want_write ? uint32_t{EPOLLOUT} : 0u);
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(id);
      return;
    }
    ServeFrames(conn);
    const auto again = conns_.find(id);
    if (again != conns_.end()) MaybeFinish(*again->second);
  }
}

void FrameServer::ServeFrames(Conn& conn) {
  const uint64_t id = conn.id;
  while (true) {
    std::string payload;
    const Result<bool> got = conn.decoder.Next(&payload);
    if (!got.ok()) {
      // Framing corruption is unrecoverable: one best-effort error
      // reply, then close — resyncing a torn stream is not possible.
      failed_metric_->Increment();
      QueueReply(conn, ErrorPayload(false, got.status().ToString()));
      if (conns_.find(id) != conns_.end()) FlushConn(conn);
      CloseConn(id);
      return;
    }
    if (!*got) {
      FlushConn(conn);
      return;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_metric_->Increment();
    if (!TakeToken(conn)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      shed_metric_->Increment();
      rate_limited_metric_->Increment();
      QueueReply(conn, ErrorPayload(true, "rate limited", payload));
      if (conns_.find(id) == conns_.end()) return;
      continue;
    }
    FrameAnswer answer = handler_(std::move(payload));
    if (!answer.work) {
      QueueReply(conn, answer.reply);
      if (conns_.find(id) == conns_.end()) return;
      continue;
    }
    conn.inflight++;
    pool_->Submit([this, id, work = std::move(answer.work)] {
      std::string reply = work();
      loop_->Post([this, id, reply = std::move(reply)] {
        const auto it = conns_.find(id);
        if (it == conns_.end()) return;
        it->second->inflight--;
        QueueReply(*it->second, reply);
        const auto again = conns_.find(id);
        if (again != conns_.end()) FlushConn(*again->second);
      });
    });
  }
}

bool FrameServer::TakeToken(Conn& conn) {
  if (limits_.rate_limit_rps <= 0.0) return true;
  const auto now = std::chrono::steady_clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - conn.last_refill).count();
  conn.last_refill = now;
  conn.tokens = std::min(limits_.rate_limit_burst,
                         conn.tokens + elapsed * limits_.rate_limit_rps);
  if (conn.tokens < 1.0) return false;
  conn.tokens -= 1.0;
  return true;
}

void FrameServer::QueueReply(Conn& conn, const std::string& payload) {
  conn.outbuf += EncodeNetFrame(payload);
  conn.last_activity = std::chrono::steady_clock::now();
  if (conn.outbuf.size() - conn.out_pos > limits_.write_buffer_limit) {
    FlushConn(conn);
  }
}

void FrameServer::FlushConn(Conn& conn) {
  const uint64_t id = conn.id;
  while (conn.out_pos < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_pos,
               conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(id);
    return;
  }
  if (conn.out_pos >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_pos = 0;
    if (conn.want_write) {
      conn.want_write = false;
      (void)loop_->Modify(conn.fd,
                          conn.read_closed ? 0u : uint32_t{EPOLLIN});
    }
    MaybeFinish(conn);
    return;
  }
  if (conn.outbuf.size() - conn.out_pos > limits_.write_buffer_limit) {
    // The reader stopped draining and the bounded buffer filled: evict.
    evicted_.fetch_add(1, std::memory_order_relaxed);
    evicted_metric_->Increment();
    CloseConn(id);
    return;
  }
  if (!conn.want_write) {
    conn.want_write = true;
    (void)loop_->Modify(conn.fd, (conn.read_closed ? 0u : uint32_t{EPOLLIN}) |
                                     uint32_t{EPOLLOUT});
  }
}

void FrameServer::CloseConn(uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  loop_->Remove(it->second->fd);
  ::close(it->second->fd);
  conns_.erase(it);
  NotifyIfDrained();
}

void FrameServer::MaybeFinish(Conn& conn) {
  if (conn.read_closed && conn.inflight == 0 &&
      conn.out_pos >= conn.outbuf.size()) {
    CloseConn(conn.id);
  }
}

void FrameServer::SweepIdle() {
  if (limits_.idle_timeout_ms == 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<uint64_t> stale;
  for (const auto& [id, conn] : conns_) {
    if (conn->inflight == 0 &&
        MsSince(conn->last_activity, now) > limits_.idle_timeout_ms) {
      stale.push_back(id);
    }
  }
  for (const uint64_t id : stale) CloseConn(id);
}

}  // namespace autovac::net
