#include "net/chaosproxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "net/endpoint.h"
#include "net/frame.h"
#include "support/strings.h"

namespace autovac::net {
namespace {

// The backend leg must dial the *real* socket even when a test has
// installed an in-process fault shim, so backend connects bypass
// DialEndpoint (which routes through WireConnect) on purpose: the proxy
// is the fault injector here, not a victim of another one.
int ConnectBackend(const std::string& spec, uint64_t deadline_ms) {
  const Result<Endpoint> endpoint = ParseEndpoint(spec);
  if (!endpoint.ok()) return -1;
  sockaddr_storage storage{};
  socklen_t len = 0;
  int fd = -1;
  if (endpoint->tcp) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint->port);
    const std::string host =
        endpoint->host == "localhost" ? "127.0.0.1" : endpoint->host;
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
    std::memcpy(&storage, &addr, sizeof(addr));
    len = sizeof(addr);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
  } else {
    sockaddr_un addr{};
    if (endpoint->path.size() >= sizeof(addr.sun_path)) return -1;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, endpoint->path.c_str(),
                endpoint->path.size() + 1);
    std::memcpy(&storage, &addr, sizeof(addr));
    len = sizeof(addr);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  }
  if (fd < 0) return -1;
  SetDeadlines(fd, deadline_ms);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&storage), len) !=
         0) {
    if (errno == EINTR) continue;
    if (errno == EISCONN) break;
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

ChaosProxy::ChaosProxy(const NetFaultPlan& plan, ChaosProxyOptions options)
    : plan_(plan), options_(std::move(options)), injector_(plan_) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  if (running_) return Status::FailedPrecondition("proxy already running");

  AUTOVAC_ASSIGN_OR_RETURN(const Endpoint listen_endpoint,
                           ParseEndpoint(options_.listen_path));
  listen_unix_ = !listen_endpoint.tcp;
  AUTOVAC_ASSIGN_OR_RETURN(listen_fd_,
                           ListenEndpoint(listen_endpoint, /*backlog=*/16));
  if (listen_endpoint.tcp) {
    const Result<uint16_t> port = ListenPort(listen_fd_);
    if (!port.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return port.status();
    }
    listen_port_ = *port;
  }
  if (::pipe(stop_pipe_) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (listen_unix_) (void)::unlink(options_.listen_path.c_str());
    return Status::Internal(
        StrFormat("pipe failed: %s", std::strerror(err)));
  }
  accept_thread_ = std::thread(&ChaosProxy::AcceptLoop, this);
  running_ = true;
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (!running_) return;
  const char stop = 'x';
  while (::write(stop_pipe_[1], &stop, 1) < 0 && errno == EINTR) {
  }
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  listen_port_ = 0;
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  if (listen_unix_) (void)::unlink(options_.listen_path.c_str());
  running_ = false;
}

void ChaosProxy::AcceptLoop() {
  while (true) {
    pollfd fds[2];
    fds[0] = {stop_pipe_[0], POLLIN, 0};
    fds[1] = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) return;  // stop requested
    if ((fds[1].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetDeadlines(fd, options_.deadline_ms);
    const ConnectionFaults faults = injector_.OnConnect();
    connections_.fetch_add(1, std::memory_order_relaxed);
    if (!faults.Clean()) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.verbose) {
      std::fprintf(stderr, "chaos-proxy: conn %llu: %s\n",
                   static_cast<unsigned long long>(connections()),
                   faults.Summary().c_str());
    }
    Relay(fd, faults);
  }
}

bool ChaosProxy::RelayBytes(int fd, std::string_view bytes, int64_t cut_at,
                            bool byte_at_a_time, uint64_t* relayed) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    if (cut_at >= 0 && *relayed >= static_cast<uint64_t>(cut_at)) {
      (void)::shutdown(fd, SHUT_RDWR);
      return false;
    }
    size_t chunk = bytes.size() - offset;
    if (cut_at >= 0) {
      chunk = std::min<size_t>(chunk,
                               static_cast<uint64_t>(cut_at) - *relayed);
    }
    if (byte_at_a_time) chunk = 1;
    const ssize_t n = ::send(fd, bytes.data() + offset, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    offset += static_cast<size_t>(n);
    *relayed += static_cast<uint64_t>(n);
  }
  return true;
}

void ChaosProxy::Relay(int client_fd, const ConnectionFaults& faults) {
  if (faults.refuse) {
    // Close without a byte: the client observes a refused/empty
    // connection, the NotFound outcome its retry loop keys on.
    ::close(client_fd);
    return;
  }
  if (faults.stall_ms > 0) {
    ::usleep(static_cast<useconds_t>(faults.stall_ms * 1000));
  }

  Result<std::string> request = ReadNetFrame(client_fd);
  if (!request.ok()) {
    ::close(client_fd);
    return;
  }
  const std::string raw_request = EncodeNetFrame(*request);

  const int backend = ConnectBackend(options_.backend_path, options_.deadline_ms);
  if (backend < 0) {
    ::close(client_fd);
    return;
  }
  uint64_t sent = 0;
  if (!RelayBytes(backend, raw_request, faults.cut_send_at,
                  faults.short_send, &sent)) {
    // The server saw a torn request; the client gets no reply at all.
    ::close(backend);
    ::close(client_fd);
    return;
  }

  if (faults.duplicate) {
    // The wire event an idempotent push must absorb: the same request
    // frame arrives twice, and only one reply reaches the client.
    const int twin = ConnectBackend(options_.backend_path, options_.deadline_ms);
    if (twin >= 0) {
      uint64_t twin_sent = 0;
      if (RelayBytes(twin, raw_request, -1, false, &twin_sent)) {
        (void)ReadNetFrame(twin);  // drain and discard the twin reply
      }
      ::close(twin);
    }
  }

  Result<std::string> reply = ReadNetFrame(backend);
  ::close(backend);
  if (!reply.ok()) {
    ::close(client_fd);
    return;
  }
  uint64_t received = 0;
  (void)RelayBytes(client_fd, EncodeNetFrame(*reply), faults.cut_recv_at,
                   faults.short_recv, &received);
  ::close(client_fd);
}

}  // namespace autovac::net
