#include "net/endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/faultwire.h"
#include "support/strings.h"

namespace autovac::net {
namespace {

constexpr std::string_view kTcpPrefix = "tcp:";

Result<sockaddr_in> TcpAddress(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  const std::string host =
      endpoint.host == "localhost" ? "127.0.0.1" : endpoint.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(StrFormat(
        "bad TCP host '%s' (numeric IPv4 or localhost)", host.c_str()));
  }
  return addr;
}

Result<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket path too long: %s", path.c_str()));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void SetDeadlines(int fd, uint64_t deadline_ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(deadline_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((deadline_ms % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

std::string Endpoint::Spec() const {
  if (!tcp) return path;
  return StrFormat("tcp:%s:%u", host.c_str(),
                   static_cast<unsigned>(port));
}

Result<Endpoint> ParseEndpoint(std::string_view spec) {
  Endpoint endpoint;
  if (spec.substr(0, kTcpPrefix.size()) != kTcpPrefix) {
    if (spec.empty()) {
      return Status::InvalidArgument("empty endpoint spec");
    }
    endpoint.path = std::string(spec);
    return endpoint;
  }
  endpoint.tcp = true;
  const std::string_view rest = spec.substr(kTcpPrefix.size());
  const size_t colon = rest.rfind(':');
  std::string_view host = "127.0.0.1";
  std::string_view port_text = rest;
  if (colon != std::string_view::npos) {
    host = rest.substr(0, colon);
    port_text = rest.substr(colon + 1);
  }
  if (host.empty() || port_text.empty()) {
    return Status::InvalidArgument(
        StrFormat("bad TCP endpoint '%s' (want tcp:host:port)",
                  std::string(spec).c_str()));
  }
  uint64_t port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrFormat("bad TCP port in '%s'", std::string(spec).c_str()));
    }
    port = port * 10 + static_cast<uint64_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument(
          StrFormat("TCP port out of range in '%s'",
                    std::string(spec).c_str()));
    }
  }
  endpoint.host = std::string(host);
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Result<int> ListenEndpoint(const Endpoint& endpoint, int backlog) {
  if (endpoint.tcp) {
    AUTOVAC_ASSIGN_OR_RETURN(const sockaddr_in addr, TcpAddress(endpoint));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(
          StrFormat("socket failed: %s", std::strerror(errno)));
    }
    const int enable = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable,
                       sizeof(enable));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat("bind %s failed: %s",
                                        endpoint.Spec().c_str(),
                                        std::strerror(err)));
    }
    if (::listen(fd, backlog) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal(
          StrFormat("listen failed: %s", std::strerror(err)));
    }
    return fd;
  }

  AUTOVAC_ASSIGN_OR_RETURN(const sockaddr_un addr,
                           UnixAddress(endpoint.path));
  // A stale socket file from a previous (crashed) server blocks bind.
  (void)::unlink(endpoint.path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("bind %s failed: %s",
                                      endpoint.path.c_str(),
                                      std::strerror(err)));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    (void)::unlink(endpoint.path.c_str());
    return Status::Internal(
        StrFormat("listen failed: %s", std::strerror(err)));
  }
  return fd;
}

Result<uint16_t> ListenPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return Status::Internal("getsockname failed");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> DialEndpoint(const Endpoint& endpoint, uint64_t deadline_ms) {
  int fd = -1;
  sockaddr_storage storage{};
  socklen_t len = 0;
  if (endpoint.tcp) {
    AUTOVAC_ASSIGN_OR_RETURN(const sockaddr_in addr, TcpAddress(endpoint));
    std::memcpy(&storage, &addr, sizeof(addr));
    len = sizeof(addr);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
  } else {
    AUTOVAC_ASSIGN_OR_RETURN(const sockaddr_un addr,
                             UnixAddress(endpoint.path));
    std::memcpy(&storage, &addr, sizeof(addr));
    len = sizeof(addr);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  }
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  SetDeadlines(fd, deadline_ms);
  // WireConnect retries EINTR and applies the installed NetFaultPlan, if
  // any — TCP connections inherit the chaos shim for free.
  if (WireConnect(fd, reinterpret_cast<const sockaddr*>(&storage), len) !=
      0) {
    const int err = errno;
    WireClose(fd);
    // Refused/absent reads as "no server yet" so startup-wait loops can
    // key on NotFound alone.
    return Status::NotFound(StrFormat("connect %s failed: %s",
                                      endpoint.Spec().c_str(),
                                      std::strerror(err)));
  }
  return fd;
}

}  // namespace autovac::net
