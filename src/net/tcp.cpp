#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/require.hpp"

namespace pfrdtn::net {

namespace {

/// listen(2) backlog. Deep enough that a connection storm (the
/// concurrent e2e drives 100+ clients at once) queues instead of
/// getting refused.
constexpr int kListenBacklog = 256;

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

void set_io_timeouts(int fd, const TcpOptions& options) {
  timeval tv{};
  tv.tv_sec = options.io_timeout_ms / 1000;
  tv.tv_usec = (options.io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  // Sync frames are small; don't let Nagle add round trips to the
  // request/response alternation.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void set_nonblocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail("tcp: fcntl(F_GETFL) failed");
  const int wanted = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, wanted) != 0)
    fail("tcp: fcntl(F_SETFL) failed");
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string peer_description_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      addr.sin_family == AF_INET) {
    char ip[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
    return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
  }
  return "unknown";
}

TcpConnection::TcpConnection(int fd, TcpOptions options)
    : fd_(fd),
      options_(options),
      started_(std::chrono::steady_clock::now()),
      rx_(std::make_unique_for_overwrite<std::uint8_t[]>(
          kTcpReceiveBufferBytes)) {
  PFRDTN_REQUIRE(fd_ >= 0);
  set_io_timeouts(fd_, options);
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      addr.sin_family == AF_INET) {
    char ip[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
    peer_ = std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
  } else {
    peer_ = "unknown";
  }
}

TcpConnection::~TcpConnection() { close(); }

void TcpConnection::wait_ready(short events, const char* op) {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  const auto elapsed = duration_cast<milliseconds>(
                           std::chrono::steady_clock::now() - started_)
                           .count();
  int budget = options_.io_timeout_ms;
  bool deadline_bounded = false;
  if (options_.session_deadline_ms > 0) {
    const long long remaining = options_.session_deadline_ms - elapsed;
    if (remaining <= 0)
      throw TransportError(std::string("tcp: ") + op +
                           " aborted: session deadline exceeded");
    if (remaining < budget) {
      budget = static_cast<int>(remaining);
      deadline_bounded = true;
    }
  }
  if (options_.min_bytes_per_second > 0 &&
      elapsed > options_.min_progress_grace_ms) {
    // Bytes-per-elapsed-second, evaluated before each op so a peer
    // that keeps the link "alive" with a trickle is still cut.
    const auto floor = options_.min_bytes_per_second *
                       static_cast<std::size_t>(elapsed) / 1000;
    if (bytes_moved_ < floor)
      throw TransportError(
          std::string("tcp: ") + op + " aborted: peer below minimum " +
          "progress (" + std::to_string(bytes_moved_) + " bytes in " +
          std::to_string(elapsed) + "ms)");
  }
  pollfd pfd{fd_, events, 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, budget);
    if (ready > 0) return;
    if (ready == 0) {
      if (deadline_bounded)
        throw TransportError(std::string("tcp: ") + op +
                             " aborted: session deadline exceeded");
      throw TransportError(std::string("tcp: ") + op + " timed out");
    }
    if (errno == EINTR) continue;
    fail(std::string("tcp: poll before ") + op + " failed");
  }
}

void TcpConnection::write(const std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) throw TransportError("tcp: write on closed connection");
  std::size_t sent = 0;
  while (sent < size) {
    wait_ready(POLLOUT, "write");
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw TransportError("tcp: write timed out");
      fail("tcp: write failed");
    }
    sent += static_cast<std::size_t>(n);
    bytes_moved_ += static_cast<std::size_t>(n);
  }
}

void TcpConnection::read(std::uint8_t* data, std::size_t size) {
  if (fd_ < 0) throw TransportError("tcp: read on closed connection");
  std::size_t got = 0;
  while (got < size) {
    if (rx_begin_ == rx_end_) refill();
    const std::size_t n = std::min(size - got, rx_end_ - rx_begin_);
    std::memcpy(data + got, rx_.get() + rx_begin_, n);
    rx_begin_ += n;
    got += n;
  }
}

void TcpConnection::refill() {
  for (;;) {
    wait_ready(POLLIN, "read");
    const ssize_t n = ::recv(fd_, rx_.get(), kTcpReceiveBufferBytes, 0);
    if (n == 0)
      throw TransportError("tcp: connection closed by peer mid-read");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw TransportError("tcp: read timed out");
      fail("tcp: read failed");
    }
    rx_begin_ = 0;
    rx_end_ = static_cast<std::size_t>(n);
    bytes_moved_ += rx_end_;
    return;
  }
}

void TcpConnection::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port, TcpOptions options)
    : fd_(::socket(AF_INET, SOCK_STREAM, 0)), options_(options) {
  if (fd_ < 0) fail("tcp: socket failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    fail("tcp: bind failed");
  if (::listen(fd_, kListenBacklog) != 0)
    fail("tcp: listen failed");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("tcp: getsockname failed");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

ConnectionPtr TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<TcpConnection>(fd, options_);
    if (errno == EINTR) continue;
    fail("tcp: accept failed");
  }
}

int TcpListener::accept_raw() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    fail("tcp: accept failed");
  }
}

void TcpListener::set_nonblocking(bool enable) {
  net::set_nonblocking(fd_, enable);
}

ConnectionPtr tcp_connect(const std::string& host, std::uint16_t port,
                          TcpOptions options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string service = std::to_string(port);
  const int rc =
      ::getaddrinfo(host.c_str(), service.c_str(), &hints, &resolved);
  if (rc != 0)
    throw TransportError("tcp: cannot resolve " + host + ": " +
                         gai_strerror(rc));

  int fd = -1;
  std::string error = "tcp: no addresses for " + host;
  for (addrinfo* it = resolved; it != nullptr; it = it->ai_next) {
    fd = ::socket(it->ai_family, it->ai_socktype, it->ai_protocol);
    if (fd < 0) continue;
    // Bounded connect: non-blocking connect + poll, then back to
    // blocking with io timeouts.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int result = ::connect(fd, it->ai_addr, it->ai_addrlen);
    if (result != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, options.connect_timeout_ms);
      if (ready == 1) {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
        result = so_error == 0 ? 0 : -1;
        errno = so_error;
      } else {
        result = -1;
        errno = ETIMEDOUT;
      }
    }
    if (result == 0) {
      ::fcntl(fd, F_SETFL, flags);
      break;
    }
    error = "tcp: connect to " + host + ":" + service + " failed: " +
            std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) throw TransportError(error);
  return std::make_unique<TcpConnection>(fd, options);
}

}  // namespace pfrdtn::net
