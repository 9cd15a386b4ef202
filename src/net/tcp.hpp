#pragma once

/// \file tcp.hpp
/// POSIX TCP transport: blocking sockets with connect/read/write
/// timeouts, so two `pfrdtn` processes can replicate over a real
/// network. All failures (refused, reset, timed out, EOF) surface as
/// TransportError; the session layer turns them into incomplete syncs.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/transport.hpp"

namespace pfrdtn::net {

struct TcpOptions {
  int connect_timeout_ms = 5000;
  /// Per-read / per-write timeout; a peer that stalls longer than this
  /// mid-sync counts as a closed contact.
  int io_timeout_ms = 10000;
  /// Absolute session deadline, armed when the connection object is
  /// constructed; 0 disables. Per-op timeouts alone cannot stop a
  /// slow-loris peer — one byte every io_timeout_ms resets the per-op
  /// clock forever — so every read/write also polls against this
  /// wall-clock deadline and throws TransportError once it passes.
  int session_deadline_ms = 0;
  /// Minimum progress: after min_progress_grace_ms the session must
  /// have moved at least this many bytes per second (both directions
  /// combined) or the next I/O throws TransportError. 0 disables.
  std::size_t min_bytes_per_second = 0;
  int min_progress_grace_ms = 2000;
};

/// Toggle O_NONBLOCK on a raw socket fd (the event-loop server runs
/// every connection non-blocking).
void set_nonblocking(int fd, bool enable);

/// Disable Nagle on a raw socket fd: sync frames are small and the
/// protocol alternates request/response.
void set_tcp_nodelay(int fd);

/// "ip:port" of the remote endpoint of a connected socket.
std::string peer_description_of(int fd);

/// Receive buffer of each TcpConnection. A frame header and its
/// payload usually arrive in one segment; reading them through this
/// buffer takes one poll+recv per refill instead of one per read().
inline constexpr std::size_t kTcpReceiveBufferBytes = 64u << 10;

/// An established TCP connection (takes ownership of the fd). Reads
/// are served from a kTcpReceiveBufferBytes buffer that one poll+recv
/// refills when it runs dry; the timeout, deadline and progress checks
/// run before every refill.
class TcpConnection : public Connection {
 public:
  explicit TcpConnection(int fd, TcpOptions options = {});
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  void write(const std::uint8_t* data, std::size_t size) override;
  void read(std::uint8_t* data, std::size_t size) override;
  void close() override;
  /// "ip:port" of the remote endpoint, captured at construction (still
  /// meaningful after the peer disconnects mid-session).
  [[nodiscard]] std::string peer_description() const override {
    return peer_;
  }

 private:
  /// Poll fd_ for `events` (POLLIN/POLLOUT) within the per-op timeout
  /// AND the session deadline; also enforces the minimum-progress rate.
  /// `op` names the operation for error messages ("read"/"write").
  void wait_ready(short events, const char* op);
  /// Wait for input and receive what the kernel holds, up to a full
  /// buffer. Only called once every buffered byte has been read.
  void refill();

  int fd_;
  std::string peer_;
  TcpOptions options_;
  std::chrono::steady_clock::time_point started_;
  std::size_t bytes_moved_ = 0;
  std::unique_ptr<std::uint8_t[]> rx_;
  std::size_t rx_begin_ = 0;  ///< next unread byte in rx_
  std::size_t rx_end_ = 0;    ///< one past the last received byte
};

/// Listening socket. Port 0 binds an ephemeral port; port() reports
/// the actual one.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port, TcpOptions options = {});
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Block until a client connects; throws TransportError on failure.
  ConnectionPtr accept();

  /// Non-blocking accept for event-loop servers (requires
  /// set_nonblocking(true) first): returns the raw connected fd, or -1
  /// when no connection is pending. Throws TransportError on real
  /// failures (EMFILE, ...). The caller owns the fd.
  int accept_raw();

  /// The listening socket fd, for registration with an event loop.
  [[nodiscard]] int fd() const { return fd_; }

  /// Toggle non-blocking mode on the listening socket.
  void set_nonblocking(bool enable);

 private:
  int fd_;
  TcpOptions options_;
  std::uint16_t port_ = 0;
};

/// Connect to host:port (numeric IP or resolvable name).
ConnectionPtr tcp_connect(const std::string& host, std::uint16_t port,
                          TcpOptions options = {});

}  // namespace pfrdtn::net
