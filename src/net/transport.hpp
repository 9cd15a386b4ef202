#pragma once

/// \file transport.hpp
/// The byte-stream abstraction the sync-session layer runs over. A
/// Connection is one end of an established, ordered, reliable-until-
/// it-isn't link: the in-memory loopback (src/net/loopback.hpp) for
/// the check harness's adversary and tests, POSIX TCP
/// (src/net/tcp.hpp) for real inter-process replication. In-process
/// syncs use no Connection: session.hpp's pump hands frames across.
///
/// Link failures — peer gone, contact window closed, timeout — throw
/// TransportError. They are *environmental*, expected events the
/// session layer converts into incomplete syncs, unlike
/// ContractViolation which always means a bug or malformed wire data.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace pfrdtn::net {

/// A link failed: connection dropped, timed out, or was refused.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One endpoint of an established bidirectional byte stream.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Write exactly `size` bytes or throw TransportError. A failing
  /// write may still have delivered a prefix to the peer (a real link
  /// cuts mid-stream); the frame layer makes truncation detectable.
  virtual void write(const std::uint8_t* data, std::size_t size) = 0;

  /// Read exactly `size` bytes or throw TransportError (EOF, link cut,
  /// or timeout).
  virtual void read(std::uint8_t* data, std::size_t size) = 0;

  /// Release the endpoint; further reads/writes throw TransportError.
  virtual void close() = 0;

  /// Human-readable remote endpoint ("10.0.0.2:9944") for log lines;
  /// transports without a meaningful address return a fixed label.
  [[nodiscard]] virtual std::string peer_description() const {
    return "peer";
  }
};

using ConnectionPtr = std::unique_ptr<Connection>;

}  // namespace pfrdtn::net
