#pragma once

/// \file framing.hpp
/// Length-prefixed frames over a Connection, using the header codec in
/// util/byte_buffer.hpp (magic, version, type, length, payload — see
/// docs/net.md). Every sync-protocol message travels as one frame;
/// batches travel as a frame sequence so a dropped connection truncates
/// at an item boundary the session layer can recover from.

#include <optional>
#include <vector>

#include "net/limits.hpp"
#include "net/transport.hpp"
#include "repl/sync.hpp"

namespace pfrdtn::net {

/// One received frame plus its wire footprint (header + payload).
struct Frame {
  repl::SyncFrame type{};
  std::vector<std::uint8_t> payload;
  std::size_t wire_bytes = 0;
};

/// Where a session state machine emits its frames. The machines in
/// session.hpp never touch a Connection directly: they call send() and
/// the host decides whether that blocks on a socket (the blocking
/// loop), goes straight to the peer machine (the in-process pump), or
/// lands in an in-memory buffer the event loop flushes as the peer
/// drains it (src/net/server.hpp). Returns the frame's wire footprint
/// (header + payload bytes).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual std::size_t send(repl::SyncFrame type,
                           const std::vector<std::uint8_t>& payload) = 0;
};

/// FrameSink writing straight to a Connection through the budgeted
/// write_frame. Throws TransportError when the link fails, exactly as
/// the pre-machine blocking code did.
class ConnectionFrameSink final : public FrameSink {
 public:
  ConnectionFrameSink(Connection& connection, SessionBudget& budget)
      : connection_(&connection), budget_(&budget) {}
  std::size_t send(repl::SyncFrame type,
                   const std::vector<std::uint8_t>& payload) override;

 private:
  Connection* connection_;
  SessionBudget* budget_;
};

/// FrameSink appending encoded frames to a byte buffer. Never blocks
/// and never throws TransportError — only ResourceLimitError when the
/// session's write side crosses the byte ceiling. The event-loop
/// server hands each connection's machine one of these and flushes the
/// buffer opportunistically.
class BufferFrameSink final : public FrameSink {
 public:
  BufferFrameSink(std::vector<std::uint8_t>& out, SessionBudget& budget)
      : out_(&out), budget_(&budget) {}
  std::size_t send(repl::SyncFrame type,
                   const std::vector<std::uint8_t>& payload) override;

 private:
  std::vector<std::uint8_t>* out_;
  SessionBudget* budget_;
};

/// Incremental frame decoder for non-blocking transports: feed() raw
/// bytes as they arrive, next() pulls complete frames out. The header
/// is admitted against the SessionBudget (unknown type, per-type
/// payload cap, session byte ceiling) as soon as its eight bytes are
/// buffered and BEFORE the payload is materialized as a Frame — the
/// same admission-before-allocation discipline as the budgeted
/// read_frame. Malformed headers and budget breaches throw exactly
/// what the blocking read path would (ContractViolation /
/// ResourceLimitError).
class FrameDecoder {
 public:
  explicit FrameDecoder(SessionBudget& budget) : budget_(&budget) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// The next complete frame, or nullopt until more bytes arrive.
  std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const {
    return pending_.size() - consumed_;
  }

 private:
  SessionBudget* budget_;
  std::vector<std::uint8_t> pending_;
  std::size_t consumed_ = 0;
  /// Set once the header of the in-progress frame passed admission.
  std::optional<FrameHeader> header_;
};

// ---- framed I/O over a Connection ------------------------------------
//
// The hardened session boundary: every framed read and write is
// accounted against the session's SessionBudget. On read, the decoded
// header is admitted (per-type payload cap, unknown-type rejection,
// session byte ceiling) BEFORE the payload buffer is allocated — an
// eight-byte header from a hostile peer cannot command a 64 MiB
// allocation. Writes charge the same ceiling so a session serving a
// greedy peer is bounded in both directions. Breaches throw
// ResourceLimitError.

/// Write one frame; returns its wire footprint. Throws TransportError
/// if the link fails (possibly after a prefix was delivered).
std::size_t write_frame(Connection& connection, repl::SyncFrame type,
                        const std::vector<std::uint8_t>& payload,
                        SessionBudget& budget);

/// Read one frame. Throws TransportError if the link fails, and
/// ContractViolation if the peer sent bytes that are not a frame.
Frame read_frame(Connection& connection, SessionBudget& budget);

/// Read one frame and require the given type (protocol step mismatch
/// is a ContractViolation — the peer is broken, not the link).
Frame expect_frame(Connection& connection, repl::SyncFrame type,
                   SessionBudget& budget);

}  // namespace pfrdtn::net
