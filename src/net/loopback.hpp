#pragma once

/// \file loopback.hpp
/// In-memory transport: two Connection endpoints joined by buffered
/// byte queues, plus a simulated clock. Single-threaded by design: a
/// sequential caller writes everything one side will say before the
/// other side reads, so every read finds its bytes already buffered
/// (missing bytes mean the writer stopped mid-message). The check
/// harness's chaos adversary pre-writes its attack into one end and
/// serve_session reads it from the other; the unit tests use it as a
/// plain byte pipe.
///
/// The clock charges a fixed latency per write, and a session deadline
/// in simulated seconds cuts the link, so slow-loris behaviour is
/// testable deterministically. In-process syncs do not use this link:
/// the pump in session.hpp hands frames across directly and owns the
/// contact window.

#include <memory>
#include <optional>

#include "net/transport.hpp"

namespace pfrdtn::net {

struct LoopbackFaults {
  /// Modeled fixed delay charged per write (store-and-forward hop).
  double latency_seconds = 0.0;
  /// Absolute session deadline in simulated seconds: the write whose
  /// latency charge crosses it cuts the link, mirroring the TCP
  /// wall-clock deadline so slow-loris behaviour is testable
  /// deterministically inside the check harness.
  std::optional<double> deadline_seconds;
};

class LoopbackLink {
 public:
  explicit LoopbackLink(LoopbackFaults faults = {});
  ~LoopbackLink();

  LoopbackLink(const LoopbackLink&) = delete;
  LoopbackLink& operator=(const LoopbackLink&) = delete;

  Connection& a();
  Connection& b();

  /// Bytes actually delivered across the link (both directions).
  [[nodiscard]] std::size_t bytes_delivered() const;
  /// Simulated time consumed so far.
  [[nodiscard]] double simulated_seconds() const;

 private:
  struct State;
  class Endpoint;

  std::shared_ptr<State> state_;
  std::unique_ptr<Endpoint> a_;
  std::unique_ptr<Endpoint> b_;
};

}  // namespace pfrdtn::net
