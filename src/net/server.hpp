#pragma once

/// \file server.hpp
/// SyncServer: the concurrent, non-blocking host for
/// ServerSessionMachine. One acceptor event loop (on the thread that
/// calls run()) owns the listening socket, performs the accept-time
/// quarantine check, and hands admitted fds to N worker threads; each
/// worker runs its own EventLoop and exclusively owns its connections
/// (Envoy-style per-worker dispatch) — connection state needs no
/// locking. The machines never block: bytes arrive through a
/// FrameDecoder, replies accumulate in a per-connection buffer that is
/// flushed as the socket drains (EPOLLOUT armed only while bytes are
/// pending).
///
/// Shared state and its locks:
///   - the replica (and anything the callbacks touch): state_mutex,
///     held across every machine.on_frame and every on_session /
///     on_violation callback;
///   - the QuarantineTable: its own mutex — admission happens on the
///     acceptor thread, strikes and rewards on workers.
///
/// Deadlines move onto the loop: each connection arms one timer that
/// enforces the absolute session deadline, the idle I/O timeout, and
/// the minimum-progress floor — the same three cuts the blocking
/// TcpConnection enforces per operation — and failures use the same
/// error strings, so log-driven tooling sees one vocabulary.
///
/// Graceful drain: shutdown() (or a readable options.shutdown_fd, for
/// signal handlers) stops accepting, lets in-flight sessions finish
/// within drain_deadline_ms, then force-fails the stragglers; run()
/// returns once the last session is gone.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/fault_link.hpp"
#include "net/quarantine.hpp"
#include "net/session.hpp"
#include "net/tcp.hpp"

namespace pfrdtn::net {

struct SyncServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; see SyncServer::port()
  int workers = 1;
  /// Stop accepting after this many admitted sessions and return from
  /// run() once they finish; 0 = serve until shutdown().
  std::size_t max_sessions = 0;
  /// How long shutdown() waits for in-flight sessions before
  /// force-failing them.
  int drain_deadline_ms = 5000;
  /// Optional fd that becomes readable to request a graceful drain
  /// (the CLI points a signal handler's self-pipe here); -1 = none.
  int shutdown_fd = -1;
  /// Overload shedding: with more than this many sessions in flight a
  /// new connection is answered with one transient Busy Error frame
  /// and closed — no strike, the client retries with backoff — instead
  /// of being adopted to starve into a deadline cut. 0 = no cap.
  std::size_t max_concurrent_sessions = 0;
  /// Seeded link-fault injection on accepted connections (cut/reset at
  /// a scheduled byte offset; rate 0 = no faults, no RNG draws). The
  /// server-side half of the flaky-contact test surface.
  LinkFaultPlan link_faults;
  TcpOptions tcp;
  repl::SyncOptions sync;
  ResourceLimits limits;
  QuarantineOptions quarantine;
};

/// Observation hooks, all optional. on_session and on_violation run on
/// worker threads WITH the server's state mutex held, so they may
/// touch the replica and shared streams; on_reject, on_accept_error,
/// and on_drain run on the acceptor thread.
struct SyncServerCallbacks {
  std::function<void(std::size_t session, const std::string& peer,
                     const ServerSessionOutcome& outcome)>
      on_session;
  std::function<void(std::size_t session, const std::string& peer,
                     bool limit_breach, const std::string& what,
                     std::size_t strikes, std::uint64_t window_ms)>
      on_violation;
  std::function<void(const std::string& peer,
                     const AdmitDecision& decision)>
      on_reject;
  /// `consecutive` accept failures so far without a completed session;
  /// `giving_up` on the one that exhausts the budget (run() then
  /// returns false).
  std::function<void(const std::string& what, std::size_t consecutive,
                     bool giving_up)>
      on_accept_error;
  std::function<void(std::size_t active)> on_drain;
  /// A connection was shed at the concurrency cap (acceptor thread).
  std::function<void(const std::string& peer, std::size_t active)>
      on_shed;
};

class SyncServer {
 public:
  SyncServer(repl::Replica& replica, repl::ForwardingPolicy* policy,
             SyncServerOptions options,
             SyncServerCallbacks callbacks = {});
  ~SyncServer();

  SyncServer(const SyncServer&) = delete;
  SyncServer& operator=(const SyncServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Serve until max_sessions complete or shutdown() is requested.
  /// Returns false iff the listener gave up (accept-failure budget).
  bool run();

  /// Request a graceful drain; thread- and signal-context-unsafe (use
  /// options.shutdown_fd from signal handlers). Safe to call from any
  /// thread or from inside a callback; idempotent.
  void shutdown();

  [[nodiscard]] std::size_t sessions_completed() const {
    return sessions_completed_.load();
  }

  /// Connections refused with a Busy frame at the concurrency cap.
  [[nodiscard]] std::size_t sessions_shed() const {
    return sessions_shed_.load();
  }

  /// Link faults injected into served connections so far.
  [[nodiscard]] std::size_t link_faults_injected() const {
    return link_faults_injected_.load();
  }

  /// Milliseconds since this server was constructed (the quarantine
  /// clock, as in the blocking serve loop).
  [[nodiscard]] std::uint64_t now_ms() const;

 private:
  struct Worker;
  struct Served;
  friend struct Worker;
  friend struct Served;

  void on_acceptable();
  /// Answer a connection with one transient Busy Error frame and close
  /// it (best-effort; the client retries with backoff either way).
  void shed(int fd, const std::string& peer);
  void begin_drain();
  void stop_accepting();
  void maybe_finish();
  /// Worker -> acceptor notification that one session ended.
  void session_complete();

  repl::Replica* replica_;
  repl::ForwardingPolicy* policy_;
  SyncServerOptions options_;
  SyncServerCallbacks callbacks_;
  TcpListener listener_;
  EventLoop acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::chrono::steady_clock::time_point started_;

  std::mutex state_mutex_;       ///< replica + on_session/on_violation
  std::mutex quarantine_mutex_;  ///< the table below
  QuarantineTable quarantine_;
  /// Schedules for accepted connections are drawn on the acceptor
  /// thread only; workers just consume the drawn schedule.
  LinkFaultInjector link_fault_injector_;

  // Acceptor-thread state.
  std::size_t sessions_started_ = 0;
  std::size_t active_ = 0;
  std::size_t accept_failures_ = 0;
  bool accepting_ = true;
  bool draining_ = false;
  bool listener_failed_ = false;

  std::atomic<std::size_t> sessions_completed_{0};
  std::atomic<std::size_t> sessions_shed_{0};
  std::atomic<std::size_t> link_faults_injected_{0};
};

}  // namespace pfrdtn::net
