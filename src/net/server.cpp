#include "net/server.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "net/framing.hpp"
#include "util/require.hpp"
#include "util/storage_error.hpp"

namespace pfrdtn::net {

namespace {

/// Quarantine records are keyed by peer address without the ephemeral
/// port — reconnecting from a new source port must not launder strikes.
std::string quarantine_key(const std::string& peer) {
  const auto colon = peer.rfind(':');
  return colon == std::string::npos ? peer : peer.substr(0, colon);
}

constexpr auto kProgressCheckInterval = std::chrono::milliseconds(250);

/// Consecutive accept failures before run() gives up (returns false).
/// Reset every time a session runs to its end.
constexpr std::size_t kAcceptFailureBudget = 8;

/// The simulated timestamp served sessions run at: a live server has
/// no emulation clock.
constexpr SimTime kSessionTime{0};

}  // namespace

/// One live connection, owned exclusively by its worker's loop thread.
/// Every method that can end the session destroys `this` (via
/// Worker::destroy) and returns false; callers must not touch the
/// object after a false return.
struct SyncServer::Served {
  Served(SyncServer& server_in, Worker& worker_in, int fd_in,
         std::size_t number_in, std::string peer_in, std::string key_in,
         LinkFaultSchedule fault_in)
      : server(server_in),
        worker(worker_in),
        fd(fd_in),
        number(number_in),
        peer(std::move(peer_in)),
        key(std::move(key_in)),
        fault(fault_in),
        machine(*server.replica_, server.policy_, kSessionTime,
                server.options_.sync, server.options_.limits),
        decoder(machine.budget()),
        sink(outbuf, machine.budget()),
        started(EventLoop::Clock::now()),
        last_progress(started) {}

  SyncServer& server;
  Worker& worker;
  const int fd;
  const std::size_t number;
  const std::string peer;
  const std::string key;  ///< quarantine key (peer minus port)
  LinkFaultSchedule fault;  ///< drawn at accept; armed only at rate > 0
  ServerSessionMachine machine;
  FrameDecoder decoder;
  std::vector<std::uint8_t> outbuf;
  std::size_t out_offset = 0;
  BufferFrameSink sink;
  EventLoop::Clock::time_point started;
  EventLoop::Clock::time_point last_progress;
  std::size_t bytes_moved = 0;
  EventLoop::TimerId timer = 0;
  bool writable_armed = false;

  bool on_events(std::uint32_t events);
  bool on_readable();
  bool process_frames();
  bool flush();
  bool complete_if_done();
  bool on_timer();
  /// Fire the drawn link fault once bytes_moved crosses its offset:
  /// the session dies as a transport failure (never a strike). Returns
  /// false when it fired and destroyed *this.
  bool check_link_fault();
  bool fail_transport(const std::string& what);
  bool fail_violation(const ContractViolation& violation);
  void finish();
  void arm_timer();
  void arm_writable(bool want);
  void note_progress() { last_progress = EventLoop::Clock::now(); }
};

/// A worker thread: one EventLoop plus the connections it owns. The
/// acceptor posts adopt() calls into the loop; everything else runs on
/// the loop thread only.
struct SyncServer::Worker {
  explicit Worker(SyncServer& server_in) : server(server_in) {}

  SyncServer& server;
  EventLoop loop;
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Served>> sessions;

  void adopt(int fd, std::string peer, std::string key,
             std::size_t number, LinkFaultSchedule fault) {
    auto served =
        std::make_unique<Served>(server, *this, fd, number,
                                 std::move(peer), std::move(key), fault);
    Served* raw = served.get();
    sessions.emplace(fd, std::move(served));
    loop.watch(fd, EPOLLIN, [this, fd](std::uint32_t events) {
      const auto it = sessions.find(fd);
      if (it == sessions.end()) return;
      it->second->on_events(events);
    });
    raw->arm_timer();
  }

  /// Tear down one connection: cancel its timer, unregister, close,
  /// erase (which destroys the Served).
  void destroy(int fd) {
    const auto it = sessions.find(fd);
    if (it == sessions.end()) return;
    if (it->second->timer != 0) loop.cancel(it->second->timer);
    loop.forget(fd);
    ::close(fd);
    sessions.erase(it);
  }

  /// Drain-deadline expiry: fail every remaining session as a
  /// truncated contact.
  void force_close_all() {
    std::vector<int> fds;
    fds.reserve(sessions.size());
    for (const auto& [fd, served] : sessions) fds.push_back(fd);
    for (const int fd : fds) {
      const auto it = sessions.find(fd);
      if (it == sessions.end()) continue;
      it->second->fail_transport("server draining: session aborted");
    }
  }
};

bool SyncServer::Served::on_events(std::uint32_t events) {
  if ((events & EPOLLOUT) != 0) {
    if (!flush()) return false;
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
    return on_readable();
  }
  return true;
}

bool SyncServer::Served::on_readable() {
  bool eof = false;
  for (;;) {
    std::uint8_t chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      bytes_moved += static_cast<std::size_t>(n);
      note_progress();
      if (!check_link_fault()) return false;
      // Bytes past the machine's last frame are junk from a peer that
      // kept talking after the session ended; ignore them, as the
      // blocking loop does by closing without reading.
      if (!machine.finished())
        decoder.feed(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return fail_transport(std::string("tcp: read failed: ") +
                          std::strerror(errno));
  }
  if (!process_frames()) return false;
  if (eof && !machine.finished())
    return fail_transport("tcp: connection closed by peer mid-read");
  return true;
}

bool SyncServer::Served::process_frames() {
  try {
    while (!machine.finished()) {
      std::optional<Frame> frame = decoder.next();
      if (!frame.has_value()) break;
      // The replica (and policy) are shared across workers; every
      // machine step runs under the server-wide state mutex.
      std::lock_guard<std::mutex> lock(server.state_mutex_);
      machine.on_frame(*frame, sink);
    }
  } catch (const StorageError& fault) {
    // OUR disk failed, not the peer: StorageError derives from
    // ContractViolation (fail-closed), so it must be caught first or
    // the peer would be struck for a fault entirely on this side. The
    // durability layer has already degraded to read-only; this session
    // ends as a local failure and later peers are refused politely.
    return fail_transport(std::string("local storage fault: ") +
                          fault.what());
  } catch (const ContractViolation& violation) {
    return fail_violation(violation);
  }
  return flush();
}

bool SyncServer::Served::flush() {
  while (out_offset < outbuf.size()) {
    const ssize_t n = ::send(fd, outbuf.data() + out_offset,
                             outbuf.size() - out_offset, MSG_NOSIGNAL);
    if (n >= 0) {
      out_offset += static_cast<std::size_t>(n);
      bytes_moved += static_cast<std::size_t>(n);
      note_progress();
      if (!check_link_fault()) return false;
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      arm_writable(true);
      return true;
    }
    return fail_transport(std::string("tcp: write failed: ") +
                          std::strerror(errno));
  }
  outbuf.clear();
  out_offset = 0;
  arm_writable(false);
  return complete_if_done();
}

bool SyncServer::Served::complete_if_done() {
  if (!machine.finished()) return true;
  if (out_offset < outbuf.size()) return true;  // replies still owed
  finish();
  return false;
}

bool SyncServer::Served::on_timer() {
  timer = 0;
  const auto now = EventLoop::Clock::now();
  const TcpOptions& tcp = server.options_.tcp;
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  const auto elapsed =
      duration_cast<milliseconds>(now - started).count();
  if (tcp.session_deadline_ms > 0 &&
      elapsed >= tcp.session_deadline_ms)
    return fail_transport("tcp: read aborted: session deadline exceeded");
  const auto idle =
      duration_cast<milliseconds>(now - last_progress).count();
  if (tcp.io_timeout_ms > 0 && idle >= tcp.io_timeout_ms)
    return fail_transport("tcp: read timed out");
  if (tcp.min_bytes_per_second > 0 &&
      elapsed > tcp.min_progress_grace_ms) {
    const auto floor = tcp.min_bytes_per_second *
                       static_cast<std::size_t>(elapsed) / 1000;
    if (bytes_moved < floor)
      return fail_transport(
          "tcp: read aborted: peer below minimum progress (" +
          std::to_string(bytes_moved) + " bytes in " +
          std::to_string(elapsed) + "ms)");
  }
  arm_timer();
  return true;
}

void SyncServer::Served::arm_timer() {
  const auto now = EventLoop::Clock::now();
  const TcpOptions& tcp = server.options_.tcp;
  auto next = now + std::chrono::hours(24);  // effectively "no timer"
  if (tcp.io_timeout_ms > 0)
    next = std::min(next, last_progress +
                              std::chrono::milliseconds(tcp.io_timeout_ms));
  if (tcp.session_deadline_ms > 0)
    next = std::min(next, started + std::chrono::milliseconds(
                                        tcp.session_deadline_ms));
  if (tcp.min_bytes_per_second > 0)
    next = std::min(next, now + kProgressCheckInterval);
  timer = worker.loop.schedule(next, [this] { on_timer(); });
}

void SyncServer::Served::arm_writable(bool want) {
  if (want == writable_armed) return;
  writable_armed = want;
  worker.loop.modify(fd, EPOLLIN | (want ? EPOLLOUT : 0U));
}

bool SyncServer::Served::check_link_fault() {
  if (!fault.armed || bytes_moved < fault.at_bytes) return true;
  fault.armed = false;
  server.link_faults_injected_.fetch_add(1);
  if (fault.kind == LinkFaultKind::Reset) {
    // A genuine RST: discard unsent bytes so the peer sees the reset,
    // not a graceful close of a half-written frame.
    struct linger hard = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
  return fail_transport("link fault: " +
                        link_fault_kind_name(fault.kind) + " after " +
                        std::to_string(bytes_moved) + " bytes (server)");
}

bool SyncServer::Served::fail_transport(const std::string& what) {
  // A no-op if the machine already finished cleanly (e.g. the flush of
  // its last reply failed after take-off): the sealed outcome stands.
  machine.on_transport_error(what);
  finish();
  return false;
}

bool SyncServer::Served::fail_violation(
    const ContractViolation& violation) {
  const bool limit_breach =
      dynamic_cast<const ResourceLimitError*>(&violation) != nullptr;
  std::size_t strikes = 0;
  std::uint64_t window_ms = 0;
  {
    std::lock_guard<std::mutex> lock(server.quarantine_mutex_);
    window_ms = server.quarantine_.punish(key, server.now_ms());
    strikes = server.quarantine_.strikes(key);
  }
  if (server.callbacks_.on_violation) {
    std::lock_guard<std::mutex> lock(server.state_mutex_);
    server.callbacks_.on_violation(number, peer, limit_breach,
                                   violation.what(), strikes, window_ms);
  }
  SyncServer& srv = server;
  worker.destroy(fd);  // destroys *this
  srv.session_complete();
  return false;
}

void SyncServer::Served::finish() {
  ServerSessionOutcome outcome = machine.take_outcome();
  const bool clean = !outcome.transport_failed;
  if (server.callbacks_.on_session) {
    std::lock_guard<std::mutex> lock(server.state_mutex_);
    server.callbacks_.on_session(number, peer, outcome);
  }
  if (clean) {
    std::lock_guard<std::mutex> lock(server.quarantine_mutex_);
    server.quarantine_.reward(key, server.now_ms());
  }
  SyncServer& srv = server;
  worker.destroy(fd);  // destroys *this
  srv.session_complete();
}

SyncServer::SyncServer(repl::Replica& replica,
                       repl::ForwardingPolicy* policy,
                       SyncServerOptions options,
                       SyncServerCallbacks callbacks)
    : replica_(&replica),
      policy_(policy),
      options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      listener_(options_.port, options_.tcp),
      started_(std::chrono::steady_clock::now()),
      quarantine_(options_.quarantine),
      link_fault_injector_([&] {
        // The raw-fd server can cut and reset a stream; stall and
        // truncate are client-wrapper semantics.
        LinkFaultPlan plan = options_.link_faults;
        plan.stall = false;
        plan.truncate = false;
        return plan;
      }()) {
  PFRDTN_REQUIRE(options_.workers >= 1);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i)
    workers_.push_back(std::make_unique<Worker>(*this));
}

SyncServer::~SyncServer() = default;

std::uint64_t SyncServer::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

bool SyncServer::run() {
  listener_.set_nonblocking(true);
  acceptor_.watch(listener_.fd(), EPOLLIN,
                  [this](std::uint32_t) { on_acceptable(); });
  if (options_.shutdown_fd >= 0) {
    acceptor_.watch(options_.shutdown_fd, EPOLLIN, [this](std::uint32_t) {
      std::uint8_t byte = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(options_.shutdown_fd, &byte, 1);
      begin_drain();
    });
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([&worker] { worker->loop.run(); });
  acceptor_.run();
  for (auto& worker : workers_) {
    worker->loop.stop();
    worker->thread.join();
  }
  return !listener_failed_;
}

void SyncServer::shutdown() {
  acceptor_.post([this] { begin_drain(); });
}

void SyncServer::on_acceptable() {
  for (;;) {
    if (!accepting_) return;
    int fd = -1;
    try {
      fd = listener_.accept_raw();
    } catch (const TransportError& failure) {
      ++accept_failures_;
      const bool giving_up = accept_failures_ >= kAcceptFailureBudget;
      if (callbacks_.on_accept_error)
        callbacks_.on_accept_error(failure.what(), accept_failures_,
                                   giving_up);
      if (giving_up) {
        // The listener is beyond saving; fail any in-flight sessions
        // and return from run() with the failure flag.
        listener_failed_ = true;
        stop_accepting();
        draining_ = true;
        for (auto& worker : workers_) {
          Worker* raw = worker.get();
          raw->loop.post([raw] { raw->force_close_all(); });
        }
        maybe_finish();
      }
      return;
    }
    if (fd < 0) return;  // accept queue drained
    const std::string peer = peer_description_of(fd);
    const std::string key = quarantine_key(peer);
    AdmitDecision admitted;
    {
      std::lock_guard<std::mutex> lock(quarantine_mutex_);
      admitted = quarantine_.admit(key, now_ms());
    }
    if (admitted.rejected) {
      // Rejected connections do not count toward max_sessions, as in
      // the blocking serve loop.
      if (callbacks_.on_reject) callbacks_.on_reject(peer, admitted);
      ::close(fd);
      continue;
    }
    if (options_.max_concurrent_sessions != 0 &&
        active_ >= options_.max_concurrent_sessions) {
      // Over the cap: shed with a transient Busy frame instead of
      // adopting a session that would starve into a deadline cut.
      // Sheds count toward neither max_sessions nor quarantine.
      shed(fd, peer);
      continue;
    }
    const std::size_t number = ++sessions_started_;
    ++active_;
    set_nonblocking(fd, true);
    set_tcp_nodelay(fd);
    // Schedules come off the acceptor's seeded stream so the draw
    // order is deterministic regardless of worker interleaving.
    const LinkFaultSchedule fault = link_fault_injector_.draw();
    Worker* worker =
        workers_[number % workers_.size()].get();
    worker->loop.post([worker, fd, peer, key, number, fault] {
      worker->adopt(fd, peer, key, number, fault);
    });
    if (options_.max_sessions != 0 &&
        sessions_started_ >= options_.max_sessions) {
      stop_accepting();
      maybe_finish();
      return;
    }
  }
}

void SyncServer::shed(int fd, const std::string& peer) {
  sessions_shed_.fetch_add(1);
  // One tiny frame on a fresh socket: the send buffer is empty, so a
  // single non-blocking send takes it whole in practice. If it
  // doesn't, the client just sees a cut and retries anyway.
  const std::vector<std::uint8_t> payload = repl::encode_error_frame(
      repl::kSyncErrorBusy, "server busy: at session cap, retry");
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(repl::SyncFrame::Error),
                      payload.size(), header);
  std::vector<std::uint8_t> wire(header, header + kFrameHeaderSize);
  wire.insert(wire.end(), payload.begin(), payload.end());
  set_nonblocking(fd, true);
  [[maybe_unused]] const ssize_t n =
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  // Half-close, then linger (bounded) until the peer closes its end.
  // Closing outright races the client's in-flight Hello: unread bytes
  // at close turn the teardown into an RST, which can destroy the
  // queued Busy frame in the peer's receive buffer before it is read —
  // the client would see a cut instead of the structured refusal. The
  // honest case costs one local RTT; a peer that never closes costs at
  // most the bounded wait.
  ::shutdown(fd, SHUT_WR);
  const auto linger_deadline =
      EventLoop::Clock::now() + std::chrono::milliseconds(250);
  for (;;) {
    std::uint8_t drain[4096];
    const ssize_t got = ::recv(fd, drain, sizeof(drain), 0);
    if (got == 0) break;                      // peer closed: done
    if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR)
      break;
    const auto now = EventLoop::Clock::now();
    if (now >= linger_deadline) break;
    struct pollfd waiter = {fd, POLLIN, 0};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        linger_deadline - now);
    ::poll(&waiter, 1, static_cast<int>(left.count()) + 1);
  }
  ::close(fd);
  if (callbacks_.on_shed) callbacks_.on_shed(peer, active_);
}

void SyncServer::stop_accepting() {
  if (!accepting_) return;
  accepting_ = false;
  acceptor_.forget(listener_.fd());
}

void SyncServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  stop_accepting();
  if (callbacks_.on_drain) callbacks_.on_drain(active_);
  if (active_ == 0) {
    acceptor_.stop();
    return;
  }
  acceptor_.schedule(
      EventLoop::Clock::now() +
          std::chrono::milliseconds(options_.drain_deadline_ms),
      [this] {
        for (auto& worker : workers_) {
          Worker* raw = worker.get();
          raw->loop.post([raw] { raw->force_close_all(); });
        }
      });
}

void SyncServer::maybe_finish() {
  if (active_ == 0 && !accepting_) acceptor_.stop();
}

void SyncServer::session_complete() {
  sessions_completed_.fetch_add(1);
  acceptor_.post([this] {
    // A session ran to its end, so the machine room is healthy; the
    // accept-failure budget is for *consecutive* failures.
    accept_failures_ = 0;
    PFRDTN_REQUIRE(active_ > 0);
    --active_;
    maybe_finish();
  });
}

}  // namespace pfrdtn::net
