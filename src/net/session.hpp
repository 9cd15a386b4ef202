#pragma once

/// \file session.hpp
/// The sync-session state machine: runs the Figure-4 exchange over a
/// Transport connection. Each sync has a *source* role (answers a
/// request by streaming a batch) and a *target* role (sends the
/// request, applies batch items as their frames arrive). Streaming
/// item-by-item means a dropped connection leaves the target with the
/// fully received prefix applied, `complete == false`, and the source
/// knowledge never merged — the truncated-contact semantics the
/// substrate's SyncBatch::complete flag was designed for.
///
/// Frame sequence of one sync (see docs/net.md for the state machine):
///
///   target -> source   Request
///   source -> target   BatchBegin (source id, complete flag, count)
///   source -> target   BatchItem * count
///   source -> target   BatchEnd (source knowledge)
///
/// With the summary fast path negotiated (see HelloInfo::features and
/// repl::SummaryMode), the target opens with a SummaryRequest instead;
/// the source answers SummaryMatch (converged — the sync ends in O(1)
/// wire bytes), streams the batch directly (the summary's Bloom filter
/// proved a cold target), or answers SummaryMiss, after which the
/// target sends the exact Request and the flow above resumes.
///
/// A TCP session between two processes is opened by the client with a
/// Hello frame carrying its replica id and the session mode; the
/// server answers with its own Hello, then the two run one or two
/// syncs (Pull: client is target; Push: client is source; Encounter:
/// pull then push — the paper's two syncs per encounter). When both
/// hellos advertised kFeatureBatchAck, a sync whose *server* was the
/// target (the push leg) ends with one more frame, server -> client:
/// a BatchAck confirming the batch was applied, which the pushing
/// client blocks on before calling the push delivered.

#include <optional>
#include <string>
#include <utility>

#include "net/framing.hpp"
#include "net/loopback.hpp"

namespace pfrdtn::net {

/// What the client asks for in its Hello frame.
enum class SyncMode : std::uint8_t {
  Pull = 1,       ///< client pulls: client = target, server = source
  Push = 2,       ///< client pushes: client = source, server = target
  Encounter = 3,  ///< pull then push, as in one trace encounter
};

/// Protocol feature bits carried in HelloInfo::features.
inline constexpr std::uint64_t kFeatureSummaryExchange = 1;
/// Push acknowledgement (repl::SyncFrame::BatchAck): after applying a
/// pushed batch the server confirms it with an ack frame the client
/// blocks on. TCP write success only proves bytes reached a socket
/// buffer, so without the ack a client whose push was cut on the
/// server side reports success over lost data — the one failure the
/// retrying contact discipline cannot retry because it never sees it.
/// Negotiated like summaries: the client advertises, the server
/// echoes, a legacy peer on either side gets the unacked protocol.
inline constexpr std::uint64_t kFeatureBatchAck = 2;

/// Hello payload: who is speaking and what they want.
struct HelloInfo {
  ReplicaId replica{};
  SyncMode mode = SyncMode::Pull;
  /// Feature bits this endpoint supports. Encoded only when nonzero —
  /// a features-free hello is byte-identical to the legacy format, and
  /// legacy decoders (which require the payload to end after the mode
  /// byte) only ever see that form: the server echoes features only to
  /// a client that advertised some.
  std::uint64_t features = 0;
};

std::vector<std::uint8_t> encode_hello(const HelloInfo& hello);
HelloInfo decode_hello(const std::vector<std::uint8_t>& payload);

/// Resolve the summary mode this endpoint should actually run against
/// a peer: On forces the fast path, Off forces the exact protocol, and
/// Auto enables summaries iff the peer's hello advertised support.
[[nodiscard]] repl::SummaryMode resolve_summary_mode(
    repl::SummaryMode requested, std::uint64_t peer_features);

/// Target-side outcome of one sync over a transport.
struct NetSyncResult {
  repl::SyncResult result;
  bool transport_failed = false;  ///< the link died during this sync
  /// The sync never ran because this (degraded read-only) replica
  /// refused the mutation up front: an Error frame was sent instead of
  /// the opening request. Not a failure of the link or the peer.
  bool refused = false;
  std::string error;              ///< TransportError message, if any
};

/// Source-side outcome of one sync over a transport.
struct SourceStats {
  /// request_bytes/batch_bytes are framed wire bytes as read/written;
  /// items_sent counts items whose frames were fully written.
  repl::SyncStats stats;
  bool transport_failed = false;
  /// The peer answered with an Error frame instead of its opening
  /// request: a structured, transient refusal (e.g. the peer is
  /// degraded read-only). Never a protocol violation — no strike.
  bool refused = false;
  std::string error;
};

/// Run the source role once: wait for the peer's opening frame, build
/// the batch (policy consulted, bandwidth cap applied), stream it.
/// With options.summary_mode == Off the opener must be an exact
/// Request (the legacy protocol, byte for byte); otherwise a
/// SummaryRequest opener is also accepted and answered per the summary
/// flow, including blocking for the exact fallback Request after a
/// SummaryMiss. Link failures are absorbed into the returned stats.
/// All peer input is accounted against `budget` (default-constructed
/// locally when null, i.e. enforced under the default ResourceLimits);
/// breaches throw ResourceLimitError like any other protocol violation.
SourceStats run_source(Connection& connection, repl::Replica& source,
                       repl::ForwardingPolicy* source_policy, SimTime now,
                       const repl::SyncOptions& options = {},
                       SessionBudget* budget = nullptr);

/// The source role as a resumable, frame-driven state machine: hand it
/// one decoded peer frame at a time via on_frame() and it emits every
/// reply through a FrameSink, never blocking in between. Hosts decide
/// how frames arrive — a blocking read loop (run_source, the loopback
/// drive) or an epoll event loop feeding a FrameDecoder
/// (src/net/server.hpp). The serve_opener/serve_exact wrappers keep
/// the one-call-per-step blocking API for sequential drivers.
class SourceSession {
 public:
  enum class State { Idle, AwaitExact, Done, Failed };

  SourceSession(repl::Replica& source, repl::ForwardingPolicy* policy,
                SimTime now, repl::SyncOptions options = {},
                SessionBudget* budget = nullptr)
      : source_(&source),
        policy_(policy),
        now_(now),
        options_(options),
        budget_(budget) {}

  /// True while the machine needs another peer frame (Idle: the
  /// opener; AwaitExact: the post-miss fallback Request).
  [[nodiscard]] bool wants_frame() const {
    return state_ == State::Idle || state_ == State::AwaitExact;
  }

  /// Consume one peer frame and emit any replies through `sink`.
  /// From Idle the frame is the opener: an exact Request streams the
  /// batch; a SummaryRequest (rejected while options.summary_mode is
  /// Off — the legacy protocol admits only Request) is answered with
  /// SummaryMatch, a direct batch, or SummaryMiss (-> AwaitExact); an
  /// Error frame (the peer refused its own pull, e.g. it is degraded
  /// read-only) ends the role Done with `refused` set — a graceful,
  /// transient outcome, never a violation, never a strike.
  /// From AwaitExact the frame must be the exact fallback Request; the
  /// routing state was already processed with the summary, so the
  /// fallback skips the policy's process_request. Protocol breaches
  /// throw ContractViolation; sink failures propagate TransportError
  /// (blocking hosts turn those into on_transport_error).
  void on_frame(const Frame& frame, FrameSink& sink);

  /// The link died while this role was live: absorb the failure into
  /// the stats, as a truncated contact, and end Failed.
  void on_transport_error(const TransportError& failure) { fail(failure); }

  /// Blocking step 1: read the opener and answer it. Ends Done (batch
  /// streamed or SummaryMatch sent), AwaitExact (SummaryMiss sent, the
  /// exact Request is owed), or Failed (link died).
  void serve_opener(Connection& connection);

  /// Blocking step 2, only from AwaitExact: read the exact fallback
  /// Request and stream the batch.
  void serve_exact(Connection& connection);

  [[nodiscard]] State state() const { return state_; }
  /// The accumulated outcome; call once both steps are over.
  [[nodiscard]] SourceStats take_stats() { return std::move(outcome_); }

 private:
  [[nodiscard]] SessionBudget& budget() {
    return budget_ != nullptr ? *budget_ : local_budget_;
  }
  void serve_request_frame(const Frame& frame, FrameSink& sink,
                           bool process_routing_state);
  void stream_batch(FrameSink& sink, const repl::SyncBatch& batch);
  void fail(const TransportError& failure);

  repl::Replica* source_;
  repl::ForwardingPolicy* policy_;
  SimTime now_;
  repl::SyncOptions options_;
  SessionBudget* budget_;
  SessionBudget local_budget_;
  State state_ = State::Idle;
  SourceStats outcome_;
};

/// The target role as a resumable, frame-driven state machine: start()
/// emits the opening request through a FrameSink, then on_frame()
/// consumes the source's reply stream one frame at a time — summary
/// replies, BatchBegin, each BatchItem (applied as it arrives), and
/// BatchEnd — without ever blocking in between. take_result() builds
/// the NetSyncResult once finished(). The blocking wrappers
/// (send_request / send_fallback / receive) keep the sequential API
/// the loopback driver and the TCP client use.
class TargetSession {
 public:
  enum class State { Idle, RequestSent, SummarySent, Done, Failed,
                     Receiving };

  /// `budget` spans the session this target role belongs to; when null
  /// a local budget with the default ResourceLimits is used, so every
  /// path through here is resource-bounded.
  TargetSession(repl::Replica& target,
                repl::ForwardingPolicy* target_policy,
                repl::SyncOptions options = {},
                SessionBudget* budget = nullptr)
      : target_(&target),
        policy_(target_policy),
        options_(options),
        budget_(budget) {}

  /// Step 1, machine form: build this replica's request and emit it
  /// through `sink` (a SummaryRequest with summaries on, the exact
  /// Request otherwise). A sink TransportError is absorbed: the
  /// session ends Failed and take_result() reports it. A degraded
  /// read-only replica refuses up front: a pull mutates this side, so
  /// an Error frame is sent in place of the request and the session
  /// ends Done with `refused` set and nothing applied.
  void start(FrameSink& sink, ReplicaId source_id, SimTime now);

  /// True while the machine needs another source frame.
  [[nodiscard]] bool wants_frame() const {
    return state_ == State::RequestSent || state_ == State::SummarySent ||
           state_ == State::Receiving;
  }
  [[nodiscard]] bool finished() const {
    return state_ == State::Done || state_ == State::Failed;
  }

  /// Consume one source frame, applying batch items as their frames
  /// arrive. From SummarySent a SummaryMatch ends the sync, a
  /// SummaryMiss makes the machine emit the exact fallback Request
  /// through `sink`, and a direct BatchBegin (the Bloom filter proved
  /// us cold) just starts the batch. Protocol breaches throw
  /// ContractViolation; sink failures propagate TransportError.
  void on_frame(const Frame& frame, FrameSink& sink);

  /// The link died: the applied prefix is kept, `complete` stays
  /// false, no knowledge is learned. Ends Failed.
  void on_transport_error(const std::string& what);

  /// The sync's outcome; call once finished(). Framed byte counts
  /// cover every frame this machine consumed or emitted.
  NetSyncResult take_result();

  /// Blocking step 1: start() over a ConnectionFrameSink.
  void send_request(Connection& connection, ReplicaId source_id,
                    SimTime now);

  /// Loopback-driver step between send_request and receive, only when
  /// the interleaved source ended AwaitExact: read the SummaryMiss and
  /// send the exact fallback Request (reusing the routing state the
  /// summary carried). A live transport never calls this — receive()
  /// handles the miss inline.
  void send_fallback(Connection& connection);

  /// Blocking step 2: feed frames to on_frame until finished, then
  /// take_result(). A dropped link yields the applied prefix with
  /// `complete == false` and no knowledge learned.
  NetSyncResult receive(Connection& connection);

  [[nodiscard]] State state() const { return state_; }
  /// True when start() refused the sync because this replica is
  /// degraded read-only (an Error frame was sent instead).
  [[nodiscard]] bool refused() const { return refused_; }

 private:
  [[nodiscard]] SessionBudget& budget() {
    return budget_ != nullptr ? *budget_ : local_budget_;
  }
  /// The incremental applier, created lazily at the first batch frame
  /// (BatchApplier construction is side-effect-free).
  repl::BatchApplier& ensure_applier();
  void begin_batch(const Frame& frame);
  /// Emit the exact Request — the opener, or the post-miss fallback —
  /// written straight from the replica, with routing_state_.
  void send_exact(FrameSink& sink);

  repl::Replica* target_;
  repl::ForwardingPolicy* policy_;
  repl::SyncOptions options_;
  SessionBudget* budget_;
  SessionBudget local_budget_;
  State state_ = State::Idle;
  std::size_t request_bytes_ = 0;
  /// Framed bytes of every batch-side frame consumed so far.
  std::size_t batch_bytes_ = 0;
  /// Routing state sent with the opener: a summary's is reused by the
  /// fallback, so the source's policy hooks see one request per sync.
  std::vector<std::uint8_t> routing_state_;
  std::optional<repl::BatchApplier> applier_;
  std::optional<repl::BatchBeginInfo> begin_;
  std::uint64_t received_ = 0;
  std::optional<repl::SyncResult> result_;
  /// The session died before the receive phase (opening write or the
  /// driver-run fallback failed): consumed-byte stats stay zero, as
  /// the blocking path always reported for those failures.
  bool pre_receive_failure_ = false;
  /// start() refused the sync: this replica is degraded read-only.
  bool refused_ = false;
  std::string error_;
};

/// One full sync over an in-memory loopback link, driven sequentially
/// on the calling thread. Fault-free, this is repl::run_sync: that
/// entry point calls it and returns the target-side result.
struct LoopbackSyncOutcome {
  NetSyncResult client;  ///< target side
  SourceStats server;    ///< source side
  std::size_t bytes_delivered = 0;
  double simulated_seconds = 0.0;
};

LoopbackSyncOutcome sync_over_loopback(
    repl::Replica& source, repl::Replica& target,
    repl::ForwardingPolicy* source_policy,
    repl::ForwardingPolicy* target_policy, SimTime now,
    const repl::SyncOptions& options = {},
    const LoopbackFaults& faults = {});

/// One full encounter over a single loopback contact: `a` pulls from
/// `b`, then `a` pushes to `b` — the paper's two one-way syncs per
/// encounter (Section VI), with both roles alternating on the same
/// link. Faults span the whole contact, so a byte budget can die
/// during either sync; the push is still attempted after a cut pull
/// (its steps fail fast on the dead link), mirroring a real session.
struct LoopbackEncounterOutcome {
  NetSyncResult a_pulled;   ///< a as target of the first sync
  SourceStats b_served;     ///< b as source of the first sync
  NetSyncResult b_applied;  ///< b as target of the second sync
  SourceStats a_pushed;     ///< a as source of the second sync
  std::size_t bytes_delivered = 0;
  double simulated_seconds = 0.0;
};

LoopbackEncounterOutcome encounter_over_loopback(
    repl::Replica& a, repl::Replica& b,
    repl::ForwardingPolicy* a_policy, repl::ForwardingPolicy* b_policy,
    SimTime now, const repl::SyncOptions& options = {},
    const LoopbackFaults& faults = {});

// ---- whole sessions (TCP client/server) ------------------------------

struct ClientSessionOutcome {
  NetSyncResult pull;   ///< meaningful for Pull / Encounter modes
  SourceStats push;     ///< meaningful for Push / Encounter modes
  ReplicaId server{};   ///< peer id from the server's Hello
  std::size_t overhead_bytes = 0;  ///< hello frames
  bool transport_failed = false;
  /// The server answered the Hello with a transient Error frame
  /// instead of its own Hello — an overloaded serve shedding with
  /// Busy, or a draining one refusing new sessions. The session never
  /// started; retry with backoff, never a strike in either direction.
  bool refused = false;
  std::uint8_t refusal_code = 0;  ///< repl::kSyncErrorBusy etc.
  std::string error;
};

/// Drive one session as the connecting client. One SessionBudget built
/// from `limits` spans the whole session, so the byte ceiling
/// accumulates across the hello exchange and every sync.
ClientSessionOutcome run_client_session(
    Connection& connection, repl::Replica& self,
    repl::ForwardingPolicy* policy, SyncMode mode, SimTime now,
    const repl::SyncOptions& options = {},
    const ResourceLimits& limits = {});

struct ServerSessionOutcome {
  HelloInfo hello;      ///< who connected and what they asked for
  SourceStats served;   ///< meaningful for Pull / Encounter modes
  NetSyncResult applied;  ///< meaningful for Push / Encounter modes
  bool transport_failed = false;
  std::string error;
};

/// The whole server side of one session as a resumable, frame-driven
/// state machine: hello negotiation, then the source and/or target
/// role per the client's mode, all via on_frame() steps that emit
/// replies through a FrameSink and never block. Both the blocking
/// serve_session() and the epoll SyncServer (src/net/server.hpp) host
/// this exact machine, so the concurrent and sequential serve paths
/// cannot diverge behaviorally.
class ServerSessionMachine {
 public:
  ServerSessionMachine(repl::Replica& self, repl::ForwardingPolicy* policy,
                       SimTime now, repl::SyncOptions options = {},
                       const ResourceLimits& limits = {})
      : self_(&self),
        policy_(policy),
        now_(now),
        options_(options),
        effective_(options),
        budget_(limits) {}

  /// The session-spanning budget; the host's frame decode path charges
  /// and admits against it, as the blocking read loop does.
  [[nodiscard]] SessionBudget& budget() { return budget_; }

  [[nodiscard]] bool finished() const { return state_ == State::Done; }
  /// True while the machine needs another peer frame — the session is
  /// over exactly when it no longer does.
  [[nodiscard]] bool wants_frame() const { return !finished(); }

  /// Consume one peer frame, emitting replies through `sink`. Protocol
  /// breaches (malformed frames, step violations, resource-limit
  /// breaches) throw ContractViolation for the host to contain — and
  /// quarantine the peer over. Sink TransportErrors are absorbed into
  /// the outcome, like every link failure. A *local* disk fault inside
  /// the replica funnel propagates as StorageError — a
  /// ContractViolation subclass the host must catch FIRST and treat as
  /// its own failure: close the session, never strike the peer.
  void on_frame(const Frame& frame, FrameSink& sink);

  /// The link died (read side): absorb into the outcome as an
  /// incomplete sync. Never a strike — peers vanishing is the normal
  /// case in a DTN.
  void on_transport_error(const std::string& what);

  /// The session's outcome; call once finished().
  [[nodiscard]] ServerSessionOutcome take_outcome();

 private:
  enum class State { AwaitHello, Source, Target, Done };
  void harvest_source(FrameSink* sink);
  void start_target(FrameSink& sink);
  /// `sink` is null only when the link is already dead (transport
  /// error paths), where the ack could not be written anyway.
  void harvest_target(FrameSink* sink);

  repl::Replica* self_;
  repl::ForwardingPolicy* policy_;
  SimTime now_;
  repl::SyncOptions options_;    ///< as configured
  repl::SyncOptions effective_;  ///< after hello negotiation
  SessionBudget budget_;
  /// Both hellos advertised kFeatureBatchAck: confirm applied pushes.
  bool ack_negotiated_ = false;
  State state_ = State::AwaitHello;
  std::optional<SourceSession> source_;
  std::optional<TargetSession> target_;
  ServerSessionOutcome outcome_;
};

/// Serve one session on an accepted connection: a blocking read loop
/// over ServerSessionMachine. The peer is untrusted: every frame is
/// admitted against one SessionBudget built from `limits` before its
/// payload is allocated, and a breach propagates as ResourceLimitError
/// (a ContractViolation) for the caller to contain — and, in `pfrdtn
/// serve`, to quarantine the peer over.
ServerSessionOutcome serve_session(Connection& connection,
                                   repl::Replica& self,
                                   repl::ForwardingPolicy* policy,
                                   SimTime now,
                                   const repl::SyncOptions& options = {},
                                   const ResourceLimits& limits = {});

}  // namespace pfrdtn::net
