#pragma once

/// \file session.hpp
/// The sync-session state machines that run the Figure-4 exchange.
/// Each sync has a *source* role (answers a request by streaming a
/// batch) and a *target* role (sends the request, applies batch items
/// as their frames arrive). Streaming item-by-item means a dropped
/// link leaves the target with the fully received prefix applied,
/// `complete == false`, and the source knowledge never merged — the
/// truncated-contact semantics the substrate's SyncBatch::complete
/// flag was designed for.
///
/// The machines (SourceSession, TargetSession, ServerSessionMachine)
/// are entered only through on_frame() and on_transport_error(), and
/// emit through a FrameSink. Three hosts feed them:
///   - the in-process pump behind sync_over_loopback and
///     encounter_over_loopback (and so repl::run_sync, the emulator
///     and the check harness) hands each emitted Frame straight to the
///     peer machine, with no byte link;
///   - run_blocking, the read_frame -> on_frame loop over a Connection
///     that run_client_session and serve_session share;
///   - the epoll event loop (src/net/server.hpp), which feeds a
///     FrameDecoder.
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

/// The source role as a resumable, frame-driven state machine: hand it
/// one decoded peer frame at a time via on_frame() and it emits every
/// reply through a FrameSink, never blocking in between. The host
/// decides how frames arrive (see the file comment). With
/// options.summary_mode == Off the opener must be an exact Request
/// (the legacy protocol, byte for byte); otherwise a SummaryRequest
/// opener is also accepted and answered per the summary flow. All
/// peer input is accounted against the host's `budget`; breaches throw
/// ResourceLimitError like any other protocol violation.
class SourceSession {
 public:
  enum class State { Idle, AwaitExact, Done, Failed };

  /// `budget` spans the session this role belongs to.
  SourceSession(repl::Replica& source, repl::ForwardingPolicy* policy,
                SimTime now, repl::SyncOptions options,
                SessionBudget& budget)
      : source_(&source),
        policy_(policy),
        now_(now),
        options_(options),
        budget_(&budget) {}

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
  /// (hosts turn those into on_transport_error).
  void on_frame(const Frame& frame, FrameSink& sink);

  /// The link died while this role was live: absorb the failure into
  /// the stats, as a truncated contact, and end Failed.
  void on_transport_error(const std::string& what);

  [[nodiscard]] State state() const { return state_; }
  /// The accumulated outcome; call once the role no longer
  /// wants_frame().
  [[nodiscard]] SourceStats take_stats() { return std::move(outcome_); }

 private:
  void serve_request_frame(const Frame& frame, FrameSink& sink,
                           bool process_routing_state);
  void stream_batch(FrameSink& sink, const repl::SyncBatch& batch);

  repl::Replica* source_;
  repl::ForwardingPolicy* policy_;
  SimTime now_;
  repl::SyncOptions options_;
  SessionBudget* budget_;
  State state_ = State::Idle;
  SourceStats outcome_;
};

/// The target role as a resumable, frame-driven state machine: start()
/// emits the opening request through a FrameSink, then on_frame()
/// consumes the source's reply stream one frame at a time — summary
/// replies, BatchBegin, each BatchItem (applied as it arrives), and
/// BatchEnd — without ever blocking in between. take_result() builds
/// the NetSyncResult once finished().
class TargetSession {
 public:
  /// `budget` spans the session this target role belongs to.
  TargetSession(repl::Replica& target,
                repl::ForwardingPolicy* target_policy,
                repl::SyncOptions options, SessionBudget& budget)
      : target_(&target),
        policy_(target_policy),
        options_(options),
        budget_(&budget) {}

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
  /// cover every frame this machine consumed or fully emitted.
  NetSyncResult take_result();

 private:
  enum class State { Idle, RequestSent, SummarySent, Done, Failed,
                     Receiving };

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
  /// start() refused the sync: this replica is degraded read-only.
  bool refused_ = false;
  std::string error_;
};

/// One full sync run in process by the pump: the machines' frames
/// move straight from one to the other, with no byte link. Fault-free,
/// this is repl::run_sync: that entry point calls it and returns the
/// target-side result.
///
/// `cut_after_bytes` bounds the contact window (a DTN contact ending
/// mid-stream): the frame that crosses it delivers its in-window
/// prefix, which counts in bytes_delivered, and is lost; its writer
/// gets a TransportError, and every later frame is lost whole. Each
/// frame is charged, in order, to the sender's SessionBudget, to the
/// window, and to the receiver's budget (admission + charge, as
/// read_frame does). The source answers a whole opener before the
/// target consumes anything.
struct LoopbackSyncOutcome {
  NetSyncResult client;  ///< target side
  SourceStats server;    ///< source side
  std::size_t bytes_delivered = 0;
};

LoopbackSyncOutcome sync_over_loopback(
    repl::Replica& source, repl::Replica& target,
    repl::ForwardingPolicy* source_policy,
    repl::ForwardingPolicy* target_policy, SimTime now,
    const repl::SyncOptions& options = {},
    std::optional<std::size_t> cut_after_bytes = std::nullopt);

/// One full encounter over a single in-process contact: `a` pulls from
/// `b`, then `a` pushes to `b` — the paper's two one-way syncs per
/// encounter (Section VI). The contact window and each end's
/// SessionBudget span both syncs, so the window can close during
/// either; the push is still attempted after a cut pull (its opener
/// fails at once).
struct LoopbackEncounterOutcome {
  NetSyncResult a_pulled;   ///< a as target of the first sync
  SourceStats b_served;     ///< b as source of the first sync
  NetSyncResult b_applied;  ///< b as target of the second sync
  SourceStats a_pushed;     ///< a as source of the second sync
  std::size_t bytes_delivered = 0;
};

LoopbackEncounterOutcome encounter_over_loopback(
    repl::Replica& a, repl::Replica& b,
    repl::ForwardingPolicy* a_policy, repl::ForwardingPolicy* b_policy,
    SimTime now, const repl::SyncOptions& options = {},
    std::optional<std::size_t> cut_after_bytes = std::nullopt);

/// The blocking host: read a frame (budgeted), hand it to the
/// machine's on_frame, and repeat while it wants_frame(); replies go
/// back over the same connection. A TransportError from either
/// direction goes to on_transport_error. Defined for SourceSession,
/// TargetSession (start() it first) and ServerSessionMachine.
template <typename Machine>
void run_blocking(Connection& connection, SessionBudget& budget,
                  Machine& machine);

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
/// replies through a FrameSink and never block. Both serve_session()
/// (through run_blocking) and the epoll SyncServer
/// (src/net/server.hpp) host this exact machine, so the concurrent and
/// sequential serve paths cannot diverge behaviorally.
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

/// Serve one session on an accepted connection: run_blocking over a
/// ServerSessionMachine. The peer is untrusted: every frame is
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
