#include "net/session.hpp"

#include <algorithm>
#include <deque>

#include "util/storage_error.hpp"

namespace pfrdtn::net {

namespace {

std::vector<std::uint8_t> serialize_item(const repl::Item& item) {
  ByteWriter w;
  item.serialize(w);
  return w.take();
}

/// Semantic cap on a decoded peer knowledge, applied right after the
/// codec returns and before any of it is merged or stored.
void check_knowledge_weight(const repl::Knowledge& knowledge,
                            const ResourceLimits& limits) {
  const std::size_t weight = knowledge.weight();
  if (weight > limits.max_knowledge_entries) {
    throw ResourceLimitError(
        "peer knowledge weight " + std::to_string(weight) +
        " exceeds the " + std::to_string(limits.max_knowledge_entries) +
        "-entry cap");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloInfo& hello) {
  ByteWriter w;
  w.uvarint(hello.replica.value());
  w.u8(static_cast<std::uint8_t>(hello.mode));
  // Zero features encode as nothing: byte-identical to the legacy
  // hello, which legacy decoders require to end here.
  if (hello.features != 0) w.uvarint(hello.features);
  return w.take();
}

HelloInfo decode_hello(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  HelloInfo hello;
  hello.replica = ReplicaId(r.uvarint());
  const std::uint8_t mode = r.u8();
  PFRDTN_REQUIRE(mode >= 1 && mode <= 3);
  hello.mode = static_cast<SyncMode>(mode);
  if (!r.done()) hello.features = r.uvarint();
  PFRDTN_REQUIRE(r.done());
  return hello;
}

repl::SummaryMode resolve_summary_mode(repl::SummaryMode requested,
                                       std::uint64_t peer_features) {
  switch (requested) {
    case repl::SummaryMode::Off:
      return repl::SummaryMode::Off;
    case repl::SummaryMode::On:
      return repl::SummaryMode::On;
    case repl::SummaryMode::Auto:
      return (peer_features & kFeatureSummaryExchange) != 0
                 ? repl::SummaryMode::On
                 : repl::SummaryMode::Off;
  }
  throw ContractViolation("invalid summary mode");
}

namespace {

/// Cap on the opaque policy blob, shared by both request forms.
void check_routing_blob(const std::vector<std::uint8_t>& blob,
                        const ResourceLimits& limits) {
  if (blob.size() > limits.max_policy_blob_bytes) {
    throw ResourceLimitError(
        "request policy blob of " + std::to_string(blob.size()) +
        " bytes exceeds the " +
        std::to_string(limits.max_policy_blob_bytes) + "-byte cap");
  }
}

}  // namespace

// ---- SourceSession ---------------------------------------------------

void SourceSession::on_transport_error(const std::string& what) {
  outcome_.transport_failed = true;
  outcome_.stats.complete = false;
  outcome_.error = what;
  state_ = State::Failed;
}

void SourceSession::stream_batch(FrameSink& sink,
                                 const repl::SyncBatch& batch) {
  outcome_.stats.complete = batch.complete;
  outcome_.stats.batch_bytes += sink.send(
      repl::SyncFrame::BatchBegin, repl::encode_batch_begin(batch));
  for (const repl::Item& item : batch.items) {
    outcome_.stats.batch_bytes +=
        sink.send(repl::SyncFrame::BatchItem, serialize_item(item));
    ++outcome_.stats.items_sent;
  }
  // The batch was built in this same step, so the knowledge it was
  // built against is the one sent, encoded once per revision.
  outcome_.stats.batch_bytes +=
      sink.send(repl::SyncFrame::BatchEnd, source_->knowledge().wire());
}

void SourceSession::serve_request_frame(const Frame& frame,
                                        FrameSink& sink,
                                        bool process_routing_state) {
  const ResourceLimits& limits = budget_->limits();
  ByteReader reader(frame.payload);
  reader.set_element_budget(limits.max_decode_elements);
  const repl::SyncRequest request = repl::SyncRequest::deserialize(reader);
  PFRDTN_REQUIRE(reader.done());
  check_knowledge_weight(request.knowledge, limits);
  check_routing_blob(request.routing_state, limits);
  stream_batch(sink, repl::build_batch(*source_, policy_, request, now_,
                                       options_, process_routing_state));
}

void SourceSession::on_frame(const Frame& frame, FrameSink& sink) {
  PFRDTN_REQUIRE(wants_frame());

  if (state_ == State::AwaitExact) {
    PFRDTN_REQUIRE(frame.type == repl::SyncFrame::Request);
    outcome_.stats.request_bytes += frame.wire_bytes;
    // The summary already carried this sync's routing state through
    // answer_summary; processing it again would double-charge stateful
    // policies.
    serve_request_frame(frame, sink, /*process_routing_state=*/false);
    state_ = State::Done;
    return;
  }

  // Idle: the opener. A peer that cannot run its own pull (degraded
  // read-only after a storage fault) opens with an Error frame instead
  // of a request: a structured, transient refusal this role ends on
  // gracefully — never a protocol violation, never a strike.
  if (frame.type == repl::SyncFrame::Error) {
    const repl::SyncErrorInfo info =
        repl::decode_error_frame(frame.payload);
    outcome_.stats.request_bytes += frame.wire_bytes;
    outcome_.stats.complete = false;
    outcome_.refused = true;
    outcome_.error = "peer refused sync: " + info.message;
    state_ = State::Done;
    return;
  }

  // With summaries off this side speaks the legacy protocol exactly:
  // only a Request opener is admitted (the Error frame above is new
  // but strictly additive — a legacy peer never sends one).
  const bool summaries = options_.summary_mode != repl::SummaryMode::Off;
  if (!summaries) PFRDTN_REQUIRE(frame.type == repl::SyncFrame::Request);
  outcome_.stats.request_bytes += frame.wire_bytes;

  if (frame.type == repl::SyncFrame::Request) {
    serve_request_frame(frame, sink, /*process_routing_state=*/true);
    state_ = State::Done;
    return;
  }

  PFRDTN_REQUIRE(frame.type == repl::SyncFrame::SummaryRequest);
  ByteReader reader(frame.payload);
  reader.set_element_budget(budget_->limits().max_decode_elements);
  const repl::SummaryRequestInfo request =
      repl::SummaryRequestInfo::deserialize(reader);
  PFRDTN_REQUIRE(reader.done());
  check_routing_blob(request.routing_state, budget_->limits());
  const repl::SummaryAnswer answer =
      repl::answer_summary(*source_, policy_, request, now_, options_);
  switch (answer.kind) {
    case repl::SummaryAnswer::Kind::Match:
      outcome_.stats.batch_bytes +=
          sink.send(repl::SyncFrame::SummaryMatch,
                    repl::encode_summary_reply(source_->id()));
      outcome_.stats.complete = true;
      state_ = State::Done;
      return;
    case repl::SummaryAnswer::Kind::Batch:
      stream_batch(sink, answer.batch);
      state_ = State::Done;
      return;
    case repl::SummaryAnswer::Kind::Miss:
      outcome_.stats.batch_bytes +=
          sink.send(repl::SyncFrame::SummaryMiss,
                    repl::encode_summary_reply(source_->id()));
      state_ = State::AwaitExact;
      return;
  }
  throw ContractViolation("invalid summary answer");
}

// ---- TargetSession ---------------------------------------------------

repl::BatchApplier& TargetSession::ensure_applier() {
  if (!applier_) applier_.emplace(*target_, options_);
  return *applier_;
}

void TargetSession::start(FrameSink& sink, ReplicaId source_id,
                          SimTime now) {
  PFRDTN_REQUIRE(state_ == State::Idle);
  try {
    if (target_->read_only()) {
      // A pull mutates this replica, and degraded read-only mode
      // refuses every mutation up front — before the peer builds a
      // batch it would have streamed for nothing. The Error frame is
      // the structured form of that refusal; the peer classifies it
      // as transient and simply retries at a later contact.
      error_ = "replica " + target_->id().str() +
               " is degraded read-only after a storage fault";
      request_bytes_ = sink.send(
          repl::SyncFrame::Error,
          repl::encode_error_frame(repl::kSyncErrorReadOnly, error_));
      refused_ = true;
      result_.emplace();
      result_->stats.complete = false;
      state_ = State::Done;
      return;
    }
    if (options_.summary_mode != repl::SummaryMode::Off) {
      const repl::SummaryRequestInfo request = repl::make_summary_request(
          *target_, policy_, source_id, now, options_.summary);
      routing_state_ = request.routing_state;
      ByteWriter w;
      request.serialize(w);
      request_bytes_ =
          sink.send(repl::SyncFrame::SummaryRequest, w.take());
      state_ = State::SummarySent;
    } else {
      routing_state_ =
          repl::request_routing_state(*target_, policy_, source_id, now);
      send_exact(sink);
    }
  } catch (const TransportError& failure) {
    on_transport_error(failure.what());
  }
}

void TargetSession::send_exact(FrameSink& sink) {
  ByteWriter w;
  repl::write_request(w, target_->id(), target_->filter(),
                      target_->knowledge(), routing_state_);
  request_bytes_ += sink.send(repl::SyncFrame::Request, w.take());
  state_ = State::RequestSent;
}

void TargetSession::begin_batch(const Frame& frame) {
  const repl::BatchBeginInfo begin =
      repl::decode_batch_begin(frame.payload);
  const ResourceLimits& limits = budget_->limits();
  if (begin.count > limits.max_batch_items) {
    throw ResourceLimitError(
        "batch announces " + std::to_string(begin.count) +
        " items, above the " + std::to_string(limits.max_batch_items) +
        "-item cap");
  }
  begin_ = begin;
  received_ = 0;
  ensure_applier();
  state_ = State::Receiving;
}

void TargetSession::on_frame(const Frame& frame, FrameSink& sink) {
  PFRDTN_REQUIRE(wants_frame());
  const ResourceLimits& limits = budget_->limits();
  batch_bytes_ += frame.wire_bytes;

  if (state_ == State::SummarySent) {
    // The source's summary reply: a Match ends the sync, a Miss makes
    // us emit the exact fallback Request, and a direct BatchBegin
    // (the Bloom filter proved us cold) just starts the batch.
    if (frame.type == repl::SyncFrame::SummaryMatch) {
      repl::decode_summary_reply(frame.payload);
      result_ = repl::apply_summary_match(*target_, options_);
      state_ = State::Done;
      return;
    }
    if (frame.type == repl::SyncFrame::SummaryMiss) {
      repl::decode_summary_reply(frame.payload);
      send_exact(sink);
      return;
    }
    PFRDTN_REQUIRE(frame.type == repl::SyncFrame::BatchBegin);
    begin_batch(frame);
    return;
  }

  if (state_ == State::RequestSent) {
    PFRDTN_REQUIRE(frame.type == repl::SyncFrame::BatchBegin);
    begin_batch(frame);
    return;
  }

  // Receiving: the item stream, applied as each frame arrives.
  if (frame.type == repl::SyncFrame::BatchItem) {
    ByteReader reader(frame.payload);
    reader.set_element_budget(limits.max_decode_elements);
    const repl::Item item = repl::Item::deserialize(reader);
    PFRDTN_REQUIRE(reader.done());
    ++received_;
    PFRDTN_REQUIRE(received_ <= begin_->count);
    ensure_applier().apply(item);
    return;
  }
  PFRDTN_REQUIRE(frame.type == repl::SyncFrame::BatchEnd);
  PFRDTN_REQUIRE(received_ == begin_->count);
  ByteReader reader(frame.payload);
  reader.set_element_budget(limits.max_decode_elements);
  const repl::Knowledge source_knowledge =
      repl::Knowledge::deserialize(reader);
  PFRDTN_REQUIRE(reader.done());
  check_knowledge_weight(source_knowledge, limits);
  result_ = ensure_applier().finish(begin_->complete, source_knowledge);
  state_ = State::Done;
}

void TargetSession::on_transport_error(const std::string& what) {
  error_ = what;
  state_ = State::Failed;
}

NetSyncResult TargetSession::take_result() {
  PFRDTN_REQUIRE(finished());
  NetSyncResult outcome;
  if (state_ == State::Failed) {
    outcome.result = ensure_applier().abandon();
    outcome.transport_failed = true;
    outcome.error = error_;
  } else {
    outcome.result = std::move(*result_);
    result_.reset();
  }
  outcome.refused = refused_;
  if (refused_) outcome.error = error_;
  outcome.result.stats.request_bytes = request_bytes_;
  outcome.result.stats.batch_bytes = batch_bytes_;
  return outcome;
}

// ---- the in-process pump ---------------------------------------------

namespace {

/// One end of an in-process contact: its replica and policy, its
/// session budget (spanning the contact, as a TCP session's does), and
/// the frames in flight to it.
struct ContactEnd {
  ContactEnd(repl::Replica& r, repl::ForwardingPolicy* p)
      : replica(&r), policy(p) {}

  repl::Replica* replica;
  repl::ForwardingPolicy* policy;
  SessionBudget budget;
  std::deque<Frame> inbox;
};

/// The contact window: one byte budget shared by every frame of every
/// sync on the contact, in both directions.
class ContactWindow {
 public:
  explicit ContactWindow(std::optional<std::size_t> cut_after_bytes)
      : cut_after_(cut_after_bytes) {}

  /// Carry one frame's wire bytes. The frame that crosses the window
  /// delivers its in-window prefix and is lost; its writer, and every
  /// later one, gets a TransportError.
  void carry(std::size_t wire_bytes) {
    if (closed_) throw TransportError(closed_message());
    const std::size_t left = cut_after_.value_or(SIZE_MAX) - delivered_;
    delivered_ += std::min(wire_bytes, left);
    if (wire_bytes > left) {
      closed_ = true;
      throw TransportError(closed_message());
    }
  }

  [[nodiscard]] std::size_t delivered() const { return delivered_; }

  [[nodiscard]] std::string closed_message() const {
    return "contact window closed after " + std::to_string(delivered_) +
           " bytes";
  }

 private:
  std::optional<std::size_t> cut_after_;
  std::size_t delivered_ = 0;
  bool closed_ = false;
};

/// FrameSink from one contact end to the other: charges the sender's
/// budget (as ConnectionFrameSink does), the window, and the
/// receiver's budget (admission + charge, as read_frame does), then
/// queues the frame for the receiver's machine.
class ContactSink final : public FrameSink {
 public:
  ContactSink(ContactWindow& window, ContactEnd& from, ContactEnd& to)
      : window_(&window), from_(&from), to_(&to) {}

  std::size_t send(repl::SyncFrame type,
                   const std::vector<std::uint8_t>& payload) override {
    const std::size_t wire_bytes = framed_size(payload.size());
    from_->budget.charge(wire_bytes);
    window_->carry(wire_bytes);
    to_->budget.admit_frame(static_cast<std::uint8_t>(type),
                            static_cast<std::uint32_t>(payload.size()));
    to_->budget.charge(wire_bytes);
    to_->inbox.push_back(Frame{type, payload, wire_bytes});
    return wire_bytes;
  }

 private:
  ContactWindow* window_;
  ContactEnd* from_;
  ContactEnd* to_;
};

/// Hand the oldest frame in `inbox` to its machine; a sink failure
/// while answering ends the machine's link.
template <typename Machine>
void deliver(Machine& machine, std::deque<Frame>& inbox,
             FrameSink& reply) {
  const Frame frame = std::move(inbox.front());
  inbox.pop_front();
  try {
    machine.on_frame(frame, reply);
  } catch (const TransportError& failure) {
    machine.on_transport_error(failure.what());
  }
}

/// One sync over the contact: `target` pulls from `source`. The source
/// answers everything queued for it before the target takes a frame,
/// so a whole opener is answered first. A machine still waiting once
/// nothing is in flight has lost its link.
void pump_sync(ContactWindow& window, ContactEnd& target,
               ContactEnd& source, SimTime now,
               const repl::SyncOptions& options, NetSyncResult& pulled,
               SourceStats& served) {
  TargetSession pull(*target.replica, target.policy, options,
                     target.budget);
  SourceSession serve(*source.replica, source.policy, now, options,
                      source.budget);
  ContactSink to_source(window, target, source);
  ContactSink to_target(window, source, target);
  pull.start(to_source, source.replica->id(), now);
  for (;;) {
    if (serve.wants_frame() && !source.inbox.empty()) {
      deliver(serve, source.inbox, to_target);
    } else if (pull.wants_frame() && !target.inbox.empty()) {
      deliver(pull, target.inbox, to_source);
    } else {
      break;
    }
  }
  if (serve.wants_frame()) serve.on_transport_error(window.closed_message());
  if (pull.wants_frame()) pull.on_transport_error(window.closed_message());
  pulled = pull.take_result();
  served = serve.take_stats();
}

}  // namespace

LoopbackSyncOutcome sync_over_loopback(
    repl::Replica& source, repl::Replica& target,
    repl::ForwardingPolicy* source_policy,
    repl::ForwardingPolicy* target_policy, SimTime now,
    const repl::SyncOptions& options,
    std::optional<std::size_t> cut_after_bytes) {
  LoopbackSyncOutcome outcome;
  ContactWindow window(cut_after_bytes);
  ContactEnd target_end(target, target_policy);
  ContactEnd source_end(source, source_policy);
  pump_sync(window, target_end, source_end, now, options, outcome.client,
            outcome.server);
  outcome.bytes_delivered = window.delivered();
  return outcome;
}

LoopbackEncounterOutcome encounter_over_loopback(
    repl::Replica& a, repl::Replica& b,
    repl::ForwardingPolicy* a_policy, repl::ForwardingPolicy* b_policy,
    SimTime now, const repl::SyncOptions& options,
    std::optional<std::size_t> cut_after_bytes) {
  LoopbackEncounterOutcome outcome;
  ContactWindow window(cut_after_bytes);
  ContactEnd a_end(a, a_policy);
  ContactEnd b_end(b, b_policy);
  // Sync 1: a pulls from b. Sync 2: roles swap on the same contact.
  pump_sync(window, a_end, b_end, now, options, outcome.a_pulled,
            outcome.b_served);
  pump_sync(window, b_end, a_end, now, options, outcome.b_applied,
            outcome.a_pushed);
  outcome.bytes_delivered = window.delivered();
  return outcome;
}

// ---- the blocking loop -----------------------------------------------

template <typename Machine>
void run_blocking(Connection& connection, SessionBudget& budget,
                  Machine& machine) {
  ConnectionFrameSink sink(connection, budget);
  try {
    while (machine.wants_frame())
      machine.on_frame(read_frame(connection, budget), sink);
  } catch (const TransportError& failure) {
    machine.on_transport_error(failure.what());
  }
}

template void run_blocking(Connection&, SessionBudget&, SourceSession&);
template void run_blocking(Connection&, SessionBudget&, TargetSession&);
template void run_blocking(Connection&, SessionBudget&,
                           ServerSessionMachine&);

// ---- whole sessions (TCP client/server) ------------------------------

ClientSessionOutcome run_client_session(Connection& connection,
                                        repl::Replica& self,
                                        repl::ForwardingPolicy* policy,
                                        SyncMode mode, SimTime now,
                                        const repl::SyncOptions& options,
                                        const ResourceLimits& limits) {
  ClientSessionOutcome outcome;
  SessionBudget budget(limits);
  repl::SyncOptions effective = options;
  bool await_ack = false;
  try {
    // Always advertise the push ack; the server echoes the bit iff it
    // supports it, so a legacy server just keeps the unacked protocol.
    const std::uint64_t features =
        kFeatureBatchAck | (options.summary_mode != repl::SummaryMode::Off
                                ? kFeatureSummaryExchange
                                : 0);
    outcome.overhead_bytes +=
        write_frame(connection, repl::SyncFrame::Hello,
                    encode_hello({self.id(), mode, features}), budget);
    const Frame answer = read_frame(connection, budget);
    outcome.overhead_bytes += answer.wire_bytes;
    if (answer.type == repl::SyncFrame::Error) {
      // The server refused the whole session in place of its Hello —
      // an overloaded serve shedding with Busy, or one draining. A
      // structured, transient refusal: back off and retry, never a
      // violation.
      const repl::SyncErrorInfo info =
          repl::decode_error_frame(answer.payload);
      outcome.refused = true;
      outcome.refusal_code = info.code;
      outcome.error = "server refused session (" +
                      repl::sync_error_code_name(info.code) +
                      "): " + info.message;
      return outcome;
    }
    PFRDTN_REQUIRE(answer.type == repl::SyncFrame::Hello);
    const HelloInfo server_hello = decode_hello(answer.payload);
    outcome.server = server_hello.replica;
    // Auto downgrades to the exact protocol against a server that did
    // not advertise summary support; On forces the fast path.
    effective.summary_mode = resolve_summary_mode(options.summary_mode,
                                                  server_hello.features);
    await_ack = (server_hello.features & kFeatureBatchAck) != 0;
  } catch (const TransportError& failure) {
    outcome.transport_failed = true;
    outcome.error = failure.what();
    return outcome;
  }

  if (mode == SyncMode::Pull || mode == SyncMode::Encounter) {
    TargetSession session(self, policy, effective, budget);
    ConnectionFrameSink sink(connection, budget);
    session.start(sink, outcome.server, now);
    run_blocking(connection, budget, session);
    outcome.pull = session.take_result();
    if (outcome.pull.transport_failed) {
      outcome.transport_failed = true;
      outcome.error = outcome.pull.error;
      if (mode == SyncMode::Encounter) return outcome;
    }
  }
  if (mode == SyncMode::Push || mode == SyncMode::Encounter) {
    SourceSession session(self, policy, now, effective, budget);
    run_blocking(connection, budget, session);
    outcome.push = session.take_stats();
    if (outcome.push.transport_failed) {
      outcome.transport_failed = true;
      outcome.error = outcome.push.error;
    } else if (await_ack && !outcome.push.refused) {
      // The batch is written, but locally successful writes only prove
      // the bytes reached a socket buffer. Block on the server's
      // BatchAck: a link that died while the server was still reading
      // surfaces here as a transport failure the caller can retry,
      // instead of a silently dropped push.
      try {
        const Frame ack =
            expect_frame(connection, repl::SyncFrame::BatchAck, budget);
        outcome.overhead_bytes += ack.wire_bytes;
        repl::decode_batch_ack(ack.payload);
      } catch (const TransportError& failure) {
        outcome.transport_failed = true;
        outcome.error =
            std::string("push not acknowledged: ") + failure.what();
      }
    }
  }
  return outcome;
}

// ---- ServerSessionMachine --------------------------------------------

void ServerSessionMachine::on_frame(const Frame& frame, FrameSink& sink) {
  switch (state_) {
    case State::AwaitHello: {
      PFRDTN_REQUIRE(frame.type == repl::SyncFrame::Hello);
      outcome_.hello = decode_hello(frame.payload);
      // Echo our features only to a client that advertised some: a
      // legacy client's decoder rejects any bytes after the mode.
      std::uint64_t features = 0;
      if (outcome_.hello.features != 0) {
        if (options_.summary_mode != repl::SummaryMode::Off)
          features |= kFeatureSummaryExchange;
        if ((outcome_.hello.features & kFeatureBatchAck) != 0)
          features |= kFeatureBatchAck;
      }
      ack_negotiated_ = (features & kFeatureBatchAck) != 0;
      try {
        sink.send(
            repl::SyncFrame::Hello,
            encode_hello({self_->id(), outcome_.hello.mode, features}));
      } catch (const TransportError& failure) {
        outcome_.transport_failed = true;
        outcome_.error = failure.what();
        state_ = State::Done;
        return;
      }
      effective_.summary_mode = resolve_summary_mode(
          options_.summary_mode, outcome_.hello.features);
      const SyncMode mode = outcome_.hello.mode;
      if (mode == SyncMode::Pull || mode == SyncMode::Encounter) {
        source_.emplace(*self_, policy_, now_, effective_, budget_);
        state_ = State::Source;
      } else {
        start_target(sink);
      }
      return;
    }
    case State::Source: {
      try {
        source_->on_frame(frame, sink);
      } catch (const TransportError& failure) {
        source_->on_transport_error(failure.what());
      }
      // A summary miss leaves the source owed the exact fallback
      // Request; everything else ends its role.
      if (source_->state() == SourceSession::State::AwaitExact) return;
      harvest_source(&sink);
      return;
    }
    case State::Target: {
      try {
        target_->on_frame(frame, sink);
      } catch (const TransportError& failure) {
        target_->on_transport_error(failure.what());
      }
      if (target_->finished()) harvest_target(&sink);
      return;
    }
    case State::Done:
      break;
  }
  throw ContractViolation("frame after session end");
}

void ServerSessionMachine::harvest_source(FrameSink* sink) {
  outcome_.served = source_->take_stats();
  source_.reset();
  if (outcome_.served.transport_failed) {
    outcome_.transport_failed = true;
    outcome_.error = outcome_.served.error;
    // A dead link never starts the push leg of an encounter.
    if (outcome_.hello.mode == SyncMode::Encounter) {
      state_ = State::Done;
      return;
    }
  }
  if (outcome_.hello.mode == SyncMode::Pull) {
    state_ = State::Done;
    return;
  }
  PFRDTN_REQUIRE(sink != nullptr);
  start_target(*sink);
}

void ServerSessionMachine::start_target(FrameSink& sink) {
  target_.emplace(*self_, policy_, effective_, budget_);
  target_->start(sink, outcome_.hello.replica, now_);
  // start() absorbs a sink failure into the Failed state; harvest it
  // now so the host sees the session finished. A refusal (degraded
  // read-only) also finishes here, and never earns an ack.
  if (target_->finished()) {
    harvest_target(&sink);
  } else {
    state_ = State::Target;
  }
}

void ServerSessionMachine::harvest_target(FrameSink* sink) {
  outcome_.applied = target_->take_result();
  target_.reset();
  if (outcome_.applied.transport_failed) {
    outcome_.transport_failed = true;
    outcome_.error = outcome_.applied.error;
  } else if (sink != nullptr && ack_negotiated_ &&
             !outcome_.applied.refused) {
    // Confirm the applied push so the source can call it delivered;
    // received_events holds every item copy that fully arrived.
    try {
      sink->send(repl::SyncFrame::BatchAck,
                 repl::encode_batch_ack(
                     outcome_.applied.result.received_events.size()));
    } catch (const TransportError& failure) {
      // The batch itself landed; only the confirmation did not. The
      // source will retry and the versioned store dedups the re-push.
      outcome_.transport_failed = true;
      outcome_.error = failure.what();
    }
  }
  state_ = State::Done;
}

void ServerSessionMachine::on_transport_error(const std::string& what) {
  switch (state_) {
    case State::AwaitHello:
      outcome_.transport_failed = true;
      outcome_.error = what;
      state_ = State::Done;
      return;
    case State::Source:
      source_->on_transport_error(what);
      // A failed source always ends the session: the encounter's push
      // leg is never attempted on a dead link.
      harvest_source(nullptr);
      return;
    case State::Target:
      target_->on_transport_error(what);
      harvest_target(nullptr);
      return;
    case State::Done:
      // Late notification after completion (e.g. the flush of the
      // final frames failed): the outcome is already sealed.
      return;
  }
}

ServerSessionOutcome ServerSessionMachine::take_outcome() {
  PFRDTN_REQUIRE(finished());
  return std::move(outcome_);
}

ServerSessionOutcome serve_session(Connection& connection,
                                   repl::Replica& self,
                                   repl::ForwardingPolicy* policy,
                                   SimTime now,
                                   const repl::SyncOptions& options,
                                   const ResourceLimits& limits) {
  ServerSessionMachine machine(self, policy, now, options, limits);
  try {
    run_blocking(connection, machine.budget(), machine);
  } catch (const StorageError& fault) {
    // A local disk fault, not peer misbehaviour: caught here so the
    // caller never quarantines the peer over it. The session ends as
    // this side's failure.
    machine.on_transport_error(std::string("local storage fault: ") +
                               fault.what());
  }
  return machine.take_outcome();
}

}  // namespace pfrdtn::net

namespace pfrdtn::repl {

// Declared in repl/sync.hpp. The in-process entry point is the session
// machines on the in-process pump, with no contact window, so the
// emulator, the examples and the benches run the same Figure-4 engine
// as TCP, serve and the check harness.
SyncResult run_sync(Replica& source, Replica& target,
                    ForwardingPolicy* source_policy,
                    ForwardingPolicy* target_policy, SimTime now,
                    const SyncOptions& options) {
  net::LoopbackSyncOutcome outcome = net::sync_over_loopback(
      source, target, source_policy, target_policy, now, options);
  net::NetSyncResult& client = outcome.client;
  if (client.refused) {
    throw ReadOnlyError("replica " + target.id().str() +
                        " is read-only (sync refused after a storage "
                        "fault)");
  }
  if (client.transport_failed) throw net::TransportError(client.error);
  return std::move(client.result);
}

}  // namespace pfrdtn::repl
