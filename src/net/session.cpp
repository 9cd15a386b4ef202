#include "net/session.hpp"

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

void SourceSession::fail(const TransportError& failure) {
  outcome_.transport_failed = true;
  outcome_.stats.complete = false;
  outcome_.error = failure.what();
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
  SessionBudget& b = budget();
  ByteReader reader(frame.payload);
  reader.set_element_budget(b.limits().max_decode_elements);
  const repl::SyncRequest request = repl::SyncRequest::deserialize(reader);
  PFRDTN_REQUIRE(reader.done());
  check_knowledge_weight(request.knowledge, b.limits());
  check_routing_blob(request.routing_state, b.limits());
  stream_batch(sink, repl::build_batch(*source_, policy_, request, now_,
                                       options_, process_routing_state));
}

void SourceSession::on_frame(const Frame& frame, FrameSink& sink) {
  PFRDTN_REQUIRE(wants_frame());
  SessionBudget& b = budget();

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
  reader.set_element_budget(b.limits().max_decode_elements);
  const repl::SummaryRequestInfo request =
      repl::SummaryRequestInfo::deserialize(reader);
  PFRDTN_REQUIRE(reader.done());
  check_routing_blob(request.routing_state, b.limits());
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

void SourceSession::serve_opener(Connection& connection) {
  PFRDTN_REQUIRE(state_ == State::Idle);
  SessionBudget& b = budget();
  ConnectionFrameSink sink(connection, b);
  try {
    // Read any frame and let on_frame() validate it: with summaries
    // off it still admits only Request — or the Error refusal.
    const Frame opener = read_frame(connection, b);
    on_frame(opener, sink);
  } catch (const TransportError& failure) {
    fail(failure);
  }
}

void SourceSession::serve_exact(Connection& connection) {
  PFRDTN_REQUIRE(state_ == State::AwaitExact);
  SessionBudget& b = budget();
  ConnectionFrameSink sink(connection, b);
  try {
    const Frame request_frame =
        expect_frame(connection, repl::SyncFrame::Request, b);
    on_frame(request_frame, sink);
  } catch (const TransportError& failure) {
    fail(failure);
  }
}

SourceStats run_source(Connection& connection, repl::Replica& source,
                       repl::ForwardingPolicy* source_policy, SimTime now,
                       const repl::SyncOptions& options,
                       SessionBudget* budget) {
  SourceSession session(source, source_policy, now, options, budget);
  session.serve_opener(connection);
  // On a live transport the peer's fallback Request is already on its
  // way when the miss reply lands, so blocking here is the whole drive.
  if (session.state() == SourceSession::State::AwaitExact)
    session.serve_exact(connection);
  return session.take_stats();
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
    state_ = State::Failed;
    pre_receive_failure_ = true;
    error_ = failure.what();
  }
}

void TargetSession::send_request(Connection& connection,
                                 ReplicaId source_id, SimTime now) {
  ConnectionFrameSink sink(connection, budget());
  start(sink, source_id, now);
}

void TargetSession::send_exact(FrameSink& sink) {
  ByteWriter w;
  repl::write_request(w, target_->id(), target_->filter(),
                      target_->knowledge(), routing_state_);
  request_bytes_ += sink.send(repl::SyncFrame::Request, w.take());
  state_ = State::RequestSent;
}

void TargetSession::send_fallback(Connection& connection) {
  PFRDTN_REQUIRE(state_ == State::SummarySent);
  ConnectionFrameSink sink(connection, budget());
  try {
    const Frame miss =
        expect_frame(connection, repl::SyncFrame::SummaryMiss, budget());
    batch_bytes_ += miss.wire_bytes;
    repl::decode_summary_reply(miss.payload);
    send_exact(sink);
  } catch (const TransportError& failure) {
    state_ = State::Failed;
    pre_receive_failure_ = true;
    error_ = failure.what();
  }
}

void TargetSession::begin_batch(const Frame& frame) {
  const repl::BatchBeginInfo begin =
      repl::decode_batch_begin(frame.payload);
  const ResourceLimits& limits = budget().limits();
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
  const ResourceLimits& limits = budget().limits();
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
  outcome.result.stats.batch_bytes =
      pre_receive_failure_ ? 0 : batch_bytes_;
  return outcome;
}

NetSyncResult TargetSession::receive(Connection& connection) {
  // Already finished before the receive phase: a failed opening write,
  // or a read-only refusal that ended the session at start().
  if (finished()) return take_result();
  PFRDTN_REQUIRE(wants_frame());
  ConnectionFrameSink sink(connection, budget());
  try {
    while (!finished()) {
      const Frame frame = read_frame(connection, budget());
      on_frame(frame, sink);
    }
  } catch (const TransportError& failure) {
    on_transport_error(failure.what());
  }
  return take_result();
}

// ---- loopback drives -------------------------------------------------

namespace {

[[nodiscard]] bool opener_sent(const TargetSession& session) {
  // A read-only refusal counts: the Error frame is on the link and the
  // source side must read it to end its role gracefully.
  return session.state() == TargetSession::State::RequestSent ||
         session.state() == TargetSession::State::SummarySent ||
         session.refused();
}

/// Interleave the source role with an opener-sent target on a
/// half-duplex sequential link: serve the opener, and on a summary
/// miss let the target read the miss and send the exact fallback
/// before the source serves it.
SourceStats drive_loopback_source(repl::Replica& source,
                                  repl::ForwardingPolicy* source_policy,
                                  TargetSession& target_session,
                                  Connection& source_end,
                                  Connection& target_end, SimTime now,
                                  const repl::SyncOptions& options) {
  SourceSession session(source, source_policy, now, options);
  session.serve_opener(source_end);
  if (session.state() == SourceSession::State::AwaitExact) {
    target_session.send_fallback(target_end);
    // Even if the fallback write died, let the source observe the dead
    // link itself so its stats report the failure the same way a live
    // transport would.
    session.serve_exact(source_end);
  }
  return session.take_stats();
}

}  // namespace

LoopbackSyncOutcome sync_over_loopback(
    repl::Replica& source, repl::Replica& target,
    repl::ForwardingPolicy* source_policy,
    repl::ForwardingPolicy* target_policy, SimTime now,
    const repl::SyncOptions& options, const LoopbackFaults& faults) {
  LoopbackSyncOutcome outcome;
  LoopbackLink link(faults);
  // Half-duplex sequential drive: the target writes its opener, the
  // source consumes it and streams the whole answer (with one extra
  // interleaving on a summary miss), then the target reads whatever
  // made it through the contact window.
  TargetSession session(target, target_policy, options);
  session.send_request(link.a(), source.id(), now);
  if (opener_sent(session)) {
    outcome.server =
        drive_loopback_source(source, source_policy, session, link.b(),
                              link.a(), now, options);
  } else {
    outcome.server.transport_failed = true;
    outcome.server.stats.complete = false;
    outcome.server.error = "request never arrived";
  }
  outcome.client = session.receive(link.a());
  outcome.bytes_delivered = link.bytes_delivered();
  outcome.simulated_seconds = link.simulated_seconds();
  return outcome;
}

LoopbackEncounterOutcome encounter_over_loopback(
    repl::Replica& a, repl::Replica& b,
    repl::ForwardingPolicy* a_policy, repl::ForwardingPolicy* b_policy,
    SimTime now, const repl::SyncOptions& options,
    const LoopbackFaults& faults) {
  LoopbackEncounterOutcome outcome;
  LoopbackLink link(faults);

  // Sync 1: a pulls from b.
  TargetSession pull(a, a_policy, options);
  pull.send_request(link.a(), b.id(), now);
  if (opener_sent(pull)) {
    outcome.b_served = drive_loopback_source(b, b_policy, pull, link.b(),
                                             link.a(), now, options);
  } else {
    outcome.b_served.transport_failed = true;
    outcome.b_served.stats.complete = false;
    outcome.b_served.error = "request never arrived";
  }
  outcome.a_pulled = pull.receive(link.a());

  // Sync 2: roles swap, b pulls from a, on the same contact.
  TargetSession push(b, b_policy, options);
  push.send_request(link.b(), a.id(), now);
  if (opener_sent(push)) {
    outcome.a_pushed = drive_loopback_source(a, a_policy, push, link.a(),
                                             link.b(), now, options);
  } else {
    outcome.a_pushed.transport_failed = true;
    outcome.a_pushed.stats.complete = false;
    outcome.a_pushed.error = "request never arrived";
  }
  outcome.b_applied = push.receive(link.b());

  outcome.bytes_delivered = link.bytes_delivered();
  outcome.simulated_seconds = link.simulated_seconds();
  return outcome;
}

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
    TargetSession session(self, policy, effective, &budget);
    session.send_request(connection, outcome.server, now);
    outcome.pull = session.receive(connection);
    if (outcome.pull.transport_failed) {
      outcome.transport_failed = true;
      outcome.error = outcome.pull.error;
      if (mode == SyncMode::Encounter) return outcome;
    }
  }
  if (mode == SyncMode::Push || mode == SyncMode::Encounter) {
    outcome.push =
        run_source(connection, self, policy, now, effective, &budget);
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
        source_.emplace(*self_, policy_, now_, effective_, &budget_);
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
        source_->on_transport_error(failure);
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
  target_.emplace(*self_, policy_, effective_, &budget_);
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
      source_->on_transport_error(TransportError(what));
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
  ConnectionFrameSink sink(connection, machine.budget());
  try {
    while (machine.wants_frame()) {
      const Frame frame = read_frame(connection, machine.budget());
      machine.on_frame(frame, sink);
    }
  } catch (const StorageError& fault) {
    // A local disk fault, not peer misbehaviour: caught before the
    // ContractViolation base so the caller never quarantines the peer
    // over it. The session ends as this side's failure.
    machine.on_transport_error(std::string("local storage fault: ") +
                               fault.what());
  } catch (const TransportError& failure) {
    machine.on_transport_error(failure.what());
  }
  return machine.take_outcome();
}

}  // namespace pfrdtn::net

namespace pfrdtn::repl {

// Declared in repl/sync.hpp. The in-process entry point is the session
// machines over a fault-free loopback link, so the emulator, the
// examples and the benches run the same Figure-4 engine as TCP, serve
// and the check harness.
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
