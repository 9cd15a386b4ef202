#include "repl/sync.hpp"

#include <algorithm>

namespace pfrdtn::repl {

void SyncRequest::serialize(ByteWriter& w) const {
  w.uvarint(target.value());
  filter.serialize(w);
  knowledge.serialize(w);
  w.raw(routing_state);
}

SyncRequest SyncRequest::deserialize(ByteReader& r) {
  SyncRequest req;
  req.target = ReplicaId(r.uvarint());
  req.filter = Filter::deserialize(r);
  req.knowledge = Knowledge::deserialize(r);
  req.routing_state = r.raw();
  return req;
}

void SummaryRequestInfo::serialize(ByteWriter& w) const {
  w.uvarint(target.value());
  filter.serialize(w);
  summary.serialize(w);
  w.raw(routing_state);
}

SummaryRequestInfo SummaryRequestInfo::deserialize(ByteReader& r) {
  SummaryRequestInfo req;
  req.target = ReplicaId(r.uvarint());
  req.filter = Filter::deserialize(r);
  req.summary = KnowledgeSummary::deserialize(r);
  req.routing_state = r.raw();
  return req;
}

void SyncStats::accumulate(const SyncStats& other) {
  items_sent += other.items_sent;
  items_new += other.items_new;
  items_stale += other.items_stale;
  evictions += other.evictions;
  request_bytes += other.request_bytes;
  batch_bytes += other.batch_bytes;
  complete = complete && other.complete;
}

namespace {

struct Candidate {
  ItemId id{};
  Priority priority;
  bool matches_filter = false;
  std::uint64_t arrival_seq = 0;  ///< deterministic tie-break
};

}  // namespace

SyncRequest make_request(Replica& target, ForwardingPolicy* target_policy,
                         ReplicaId source_id, SimTime now) {
  const SyncContext target_ctx{target.id(), source_id, now};
  return SyncRequest{
      target.id(), target.filter(), target.knowledge(),
      target_policy ? target_policy->generate_request(target_ctx)
                    : std::vector<std::uint8_t>{}};
}

SyncBatch build_batch(Replica& source, ForwardingPolicy* source_policy,
                      const SyncRequest& request, SimTime now,
                      const SyncOptions& options,
                      bool process_routing_state) {
  const SyncContext source_ctx{source.id(), request.target, now};
  if (source_policy && process_routing_state)
    source_policy->process_request(source_ctx, request.routing_state);

  std::vector<Candidate> candidates;
  ItemStore& store = source.store_mutable();
  if (source_policy == nullptr) {
    // Without a forwarding policy only filter-matching items can enter
    // the batch, so enumerate exactly those through the store's filter
    // index (O(matching) for address filters) instead of scanning every
    // entry. Visit order does not matter: the sort below is a total
    // order (arrival_seq is unique), so indexed and scan enumeration
    // yield byte-identical batches.
    store.for_filter_matches(
        request.filter, [&](const ItemStore::Entry& entry) {
          if (!request.knowledge.knows(entry.item,
                                       entry.item.version())) {
            candidates.push_back(
                {entry.item.id(), Priority::at(PriorityClass::Highest),
                 /*matches_filter=*/true, entry.arrival_seq});
          }
          return true;
        });
  } else {
    // Only an entry whose event the target's universal knowledge lacks
    // can be unknown to it: the store's version index yields exactly
    // those by set difference, and knows() settles the scoped
    // fragments for them alone. The walk visits in arrival order, so
    // every policy hook sees the call sequence a scan of every entry
    // would make.
    store.for_each_outside(request.knowledge.universal(),
                           [&](const ItemStore::Entry& entry,
                               TransientView stored) {
      if (request.knowledge.knows(entry.item, entry.item.version()))
        return;
      if (request.filter.matches(entry.item)) {
        candidates.push_back(
            {entry.item.id(), Priority::at(PriorityClass::Highest),
             /*matches_filter=*/true, entry.arrival_seq});
        return;
      }
      const Priority priority = source_policy->to_send(source_ctx, stored);
      if (priority.send()) {
        PFRDTN_REQUIRE(priority.cls != PriorityClass::Highest);
        candidates.push_back({entry.item.id(), priority,
                              /*matches_filter=*/false,
                              entry.arrival_seq});
      }
    });
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.priority.cls != b.priority.cls ||
                  a.priority.cost != b.priority.cost) {
                return a.priority.before(b.priority);
              }
              return a.arrival_seq < b.arrival_seq;
            });

  bool complete = true;
  if (options.max_items && candidates.size() > *options.max_items) {
    for (std::size_t i = *options.max_items; i < candidates.size(); ++i) {
      if (candidates[i].matches_filter) complete = false;
    }
    candidates.resize(*options.max_items);
  }

  SyncBatch batch;
  batch.source = source.id();
  batch.complete = complete;
  batch.source_knowledge = source.knowledge();
  batch.items.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    const auto* entry = store.find(candidate.id);
    PFRDTN_ENSURE(entry != nullptr);
    // A payload refcount bump plus the per-copy transient fields — no
    // metadata/body copy on the hot path.
    Item outgoing = entry->item;
    if (source_policy && !candidate.matches_filter) {
      auto stored = store.transient_mutable(candidate.id);
      PFRDTN_ENSURE(stored.has_value());
      source_policy->on_forward(source_ctx, *stored,
                                TransientView(outgoing));
      // on_forward charges per-copy routing state (TTL, copy budgets)
      // on the stored copy — a store mutation outside the replica
      // funnel, so the durability sink is told explicitly.
      source.note_policy_state(candidate.id);
    }
    batch.items.push_back(std::move(outgoing));
  }
  return batch;
}

void BatchApplier::apply(const Item& item) {
  ++result_.stats.items_sent;
  result_.received_events.push_back(item.version());
  const ApplyOutcome outcome =
      target_->apply_remote(item, result_.evicted);
  switch (outcome) {
    case ApplyOutcome::StoredNew:
    case ApplyOutcome::UpdatedExisting:
      ++result_.stats.items_new;
      if (target_->filter().matches(item))
        result_.delivered.push_back(item);
      break;
    case ApplyOutcome::Stale:
      ++result_.stats.items_stale;
      break;
  }
}

SyncResult BatchApplier::finish(bool complete,
                                const Knowledge& source_knowledge) {
  result_.stats.complete = complete;
  result_.stats.evictions = result_.evicted.size();
  // unsafe_learn_truncated deliberately re-opens the truncation hole so
  // the check harness can demonstrate it detects the corruption.
  if ((complete || options_.unsafe_learn_truncated) &&
      options_.learn_knowledge) {
    target_->learn(source_knowledge);
  }
  return std::move(result_);
}

SyncResult BatchApplier::abandon() {
  result_.stats.complete = false;
  result_.stats.evictions = result_.evicted.size();
  return std::move(result_);
}

SummaryRequestInfo make_summary_request(Replica& target,
                                        ForwardingPolicy* target_policy,
                                        ReplicaId source_id, SimTime now,
                                        const SummaryParams& params) {
  const SyncContext target_ctx{target.id(), source_id, now};
  SummaryRequestInfo req;
  req.target = target.id();
  req.filter = target.filter();
  req.summary = summarize(target.knowledge(), params);
  req.routing_state = target_policy
                          ? target_policy->generate_request(target_ctx)
                          : std::vector<std::uint8_t>{};
  return req;
}

SummaryAnswer answer_summary(Replica& source,
                             ForwardingPolicy* source_policy,
                             const SummaryRequestInfo& request, SimTime now,
                             const SyncOptions& options) {
  // Policy parity with the exact path: the routing state is processed
  // exactly once per sync, here, whatever the answer turns out to be.
  const SyncContext source_ctx{source.id(), request.target, now};
  if (source_policy)
    source_policy->process_request(source_ctx, request.routing_state);

  SummaryAnswer answer;
  // summary_force_collision simulates the 2^-64 digest collision: a
  // spurious Match that defers items to a future exact sync.
  if (options.summary_force_collision ||
      request.summary.digest == source.knowledge().wire_digest()) {
    answer.kind = SummaryAnswer::Kind::Match;
    return answer;
  }

  if (options.unsafe_summary_skip_fallback) {
    // TESTING ONLY — the skip-fallback mutant: answer the mismatch with
    // an empty "complete" batch carrying real knowledge, so the target
    // learns events for items it never received. The check harness's
    // knowledge-soundness oracle must flag exactly this.
    answer.kind = SummaryAnswer::Kind::Batch;
    answer.batch.source = source.id();
    answer.batch.complete = true;
    answer.batch.source_knowledge = source.knowledge();
    return answer;
  }

  if (request.summary.bloom.has_value()) {
    const BloomFilter& bloom = *request.summary.bloom;
    bool any_hit = false;
    source.store().for_each([&](const ItemStore::Entry& entry) {
      const Version& v = entry.item.version();
      if (bloom.maybe_contains(v.author, v.counter)) any_hit = true;
    });
    if (!any_hit) {
      // Bloom misses are definitive: the target knows no stored item's
      // event, so the batch built against *empty* knowledge is exactly
      // the batch the exact path would have built — same candidates,
      // honest complete flag, real source knowledge. Routing state was
      // already processed above.
      SyncRequest exact;
      exact.target = request.target;
      exact.filter = request.filter;
      exact.routing_state = request.routing_state;
      answer.kind = SummaryAnswer::Kind::Batch;
      answer.batch = build_batch(source, source_policy, exact, now, options,
                                 /*process_routing_state=*/false);
      return answer;
    }
  }

  answer.kind = SummaryAnswer::Kind::Miss;
  return answer;
}

SyncResult apply_summary_match(Replica& target,
                               const SyncOptions& options) {
  // Equal digests mean the source's wire knowledge is byte-identical
  // to our own, so the complete-sync finish the exact path would run
  // is reproducible locally: learn decode(encode(own knowledge)).
  ByteWriter w;
  target.knowledge().serialize(w);
  ByteReader r(w.bytes());
  const Knowledge source_knowledge = Knowledge::deserialize(r);
  PFRDTN_ENSURE(r.done());
  BatchApplier applier(target, options);
  return applier.finish(/*complete=*/true, source_knowledge);
}

std::vector<std::uint8_t> encode_batch_begin(const SyncBatch& batch) {
  ByteWriter w;
  w.uvarint(batch.source.value());
  w.u8(batch.complete ? 1 : 0);
  w.uvarint(batch.items.size());
  return w.take();
}

BatchBeginInfo decode_batch_begin(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  BatchBeginInfo info;
  info.source = ReplicaId(r.uvarint());
  info.complete = r.u8() != 0;
  info.count = r.uvarint();
  PFRDTN_REQUIRE(r.done());
  return info;
}

std::vector<std::uint8_t> encode_summary_reply(ReplicaId source) {
  ByteWriter w;
  w.uvarint(source.value());
  return w.take();
}

ReplicaId decode_summary_reply(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const ReplicaId source(r.uvarint());
  PFRDTN_REQUIRE(r.done());
  return source;
}

std::vector<std::uint8_t> encode_batch_ack(std::uint64_t items_applied) {
  ByteWriter w;
  w.uvarint(items_applied);
  return w.take();
}

std::uint64_t decode_batch_ack(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint64_t items_applied = r.uvarint();
  PFRDTN_REQUIRE(r.done());
  return items_applied;
}

std::vector<std::uint8_t> encode_error_frame(std::uint8_t code,
                                             const std::string& message) {
  // One code byte, then the message as the rest of the payload — no
  // length prefix, so the frame length bounds the message exactly.
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + message.size());
  payload.push_back(code);
  payload.insert(payload.end(), message.begin(), message.end());
  return payload;
}

SyncErrorInfo decode_error_frame(
    const std::vector<std::uint8_t>& payload) {
  PFRDTN_REQUIRE(!payload.empty());
  SyncErrorInfo info;
  info.code = payload[0];
  info.message.assign(payload.begin() + 1, payload.end());
  return info;
}

std::string sync_error_code_name(std::uint8_t code) {
  switch (code) {
    case kSyncErrorReadOnly:
      return "read-only";
    case kSyncErrorBusy:
      return "busy";
    case kSyncErrorDraining:
      return "draining";
    default:
      return "error-" + std::to_string(code);
  }
}

}  // namespace pfrdtn::repl
