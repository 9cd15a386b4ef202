#include "repl/replica.hpp"

#include "util/storage_error.hpp"

namespace pfrdtn::repl {

void Replica::require_writable(const char* op) const {
  if (read_only_) {
    throw ReadOnlyError("replica " + id_.str() + " is read-only (" +
                        op + " refused after a storage fault)");
  }
}

const Item& Replica::create(std::map<std::string, std::string> metadata,
                            std::vector<std::uint8_t> body) {
  require_writable("create");
  PFRDTN_REQUIRE(next_item_seq_ < (std::uint64_t{1} << 32));
  const ItemId id((id_.value() << 32) | next_item_seq_);
  const Version version{id_, next_counter_ + 1, /*revision=*/1};
  Item item(id, version, std::move(metadata), std::move(body));
  // Write-ahead: the durable record precedes every in-memory change. If
  // the sink throws (a storage fault refusing the mutation), nothing —
  // not even the counters — has moved, so the refused version never
  // existed anywhere: it cannot be served to a peer, and reusing the
  // (author, counter) pair after a restart is safe. If the record *did*
  // reach the disk before the fault, recovery replays it and
  // replay_local_put advances the counters past it — no reuse either
  // way.
  if (sink_ != nullptr) sink_->on_local_put(item);
  ++next_item_seq_;
  ++next_counter_;
  knowledge_.add_exact(version);
  const bool in_filter = filter_.matches(item);
  auto evicted = store_.put(std::move(item), in_filter,
                            /*local_origin=*/true);
  PFRDTN_ENSURE(evicted.empty());  // local items are never evictable
  return store_.find(id)->item;
}

const Item& Replica::update(ItemId id,
                            std::map<std::string, std::string> metadata,
                            std::vector<std::uint8_t> body) {
  require_writable("update");
  const auto* entry = store_.find(id);
  PFRDTN_REQUIRE(entry != nullptr);
  PFRDTN_REQUIRE(!entry->item.deleted());
  const Version version{id_, next_counter_ + 1,
                        entry->item.version().revision + 1};
  auto payload = Item::Payload::make(id, version, std::move(metadata),
                                     std::move(body), /*deleted=*/false);
  const bool in_filter = filter_.matches(Item(payload));
  // Write-ahead: log before mutating (see create() for the rationale).
  if (sink_ != nullptr) sink_->on_local_put(Item(payload));
  ++next_counter_;
  knowledge_.add_exact(version);
  // An update authored here pins the copy against eviction, exactly
  // like a creation would.
  store_.supersede(id, std::move(payload), in_filter,
                   /*make_local_origin=*/true);
  return store_.find(id)->item;
}

const Item& Replica::erase(ItemId id) {
  require_writable("erase");
  const auto* entry = store_.find(id);
  PFRDTN_REQUIRE(entry != nullptr);
  const Version version{id_, next_counter_ + 1,
                        entry->item.version().revision + 1};
  // Tombstones keep the metadata so filters still select them and the
  // deletion propagates to every interested replica.
  auto payload = Item::Payload::make(id, version, entry->item.metadata(),
                                     {}, /*deleted=*/true);
  const bool in_filter = filter_.matches(Item(payload));
  // Write-ahead: log before mutating (see create() for the rationale).
  if (sink_ != nullptr) sink_->on_local_put(Item(payload));
  ++next_counter_;
  knowledge_.add_exact(version);
  store_.supersede(id, std::move(payload), in_filter,
                   /*make_local_origin=*/true);
  return store_.find(id)->item;
}

std::vector<Item> Replica::set_filter(Filter filter) {
  require_writable("set_filter");
  // Write-ahead: a storage fault refuses the change before the filter
  // is adopted, so memory and the acknowledged log never disagree about
  // which filter is in force.
  if (sink_ != nullptr) sink_->on_set_filter(filter);
  filter_ = std::move(filter);
  std::vector<Item> evicted;
  auto newly_matching = store_.refilter(
      [this](const Item& item) { return filter_.matches(item); },
      evicted);
  // A filter change invalidates scoped claims: fragments were learned
  // under the old filter, and pinned/folded status of stored events no
  // longer reflects evictability. Rebuild knowledge from what is
  // actually stored — forgetting is always safe (worst case the same
  // copy is transmitted again), while a stale claim would break
  // eventual filter consistency (this is the substrate's analogue of
  // Cimbiosys's move-in handling).
  rebuild_knowledge();
  return newly_matching;
}

void Replica::rebuild_knowledge() {
  Knowledge fresh;
  fresh.add_authored_prefix(id_, next_counter_);
  store_.for_each([&](const ItemStore::Entry& entry) {
    if (entry.item.version().author == id_) return;  // in the prefix
    if (entry.evictable()) {
      fresh.add_exact_pinned(entry.item.version());
    } else {
      fresh.add_exact(entry.item.version());
    }
  });
  knowledge_ = std::move(fresh);
}

ApplyOutcome Replica::apply_remote(const Item& incoming,
                                   std::vector<Item>& evicted) {
  require_writable("apply_remote");
  PFRDTN_REQUIRE(incoming.version().valid());
  // Write-ahead: log before mutating, so a faulted receipt leaves no
  // trace in memory — a copy the disk refused must never be served to
  // another peer, or it outlives a crash that the log does not record.
  // (The durability layer defers checkpoint rolls out of this hook, so
  // a snapshot never splits the record from its mutation.)
  if (sink_ != nullptr) sink_->on_apply_remote(incoming);
  return apply_remote_impl(incoming, evicted);
}

ApplyOutcome Replica::apply_remote_impl(const Item& incoming,
                                        std::vector<Item>& evicted) {
  PFRDTN_REQUIRE(incoming.version().valid());
  const auto* existing = store_.find(incoming.id());
  const bool in_filter = filter_.matches(incoming);

  if (existing != nullptr) {
    // Either an update to a stored item or a duplicate/stale copy. If
    // the entry is (or becomes) an evictable relay copy, the event must
    // be recorded pinned: an unpinned event folds into the version
    // vector and can no longer be forgotten when the copy is evicted,
    // leaving knowledge that claims an event for an item we no longer
    // store — a soundness hole the check harness (src/check/) flagged.
    if (!incoming.version().dominates(existing->item.version())) {
      if (existing->evictable()) {
        knowledge_.add_exact_pinned(incoming.version());
      } else {
        knowledge_.add_exact(incoming.version());
      }
      return ApplyOutcome::Stale;
    }
    if (!in_filter && !existing->local_origin) {
      knowledge_.add_exact_pinned(incoming.version());
    } else {
      knowledge_.add_exact(incoming.version());
    }
    // Adopt the incoming copy's payload — a refcount bump shared with
    // the sender-side batch, never a re-parse of metadata and body.
    store_.supersede(incoming.id(), incoming.payload(), in_filter,
                     /*make_local_origin=*/false);
    // Forwarded transient state (TTL, copy counts) travels with the
    // new copy.
    auto stored = store_.transient_mutable(incoming.id());
    PFRDTN_ENSURE(stored.has_value());
    for (const auto& [key, value] : incoming.transient_all())
      stored->set(key, value);
    return ApplyOutcome::UpdatedExisting;
  }

  // New item. Relay (out-of-filter) receipts are pinned in knowledge so
  // a later eviction can forget them.
  if (in_filter) {
    knowledge_.add_exact(incoming.version());
  } else {
    knowledge_.add_exact_pinned(incoming.version());
  }
  auto victims =
      store_.put(incoming, in_filter, /*local_origin=*/false);
  forget_evicted(victims);
  evicted.insert(evicted.end(), victims.begin(), victims.end());
  return ApplyOutcome::StoredNew;
}

bool Replica::discard_relay(ItemId id) {
  require_writable("discard_relay");
  const auto* entry = store_.find(id);
  if (entry == nullptr || entry->in_filter || entry->local_origin)
    return false;
  const Item item = entry->item;
  // Write-ahead: log before mutating (see create() for the rationale).
  if (sink_ != nullptr) sink_->on_discard_relay(id);
  store_.remove(id);
  forget_evicted({item});
  return true;
}

void Replica::note_policy_state(ItemId id) {
  if (sink_ == nullptr) return;
  const auto* entry = store_.find(id);
  if (entry == nullptr) return;
  sink_->on_policy_state(id, entry->item.transient_all());
}

void Replica::restore_counters(std::uint64_t next_counter,
                               std::uint64_t next_item_seq) {
  PFRDTN_REQUIRE(next_counter >= next_counter_);
  PFRDTN_REQUIRE(next_item_seq >= next_item_seq_);
  next_counter_ = next_counter;
  next_item_seq_ = next_item_seq;
}

void Replica::replay_local_put(Item item) {
  const Version version = item.version();
  PFRDTN_REQUIRE(version.author == id_);
  PFRDTN_REQUIRE(version.valid());
  knowledge_.add_exact(version);
  const bool in_filter = filter_.matches(item);
  const ItemId id = item.id();
  if (store_.contains(id)) {
    store_.supersede(id, item.payload(), in_filter,
                     /*make_local_origin=*/true);
  } else {
    auto evicted = store_.put(std::move(item), in_filter,
                              /*local_origin=*/true);
    PFRDTN_ENSURE(evicted.empty());
  }
  // Advance the authoring counters past the replayed event: a
  // recovered replica must never reissue a (author, counter) pair.
  if (version.counter > next_counter_) next_counter_ = version.counter;
  if ((id.value() >> 32) == id_.value()) {
    const std::uint64_t seq = id.value() & 0xFFFFFFFFu;
    if (seq >= next_item_seq_) next_item_seq_ = seq + 1;
  }
}

void Replica::replay_policy_state(
    ItemId id, std::map<std::string, std::string> all) {
  store_.replace_transients(id, std::move(all));
}

void Replica::forget_evicted(const std::vector<Item>& evicted) {
  for (const Item& item : evicted) {
    // An event already folded into a prefix cannot be forgotten: that
    // copy can then never be re-received.
    knowledge_.forget_exact(item.version());
    knowledge_.drop_fragments_matching(item);
  }
}

std::string Replica::check_invariants() const {
  std::string violation;
  store_.for_each([&](const ItemStore::Entry& entry) {
    if (!violation.empty()) return;
    // Every stored item's current version must be known.
    if (!knowledge_.knows(entry.item, entry.item.version())) {
      violation = "stored item " + entry.item.id().str() +
                  " version not covered by knowledge at " + id_.str();
    }
    // The in_filter flag must agree with the filter.
    if (entry.in_filter != filter_.matches(entry.item)) {
      violation = "in_filter flag inconsistent for " +
                  entry.item.id().str() + " at " + id_.str();
    }
    // Every evictable relay copy must remain forgettable, or its
    // eviction would strand knowledge of an unstored event.
    if (entry.evictable() &&
        !knowledge_.can_forget(entry.item.version())) {
      violation = "evictable relay copy " + entry.item.id().str() +
                  " has an unforgettable event at " + id_.str();
    }
  });
  return violation;
}

}  // namespace pfrdtn::repl
