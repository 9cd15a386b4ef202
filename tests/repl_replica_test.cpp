#include "repl/replica.hpp"

#include <gtest/gtest.h>

#include "util/storage_error.hpp"

namespace pfrdtn::repl {
namespace {

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{meta::kDest, std::to_string(dest)}};
}

Replica make_replica(std::uint64_t id, std::uint64_t addr) {
  return Replica(ReplicaId(id), Filter::addresses({HostId(addr)}));
}

TEST(Replica, CreateStoresAndKnows) {
  Replica r = make_replica(1, 5);
  const Item& item = r.create(to(9), {'a'});
  EXPECT_TRUE(item.id().valid());
  EXPECT_EQ(item.version().author, ReplicaId(1));
  EXPECT_EQ(item.version().counter, 1u);
  EXPECT_TRUE(r.knowledge().knows(item, item.version()));
  // Out-of-filter creation lands in the relay store, exempt.
  const auto* entry = r.store().find(item.id());
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->in_filter);
  EXPECT_TRUE(entry->local_origin);
  EXPECT_TRUE(r.check_invariants().empty());
}

TEST(Replica, CreateInFilter) {
  Replica r = make_replica(1, 5);
  const Item& item = r.create(to(5), {});
  EXPECT_TRUE(r.store().find(item.id())->in_filter);
}

TEST(Replica, CountersIncreaseMonotonically) {
  Replica r = make_replica(1, 5);
  const Item& a = r.create(to(1), {});
  const Item& b = r.create(to(2), {});
  EXPECT_LT(a.version().counter, b.version().counter);
  EXPECT_NE(a.id(), b.id());
}

TEST(Replica, UpdateBumpsRevisionAndKnowledge) {
  Replica r = make_replica(1, 5);
  const ItemId id = r.create(to(5), {'a'}).id();
  const Item& updated = r.update(id, to(5), {'b'});
  EXPECT_EQ(updated.version().revision, 2u);
  EXPECT_EQ(updated.version().counter, 2u);
  EXPECT_TRUE(r.knowledge().knows(updated, updated.version()));
  EXPECT_EQ(updated.body(), std::vector<std::uint8_t>{'b'});
}

TEST(Replica, UpdateMissingItemThrows) {
  Replica r = make_replica(1, 5);
  EXPECT_THROW(r.update(ItemId(999), to(5), {}), ContractViolation);
}

TEST(Replica, UpdateDeletedItemThrows) {
  Replica r = make_replica(1, 5);
  const ItemId id = r.create(to(5), {}).id();
  r.erase(id);
  EXPECT_THROW(r.update(id, to(5), {}), ContractViolation);
}

TEST(Replica, EraseCreatesTombstoneKeepingMetadata) {
  Replica r = make_replica(1, 5);
  const ItemId id = r.create(to(5), {'a'}).id();
  const Item& tombstone = r.erase(id);
  EXPECT_TRUE(tombstone.deleted());
  EXPECT_TRUE(tombstone.body().empty());
  EXPECT_EQ(tombstone.dest_addresses(),
            std::vector<HostId>{HostId(5)});
  // Tombstones still match the filter so the deletion propagates.
  EXPECT_TRUE(r.store().find(id)->in_filter);
}

TEST(Replica, ApplyRemoteNewItem) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  const Item& item = src.create(to(9), {'m'});
  std::vector<Item> evicted;
  EXPECT_EQ(dst.apply_remote(item, evicted), ApplyOutcome::StoredNew);
  EXPECT_TRUE(dst.store().find(item.id())->in_filter);
  EXPECT_TRUE(dst.knowledge().knows(item, item.version()));
  EXPECT_TRUE(dst.check_invariants().empty());
}

TEST(Replica, ApplyRemoteDuplicateIsStale) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  const Item& item = src.create(to(9), {});
  std::vector<Item> evicted;
  dst.apply_remote(item, evicted);
  EXPECT_EQ(dst.apply_remote(item, evicted), ApplyOutcome::Stale);
}

TEST(Replica, ApplyRemoteNewerVersionWins) {
  Replica a = make_replica(1, 5);
  Replica b = make_replica(2, 9);
  const ItemId id = a.create(to(9), {'1'}).id();
  std::vector<Item> evicted;
  b.apply_remote(a.store().find(id)->item, evicted);
  a.update(id, to(9), {'2'});
  EXPECT_EQ(b.apply_remote(a.store().find(id)->item, evicted),
            ApplyOutcome::UpdatedExisting);
  EXPECT_EQ(b.store().find(id)->item.body(),
            std::vector<std::uint8_t>{'2'});
}

TEST(Replica, ApplyRemoteStaleVersionIgnoredButKnown) {
  Replica a = make_replica(1, 5);
  Replica b = make_replica(2, 9);
  const ItemId id = a.create(to(9), {'1'}).id();
  const Item old_copy = a.store().find(id)->item;
  a.update(id, to(9), {'2'});
  std::vector<Item> evicted;
  b.apply_remote(a.store().find(id)->item, evicted);  // new version
  EXPECT_EQ(b.apply_remote(old_copy, evicted), ApplyOutcome::Stale);
  // The stale event is still recorded as known.
  EXPECT_TRUE(b.knowledge().knows(old_copy, old_copy.version()));
  EXPECT_EQ(b.store().find(id)->item.body(),
            std::vector<std::uint8_t>{'2'});
}

TEST(Replica, ApplyRemoteCarriesTransientState) {
  Replica a = make_replica(1, 5);
  Replica b = make_replica(2, 9);
  Item copy = a.create(to(7), {});
  copy.set_transient_int("ttl", 4);
  std::vector<Item> evicted;
  b.apply_remote(copy, evicted);
  EXPECT_EQ(b.store().find(copy.id())->item.transient_int("ttl"), 4);
}

TEST(Replica, RelayEvictionForgetsKnowledge) {
  Replica dst(ReplicaId(2), Filter::addresses({HostId(9)}),
              ItemStore::Config{1});
  Replica src = make_replica(1, 5);
  const Item& m1 = src.create(to(7), {});  // relay at dst
  const Item& m2 = src.create(to(8), {});  // relay at dst
  std::vector<Item> evicted;
  dst.apply_remote(m1, evicted);
  dst.apply_remote(m2, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id(), m1.id());
  // m1 can be received again: its event was forgotten.
  EXPECT_FALSE(dst.knowledge().knows(m1, m1.version()));
  evicted.clear();
  EXPECT_EQ(dst.apply_remote(m1, evicted), ApplyOutcome::StoredNew);
}

TEST(Replica, SetFilterDeliversNewlyMatchingRelayItems) {
  Replica dst = make_replica(2, 9);
  Replica src = make_replica(1, 5);
  const Item& m = src.create(to(7), {});
  std::vector<Item> evicted;
  dst.apply_remote(m, evicted);  // stored as relay
  const auto delivered =
      dst.set_filter(Filter::addresses({HostId(7)}));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].id(), m.id());
  EXPECT_TRUE(dst.store().find(m.id())->in_filter);
  EXPECT_TRUE(dst.check_invariants().empty());
}

TEST(Replica, SetFilterShrinkMakesItemsEvictableAgain) {
  Replica dst(ReplicaId(2), Filter::addresses({HostId(9)}),
              ItemStore::Config{0});
  Replica src = make_replica(1, 5);
  const Item& m = src.create(to(9), {});
  std::vector<Item> evicted;
  dst.apply_remote(m, evicted);
  ASSERT_TRUE(evicted.empty());  // in filter, safe
  // Filter moves away; with capacity 0 the copy is evicted at once and
  // the knowledge entry must be forgotten so it can come back.
  dst.set_filter(Filter::addresses({HostId(4)}));
  EXPECT_FALSE(dst.store().contains(m.id()));
  EXPECT_FALSE(dst.knowledge().knows(m, m.version()));
}

TEST(Replica, DiscardRelay) {
  Replica dst = make_replica(2, 9);
  Replica src = make_replica(1, 5);
  const Item& relay = src.create(to(7), {});
  const Item& mine = src.create(to(9), {});
  std::vector<Item> evicted;
  dst.apply_remote(relay, evicted);
  dst.apply_remote(mine, evicted);
  EXPECT_TRUE(dst.discard_relay(relay.id()));
  EXPECT_FALSE(dst.store().contains(relay.id()));
  EXPECT_FALSE(dst.knowledge().knows(relay, relay.version()));
  // In-filter and missing items are refused.
  EXPECT_FALSE(dst.discard_relay(mine.id()));
  EXPECT_FALSE(dst.discard_relay(ItemId(12345)));
  // Locally authored relay copies are refused too.
  const Item& own = dst.create(to(3), {});
  EXPECT_FALSE(dst.discard_relay(own.id()));
}

TEST(Replica, InvariantCheckerDetectsCorruption) {
  Replica r = make_replica(1, 5);
  const Item& item = r.create(to(5), {});
  // Corrupt: flip the in_filter flag behind the replica's back.
  r.store_mutable().set_in_filter_for_test(item.id(), false);
  EXPECT_FALSE(r.check_invariants().empty());
}

TEST(Replica, RefilterDeliveryOrderIsIdenticalAcrossTwins) {
  // Regression: the newly-matching list a filter change surfaces (the
  // application sees it as deliveries) used to come from a hash-map
  // walk, so two identically-seeded replicas could report it in
  // different orders. The contract is arrival order, same on twins.
  auto feed = [](Replica& dst) {
    Replica src = make_replica(1, 5);
    std::vector<Item> evicted;
    std::vector<std::uint64_t> arrivals;
    for (std::uint64_t i = 0; i < 48; ++i) {
      const Item& m = src.create(to(7 + i % 3), {});
      dst.apply_remote(m, evicted);
      arrivals.push_back(m.id().value());
    }
    std::vector<std::uint64_t> delivered;
    for (const Item& item : dst.set_filter(
             Filter::addresses({HostId(7), HostId(8), HostId(9)}))) {
      delivered.push_back(item.id().value());
    }
    EXPECT_EQ(delivered, arrivals);
    return delivered;
  };
  Replica a = make_replica(2, 1);
  Replica b = make_replica(3, 1);
  EXPECT_EQ(feed(a), feed(b));
}

TEST(Replica, ReadOnlyRefusesEveryMutationBeforeAnyStateChange) {
  Replica r = make_replica(1, 5);
  const Item& kept = r.create(to(5), {'a'});
  Replica other = make_replica(2, 5);
  const Item& incoming = other.create(to(5), {'x'});

  r.set_read_only(true);
  const Knowledge knowledge_before = r.knowledge();
  EXPECT_THROW(r.create(to(5), {'b'}), ReadOnlyError);
  EXPECT_THROW(r.update(kept.id(), to(5), {'c'}), ReadOnlyError);
  EXPECT_THROW(r.erase(kept.id()), ReadOnlyError);
  EXPECT_THROW(r.set_filter(Filter::addresses({HostId(6)})),
               ReadOnlyError);
  std::vector<Item> evicted;
  EXPECT_THROW(r.apply_remote(incoming, evicted), ReadOnlyError);
  EXPECT_THROW(r.learn(other.knowledge()), ReadOnlyError);
  EXPECT_THROW(r.discard_relay(kept.id()), ReadOnlyError);
  // Refusal happens before any in-memory change: the store and the
  // knowledge are untouched.
  EXPECT_EQ(r.store().size(), 1u);
  EXPECT_TRUE(r.knowledge().knows(incoming, incoming.version()) ==
              knowledge_before.knows(incoming, incoming.version()));
  EXPECT_TRUE(r.check_invariants().empty());

  // Flipping back restores full mutability.
  r.set_read_only(false);
  r.create(to(5), {'d'});
  EXPECT_EQ(r.store().size(), 2u);
}

}  // namespace
}  // namespace pfrdtn::repl
