#include "repl/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

namespace pfrdtn::repl {
namespace {

Item item(std::uint64_t id, std::uint64_t dest = 1) {
  return Item(ItemId(id), Version{ReplicaId(1), id, 1},
              {{meta::kDest, std::to_string(dest)}}, {});
}

TEST(ItemStore, PutAndFind) {
  ItemStore store;
  store.put(item(1), /*in_filter=*/true, /*local_origin=*/false);
  ASSERT_NE(store.find(ItemId(1)), nullptr);
  EXPECT_TRUE(store.find(ItemId(1))->in_filter);
  EXPECT_EQ(store.find(ItemId(2)), nullptr);
  EXPECT_TRUE(store.contains(ItemId(1)));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ItemStore, LocalOriginSticksAcrossPuts) {
  ItemStore store;
  store.put(item(1), false, /*local_origin=*/true);
  store.put(item(1), false, /*local_origin=*/false);
  EXPECT_TRUE(store.find(ItemId(1))->local_origin);
}

TEST(ItemStore, RemoveMaintainsOrderIndex) {
  ItemStore store;
  store.put(item(1), true, false);
  store.put(item(2), true, false);
  EXPECT_TRUE(store.remove(ItemId(1)));
  EXPECT_FALSE(store.remove(ItemId(1)));
  std::vector<std::uint64_t> seen;
  store.for_each([&](const ItemStore::Entry& entry) {
    seen.push_back(entry.item.id().value());
  });
  EXPECT_EQ(seen, std::vector<std::uint64_t>{2});
}

TEST(ItemStore, ForEachIsArrivalOrdered) {
  ItemStore store;
  store.put(item(3), true, false);
  store.put(item(1), true, false);
  store.put(item(2), true, false);
  std::vector<std::uint64_t> seen;
  store.for_each([&](const ItemStore::Entry& entry) {
    seen.push_back(entry.item.id().value());
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 1, 2}));
}

TEST(ItemStore, RePutMovesToBackOfOrder) {
  ItemStore store;
  store.put(item(1), true, false);
  store.put(item(2), true, false);
  store.put(item(1), true, false);  // re-put
  std::vector<std::uint64_t> seen;
  store.for_each([&](const ItemStore::Entry& entry) {
    seen.push_back(entry.item.id().value());
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(ItemStore, FifoEvictionOfRelayItems) {
  ItemStore store(ItemStore::Config{2, EvictionOrder::Fifo});
  store.put(item(1), false, false);
  store.put(item(2), false, false);
  auto evicted = store.put(item(3), false, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id(), ItemId(1));  // oldest goes first
  EXPECT_FALSE(store.contains(ItemId(1)));
  EXPECT_TRUE(store.contains(ItemId(2)));
  EXPECT_TRUE(store.contains(ItemId(3)));
}

TEST(ItemStore, LifoEviction) {
  ItemStore store(ItemStore::Config{1, EvictionOrder::Lifo});
  store.put(item(1), false, false);
  auto evicted = store.put(item(2), false, false);
  ASSERT_EQ(evicted.size(), 1u);
  // LIFO: the newest evictable entry goes (the incoming one).
  EXPECT_EQ(evicted[0].id(), ItemId(2));
  EXPECT_TRUE(store.contains(ItemId(1)));
}

TEST(ItemStore, InFilterItemsAreNeverEvicted) {
  ItemStore store(ItemStore::Config{1, EvictionOrder::Fifo});
  store.put(item(1), /*in_filter=*/true, false);
  store.put(item(2), /*in_filter=*/true, false);
  auto evicted = store.put(item(3), false, false);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(store.size(), 3u);
}

TEST(ItemStore, LocalOriginItemsAreNeverEvicted) {
  ItemStore store(ItemStore::Config{1, EvictionOrder::Fifo});
  store.put(item(1), false, /*local_origin=*/true);
  store.put(item(2), false, /*local_origin=*/true);
  auto evicted = store.put(item(3), false, false);
  EXPECT_TRUE(evicted.empty());  // only one evictable item stored
  EXPECT_EQ(store.evictable_count(), 1u);
}

TEST(ItemStore, ZeroCapacityDropsEveryRelayItem) {
  ItemStore store(ItemStore::Config{0, EvictionOrder::Fifo});
  auto evicted = store.put(item(1), false, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id(), ItemId(1));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ItemStore, UnboundedByDefault) {
  ItemStore store;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_TRUE(store.put(item(i), false, false).empty());
  }
  EXPECT_EQ(store.size(), 100u);
}

TEST(ItemStore, RefilterFlagsAndReturnsNewMatches) {
  ItemStore store;
  store.put(item(1, /*dest=*/1), true, false);
  store.put(item(2, /*dest=*/2), false, false);
  std::vector<Item> evicted;
  // New filter: dest == 2 only.
  auto fresh = store.refilter(
      [](const Item& it) {
        return it.dest_addresses() == std::vector<HostId>{HostId(2)};
      },
      evicted);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].id(), ItemId(2));
  EXPECT_FALSE(store.find(ItemId(1))->in_filter);
  EXPECT_TRUE(store.find(ItemId(2))->in_filter);
  EXPECT_TRUE(evicted.empty());
}

TEST(ItemStore, RefilterCanTriggerEviction) {
  ItemStore store(ItemStore::Config{0, EvictionOrder::Fifo});
  store.put(item(1), /*in_filter=*/true, false);
  std::vector<Item> evicted;
  store.refilter([](const Item&) { return false; }, evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id(), ItemId(1));
  EXPECT_EQ(store.size(), 0u);
}

TEST(ItemStore, Counters) {
  ItemStore store;
  store.put(item(1), true, false);   // filter store
  store.put(item(2), false, true);   // relay, exempt
  store.put(item(3), false, false);  // relay, evictable
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.relay_count(), 2u);
  EXPECT_EQ(store.evictable_count(), 1u);
}

TEST(ItemStore, SetRelayCapacityLater) {
  ItemStore store;
  store.put(item(1), false, false);
  store.put(item(2), false, false);
  store.set_relay_capacity(1);
  // Capacity enforced on next mutation.
  auto evicted = store.put(item(3), false, false);
  EXPECT_EQ(evicted.size(), 2u);
}

TEST(ItemStore, FifoEvictionSkipsInterleavedPinnedEntries) {
  ItemStore store(ItemStore::Config{2, EvictionOrder::Fifo});
  store.put(item(1), false, false);              // evictable, oldest
  store.put(item(2), /*in_filter=*/true, false); // pinned by filter
  store.put(item(3), false, /*local_origin=*/true);  // pinned by author
  store.put(item(4), false, false);              // evictable
  auto evicted = store.put(item(5), false, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id(), ItemId(1));  // oldest *evictable*, not 2 or 3
  EXPECT_TRUE(store.contains(ItemId(2)));
  EXPECT_TRUE(store.contains(ItemId(3)));
  EXPECT_TRUE(store.contains(ItemId(4)));
  EXPECT_TRUE(store.contains(ItemId(5)));
}

TEST(ItemStore, LifoEvictionSkipsInterleavedPinnedEntries) {
  ItemStore store(ItemStore::Config{1, EvictionOrder::Lifo});
  store.put(item(1), false, false);              // evictable
  store.put(item(2), /*in_filter=*/true, false); // pinned, newest so far
  auto evicted = store.put(item(3), false, false);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id(), ItemId(3));  // newest *evictable*, not 2
  EXPECT_TRUE(store.contains(ItemId(1)));
  EXPECT_TRUE(store.contains(ItemId(2)));
}

TEST(ItemStore, CountersStayConsistentAcrossMutations) {
  ItemStore store;
  store.put(item(1), true, false);
  store.put(item(2), false, false);
  store.put(item(3), false, true);
  EXPECT_EQ(store.relay_count(), 2u);
  EXPECT_EQ(store.evictable_count(), 1u);

  store.remove(ItemId(2));
  EXPECT_EQ(store.relay_count(), 1u);
  EXPECT_EQ(store.evictable_count(), 0u);

  // Re-put flips 1 out of the filter store; 3 stays pinned by origin.
  store.put(item(1), false, false);
  EXPECT_EQ(store.relay_count(), 2u);
  EXPECT_EQ(store.evictable_count(), 1u);

  std::vector<Item> evicted;
  store.refilter([](const Item&) { return true; }, evicted);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(store.relay_count(), 0u);
  EXPECT_EQ(store.evictable_count(), 0u);

  store.refilter([](const Item&) { return false; }, evicted);
  EXPECT_EQ(store.relay_count(), 2u);
  EXPECT_EQ(store.evictable_count(), 1u);
}

TEST(ItemStore, SupersedeRefreshesDestIndexAndCounters) {
  ItemStore store;
  store.put(item(1, /*dest=*/7), /*in_filter=*/true, false);
  auto visit_ids = [&](const Filter& f) {
    std::vector<std::uint64_t> ids;
    store.for_filter_matches(f, [&](const ItemStore::Entry& entry) {
      ids.push_back(entry.item.id().value());
      return true;
    });
    return ids;
  };
  EXPECT_EQ(visit_ids(Filter::addresses({HostId(7)})),
            std::vector<std::uint64_t>{1});

  // Supersede with a payload addressed elsewhere: the inverted index
  // must follow the new dest, and the counters the new verdict.
  auto payload = Item::Payload::make(
      ItemId(1), Version{ReplicaId(1), 99, 2},
      {{meta::kDest, "8"}}, {}, /*deleted=*/false);
  store.supersede(ItemId(1), std::move(payload), /*in_filter=*/false,
                  /*make_local_origin=*/false);
  EXPECT_TRUE(visit_ids(Filter::addresses({HostId(7)})).empty());
  EXPECT_EQ(visit_ids(Filter::addresses({HostId(8)})),
            std::vector<std::uint64_t>{1});
  EXPECT_EQ(store.relay_count(), 1u);
  EXPECT_EQ(store.evictable_count(), 1u);
}

TEST(ItemStore, SupersedeDropsTransientAndDoesNotEvict) {
  ItemStore store(ItemStore::Config{1, EvictionOrder::Fifo});
  store.put(item(1), /*in_filter=*/true, false);
  store.put(item(2), false, false);  // the one evictable copy
  store.transient_mutable(ItemId(1))->set_int("ttl", 4);

  // Turning 1 into a relay copy takes the evictable count to 2, but
  // supersede is not an eviction point — capacity applies at the next
  // put/refilter, so deterministic schedules replay unchanged.
  auto payload = Item::Payload::make(ItemId(1),
                                     Version{ReplicaId(1), 99, 2},
                                     {{meta::kDest, "1"}}, {}, false);
  store.supersede(ItemId(1), std::move(payload), /*in_filter=*/false,
                  /*make_local_origin=*/false);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictable_count(), 2u);
  EXPECT_FALSE(
      store.find(ItemId(1))->item.transient_int("ttl").has_value());

  auto evicted = store.put(item(3), false, false);
  EXPECT_EQ(evicted.size(), 2u);  // now capacity catches up
}

TEST(ItemStore, FilterMatchVisitsAreIndexedOnlyForAddressFilters) {
  ItemStore store;
  store.put(item(1, /*dest=*/1), true, false);
  const auto visit_all = [](const ItemStore::Entry&) { return true; };
  EXPECT_TRUE(
      store.for_filter_matches(Filter::addresses({HostId(1)}), visit_all));
  EXPECT_TRUE(store.for_filter_matches(Filter::none(), visit_all));
  EXPECT_FALSE(store.for_filter_matches(Filter::all(), visit_all));
  EXPECT_FALSE(store.for_filter_matches(Filter::tags({"a"}), visit_all));
}

TEST(ItemStore, MultiAddressFilterVisitsSharedItemOnce) {
  ItemStore store;
  store.put(Item(ItemId(1), Version{ReplicaId(1), 1, 1},
                 {{meta::kDest, encode_hosts({HostId(1), HostId(2)})}}, {}),
            true, false);
  store.put(item(2, /*dest=*/2), true, false);
  std::size_t visits_of_1 = 0;
  std::size_t total = 0;
  store.for_filter_matches(
      Filter::addresses({HostId(1), HostId(2)}),
      [&](const ItemStore::Entry& entry) {
        ++total;
        if (entry.item.id() == ItemId(1)) ++visits_of_1;
        return true;
      });
  EXPECT_EQ(visits_of_1, 1u);
  EXPECT_EQ(total, 2u);
}

TEST(ItemStore, IndexedAndScanPathsAgreeOnMatches) {
  ItemStore store;
  for (std::uint64_t i = 1; i <= 40; ++i)
    store.put(item(i, /*dest=*/i % 3), i % 2 == 0, false);
  const Filter indexed = Filter::addresses({HostId(1)});
  std::set<std::uint64_t> via_index;
  EXPECT_TRUE(store.for_filter_matches(
      indexed, [&](const ItemStore::Entry& entry) {
        via_index.insert(entry.item.id().value());
        return true;
      }));
  std::set<std::uint64_t> via_scan;
  store.for_each([&](const ItemStore::Entry& entry) {
    if (indexed.matches(entry.item))
      via_scan.insert(entry.item.id().value());
  });
  EXPECT_EQ(via_index, via_scan);
  EXPECT_FALSE(via_index.empty());
}

TEST(ItemStore, RefilterOutputIsArrivalOrdered) {
  // Regression: refilter used to iterate the entry hash map, so the
  // newly-matching list (surfaced to applications as deliveries) came
  // out in nondeterministic order. The contract is arrival order.
  ItemStore store;
  std::vector<std::uint64_t> arrivals;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    const std::uint64_t id = (i * 37) % 64 + 1;  // shuffled ids
    if (store.contains(ItemId(id))) continue;
    store.put(item(id, /*dest=*/2), false, false);
    arrivals.push_back(id);
  }
  std::vector<Item> evicted;
  auto fresh = store.refilter(
      [](const Item& it) { return !it.dest_addresses().empty(); },
      evicted);
  std::vector<std::uint64_t> fresh_ids;
  for (const Item& it : fresh) fresh_ids.push_back(it.id().value());
  EXPECT_EQ(fresh_ids, arrivals);
}

TEST(ItemStore, CopyIndexesOnlyItsOwnEntries) {
  // Regression: the implicit copy duplicated the dest index's Entry
  // pointers, so a copy's indexed scan read the *source's* entries —
  // a later supersede in the source showed through, and destroying
  // the source left the copy dangling. Copies now rebuild every index.
  const Filter to_seven = Filter::addresses({HostId(7)});
  const auto indexed = [&](const ItemStore& store) {
    std::vector<std::uint64_t> revisions;
    EXPECT_TRUE(store.for_filter_matches(
        to_seven, [&](const ItemStore::Entry& entry) {
          revisions.push_back(entry.item.version().revision);
          return true;
        }));
    std::sort(revisions.begin(), revisions.end());  // visit order is free
    return revisions;
  };
  const auto in_arrival_order = [](ItemStore& store) {
    std::vector<std::uint64_t> ids;
    store.for_each_transient([&](const ItemStore::Entry& entry,
                                 TransientView) {
      ids.push_back(entry.item.id().value());
    });
    std::vector<std::uint64_t> scanned;
    EXPECT_FALSE(store.for_filter_matches(
        Filter::all(), [&](const ItemStore::Entry& entry) {
          scanned.push_back(entry.item.id().value());
          return true;
        }));
    EXPECT_EQ(scanned, ids);
    return ids;
  };

  auto original = std::make_unique<ItemStore>(
      ItemStore::Config{4, EvictionOrder::Fifo});
  original->put(item(1, /*dest=*/7), /*in_filter=*/true, false);
  original->put(item(2, /*dest=*/7), /*in_filter=*/false, false);
  ItemStore copy(*original);
  ItemStore assigned;
  assigned = *original;

  // Mutate the source: supersede 1 to revision 7, add 3, drop 2.
  original->supersede(
      ItemId(1),
      Item::Payload::make(ItemId(1), Version{ReplicaId(1), 9, 7},
                          {{meta::kDest, "7"}}, {}, false),
      /*in_filter=*/true, /*make_local_origin=*/false);
  original->put(item(3, /*dest=*/7), true, false);
  original->remove(ItemId(2));
  EXPECT_EQ(indexed(*original), (std::vector<std::uint64_t>{1, 7}));

  for (ItemStore* store : {&copy, &assigned}) {
    EXPECT_EQ(indexed(*store), (std::vector<std::uint64_t>{1, 1}));
    EXPECT_EQ(in_arrival_order(*store), (std::vector<std::uint64_t>{1, 2}));
  }
  original.reset();  // the copies must not point into freed entries
  for (ItemStore* store : {&copy, &assigned}) {
    EXPECT_EQ(indexed(*store), (std::vector<std::uint64_t>{1, 1}));
    EXPECT_EQ(in_arrival_order(*store), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(store->relay_count(), 1u);
    EXPECT_EQ(store->evictable_count(), 1u);
    // Each copy's own indexes follow its own mutations.
    store->put(item(4, /*dest=*/7), false, false);
    store->remove(ItemId(1));
    EXPECT_EQ(in_arrival_order(*store), (std::vector<std::uint64_t>{2, 4}));
    EXPECT_EQ(store->evictable_count(), 2u);
  }
  EXPECT_EQ(copy.next_arrival_seq(), assigned.next_arrival_seq());
}

}  // namespace
}  // namespace pfrdtn::repl
