/// Differential property tests for the two set-difference shortcuts of
/// a sync:
///
///  1. The source's batch walk: ItemStore::for_each_outside() over the
///     version index, followed by Knowledge::knows(), must visit exactly
///     the entries a brute-force arrival-order scan finds unknown — the
///     same entries, in the same order.
///  2. The target's learn step: VersionSet::contains_all() must agree
///     with a per-event check of every member of the other set.
///
/// Stores and knowledge come from seeded random operation sequences:
/// several authors, plain and pinned extras, scoped fragments,
/// supersedes, removes, evictions, store copies, items that share one
/// version, counter 0 and counters near 2^64 (including a prefix of
/// 2^64 - 1, which must not wrap).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

#include "repl/knowledge.hpp"
#include "repl/store.hpp"
#include "util/rng.hpp"

namespace pfrdtn::repl {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
/// Authors 1..4 count from 1; author kHigh counts near 2^64.
constexpr std::uint64_t kAuthors = 4;
constexpr std::uint64_t kHigh = 9;
constexpr std::uint64_t kCounters = 24;
constexpr std::uint64_t kAddresses = 4;

std::uint64_t random_author(Rng& rng) {
  return rng.chance(0.2) ? kHigh : 1 + rng.below(kAuthors);
}

/// A counter for `author`: small for the low authors (0 now and then,
/// which names no event), the top kCounters values for kHigh.
std::uint64_t random_counter(Rng& rng, std::uint64_t author) {
  if (author == kHigh) return kMax - rng.below(kCounters);
  return rng.chance(0.03) ? 0 : 1 + rng.below(kCounters);
}

Version random_version(Rng& rng) {
  const std::uint64_t author = random_author(rng);
  return Version{ReplicaId(author), random_counter(rng, author), 1};
}

Filter random_scope(Rng& rng) {
  std::set<HostId> addrs;
  const auto n = 1 + rng.below(2);
  for (std::uint64_t i = 0; i < n; ++i)
    addrs.insert(HostId(1 + rng.below(kAddresses)));
  return Filter::addresses(std::move(addrs));
}

Item::PayloadPtr payload(ItemId id, const Version& version,
                         std::uint64_t dest) {
  return Item::Payload::make(id, version,
                             {{meta::kDest, std::to_string(dest)}}, {},
                             /*deleted=*/false);
}

/// One random knowledge mutation over the same author/counter space as
/// the store's versions.
void mutate_knowledge(Rng& rng, Knowledge& k) {
  switch (rng.below(6)) {
    case 0:
    case 1: {
      const Version v = random_version(rng);
      if (v.counter == 0) return;
      if (rng.chance(0.5)) {
        k.add_exact_pinned(v);
      } else {
        k.add_exact(v);
      }
      return;
    }
    case 2: {
      const std::uint64_t author = random_author(rng);
      // Mostly short prefixes; now and then the whole counter space.
      const std::uint64_t max_counter =
          rng.chance(0.15) ? kMax
                           : (author == kHigh ? kMax - kCounters
                                              : rng.below(kCounters / 2));
      k.add_authored_prefix(ReplicaId(author), max_counter);
      return;
    }
    case 3: {
      const Version v = random_version(rng);
      if (v.counter != 0) k.forget_exact(v);
      return;
    }
    case 4: {
      // A peer's knowledge learned as a scoped fragment, as a complete
      // sync does.
      Knowledge peer;
      for (int i = 0; i < 6; ++i) {
        const Version v = random_version(rng);
        if (v.counter != 0) peer.add_exact(v);
      }
      k.merge_scoped(peer, random_scope(rng));
      return;
    }
    case 5: {
      // The wire codec folds extras and drops pinned-ness, as a request
      // does on its way to the source.
      ByteWriter w;
      k.serialize(w);
      ByteReader r(w.bytes());
      k = Knowledge::deserialize(r);
      return;
    }
  }
}

/// One random store mutation; a copy replaces the store it copied.
void mutate_store(Rng& rng, std::unique_ptr<ItemStore>& store,
                  std::uint64_t& next_id) {
  std::vector<ItemId> ids;
  store->for_each([&](const ItemStore::Entry& entry) {
    ids.push_back(entry.item.id());
  });
  const auto pick = [&]() { return ids[rng.below(ids.size())]; };
  const std::uint64_t dest = 1 + rng.below(kAddresses);
  switch (ids.empty() ? 0 : rng.below(8)) {
    case 0:
    case 1:
    case 2: {
      // A new item; one in eight reuses a stored item's version, as a
      // hostile peer's two item ids with one version would.
      const ItemId id(next_id++);
      Version version = random_version(rng);
      if (!ids.empty() && rng.chance(0.125))
        version = store->find(pick())->item.version();
      store->put(Item(payload(id, version, dest)), rng.chance(0.4),
                 rng.chance(0.1));
      return;
    }
    case 3: {
      // Re-put an existing id at a fresh version (moves its arrival).
      const ItemId id = pick();
      store->put(Item(payload(id, random_version(rng), dest)),
                 rng.chance(0.4), false);
      return;
    }
    case 4: {
      // A supersede must dominate: the next revision, any event.
      const ItemId id = pick();
      Version version = random_version(rng);
      version.revision = store->find(id)->item.version().revision + 1;
      store->supersede(id, payload(id, version, dest), rng.chance(0.4),
                       rng.chance(0.1));
      return;
    }
    case 5:
      store->remove(pick());
      return;
    case 6: {
      // A filter change: flags move, and evictions may follow.
      std::vector<Item> evicted;
      const HostId wanted(dest);
      store->refilter(
          [&](const Item& item) {
            const auto& dests = item.dest_addresses();
            return std::find(dests.begin(), dests.end(), wanted) !=
                   dests.end();
          },
          evicted);
      return;
    }
    case 7:
      // Copies rebuild every index; the original then goes away.
      if (rng.chance(0.5)) {
        store = std::make_unique<ItemStore>(*store);
      } else {
        auto assigned = std::make_unique<ItemStore>();
        *assigned = *store;
        store = std::move(assigned);
      }
      return;
  }
}

class BatchWalkPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchWalkPropertyTest, WalkPlusKnowsEqualsArrivalOrderScan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
  const ItemStore::Config config{
      rng.chance(0.5) ? std::optional<std::size_t>(6 + rng.below(6))
                      : std::nullopt};
  auto store = std::make_unique<ItemStore>(config);
  Knowledge known;
  std::uint64_t next_id = 1;

  for (int step = 0; step < 300; ++step) {
    if (rng.chance(0.6)) {
      mutate_store(rng, store, next_id);
    } else {
      mutate_knowledge(rng, known);
    }

    // The walk alone is the set difference against the universal set.
    const VersionSet& universal = known.universal();
    std::vector<std::uint64_t> outside, expected_outside;
    store->for_each_outside(
        universal, [&](const ItemStore::Entry& entry, TransientView) {
          outside.push_back(entry.item.id().value());
        });
    store->for_each([&](const ItemStore::Entry& entry) {
      if (!universal.contains(entry.item.version()))
        expected_outside.push_back(entry.item.id().value());
    });
    ASSERT_EQ(outside, expected_outside) << "step " << step;

    // The walk plus knows() is the brute-force scan of build_batch.
    std::vector<std::uint64_t> walked, scanned;
    store->for_each_outside(
        universal, [&](const ItemStore::Entry& entry, TransientView) {
          if (!known.knows(entry.item, entry.item.version()))
            walked.push_back(entry.item.id().value());
        });
    store->for_each([&](const ItemStore::Entry& entry) {
      if (!known.knows(entry.item, entry.item.version()))
        scanned.push_back(entry.item.id().value());
    });
    ASSERT_EQ(walked, scanned) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchWalkPropertyTest,
                         ::testing::Range(0, 16));

/// The stored transient state the walk hands out is the stored copy's.
TEST(BatchWalk, TransientViewWritesReachTheStoredCopy) {
  ItemStore store;
  store.put(Item(payload(ItemId(1), Version{ReplicaId(2), 5, 1}, 1)),
            false, false);
  store.for_each_outside(VersionSet{},
                         [](const ItemStore::Entry&, TransientView view) {
                           view.set_int("ttl", 3);
                         });
  EXPECT_EQ(store.find(ItemId(1))->item.transient_int("ttl"), 3);
}

/// A hostile request whose prefix is 2^64 - 1 knows every counter the
/// author can have; the walk must skip them all without wrapping.
TEST(BatchWalk, TopPrefixSkipsEveryCounter) {
  ItemStore store;
  store.put(Item(payload(ItemId(1), Version{ReplicaId(3), kMax, 1}, 1)),
            false, false);
  store.put(Item(payload(ItemId(2), Version{ReplicaId(3), 1, 1}, 1)),
            false, false);
  store.put(Item(payload(ItemId(3), Version{ReplicaId(4), kMax, 1}, 1)),
            false, false);
  VersionSet known;
  known.add_prefix(ReplicaId(3), kMax);
  std::vector<std::uint64_t> outside;
  store.for_each_outside(known,
                         [&](const ItemStore::Entry& entry, TransientView) {
                           outside.push_back(entry.item.id().value());
                         });
  EXPECT_EQ(outside, std::vector<std::uint64_t>{3});
}

/// Every member of `other` checked one event at a time. A prefix is
/// scanned from just above `self`'s own prefix (below it, contains()
/// holds by definition) and the scan stops at the first event `self`
/// lacks, so prefixes near 2^64 stay cheap to check.
bool brute_contains_all(const VersionSet& self, const VersionSet& other) {
  for (std::uint64_t a = 1; a <= kHigh; ++a) {
    const ReplicaId author(a);
    const VersionSet::AuthorCounters theirs = other.counters_of(author);
    const std::uint64_t mine = self.vector_part().max_counter(author);
    for (std::uint64_t c = mine; c < theirs.prefix;) {
      ++c;
      if (!self.contains(author, c)) return false;
    }
    for (const std::uint64_t c : theirs.extras) {
      if (!self.contains(author, c)) return false;
    }
    for (const std::uint64_t c : theirs.pinned) {
      if (!self.contains(author, c)) return false;
    }
  }
  return true;
}

/// A random set built through every mutator, merges included.
VersionSet random_set(Rng& rng, int depth = 0) {
  VersionSet set;
  const int ops = static_cast<int>(rng.below(16));
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t author = random_author(rng);
    const ReplicaId id(author);
    const std::uint64_t counter =
        std::max<std::uint64_t>(1, random_counter(rng, author));
    switch (rng.below(7)) {
      case 0:
      case 1:
        set.add(id, counter, rng.chance(0.5));
        break;
      case 6: {
        // A run of relay receipts just above the prefix: pins that a
        // wire round trip folds into a prefix.
        const std::uint64_t from = set.vector_part().max_counter(id);
        const std::uint64_t run = 1 + rng.below(6);
        for (std::uint64_t c = 1; c <= run && from < kMax - c; ++c)
          set.add(id, from + c, /*pinned=*/true);
        break;
      }
      case 2:
        set.add_prefix(id, rng.chance(0.1) ? kMax : counter / 2 + counter % 3);
        break;
      case 3:
        set.remove_extra(id, counter);
        break;
      case 4:
        set.unpin(id, counter);
        break;
      case 5:
        if (depth < 2) set.merge(random_set(rng, depth + 1));
        break;
    }
  }
  return set;
}

VersionSet exact_round_trip(const VersionSet& set) {
  ByteWriter w;
  set.serialize_exact(w);
  ByteReader r(w.bytes());
  return VersionSet::deserialize_exact(r);
}

VersionSet wire_round_trip(const VersionSet& set) {
  ByteWriter w;
  set.serialize(w);
  ByteReader r(w.bytes());
  return VersionSet::deserialize(r);
}

class ContainsAllPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContainsAllPropertyTest, EqualsPerEventCheck) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  for (int round = 0; round < 200; ++round) {
    VersionSet a = random_set(rng);
    const VersionSet b = random_set(rng);
    // Pins of one set inside the other's prefix, and extras sharing a
    // prefix range, are the cases the gap count must get right; a
    // merge makes supersets, for which the answer is yes.
    ASSERT_EQ(a.contains_all(b), brute_contains_all(a, b))
        << "round " << round;
    ASSERT_EQ(b.contains_all(a), brute_contains_all(b, a))
        << "round " << round;
    // The learn step's shape: a decoded copy folds this set's pins into
    // prefixes, so the gaps above our own prefixes hold only pins —
    // covered, until one of them goes.
    const VersionSet folded = wire_round_trip(a);
    ASSERT_TRUE(a.contains_all(folded)) << "round " << round;
    VersionSet holed = a;
    const std::uint64_t author = random_author(rng);
    holed.remove_extra(ReplicaId(author), random_counter(rng, author));
    ASSERT_EQ(holed.contains_all(folded), brute_contains_all(holed, folded))
        << "round " << round;
    a.merge(b);
    ASSERT_TRUE(a.contains_all(b)) << "round " << round;
    ASSERT_TRUE(brute_contains_all(a, b)) << "round " << round;
    // A merged set passes its own exact codec: no pin at or below a
    // prefix survives the merge.
    ASSERT_EQ(exact_round_trip(a), a) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainsAllPropertyTest,
                         ::testing::Range(0, 12));

/// The gap above a prefix counts pinned and plain members alike, and
/// one missing event anywhere in it is a no.
TEST(ContainsAll, GapFilledByPinnedAndPlainExtras) {
  VersionSet mine;
  mine.add_prefix(ReplicaId(1), 2);
  mine.add(ReplicaId(1), 3, /*pinned=*/true);
  mine.add(ReplicaId(1), 5, /*pinned=*/true);
  mine.add(ReplicaId(1), 4);  // blocked by the pin at 3: stays an extra
  VersionSet theirs;
  theirs.add_prefix(ReplicaId(1), 5);
  EXPECT_TRUE(mine.contains_all(theirs));
  theirs.add_prefix(ReplicaId(1), 6);
  EXPECT_FALSE(mine.contains_all(theirs));
  // A top prefix opposite a short one is a no, answered without
  // walking the gap.
  VersionSet top;
  top.add_prefix(ReplicaId(1), kMax);
  EXPECT_FALSE(mine.contains_all(top));
  EXPECT_TRUE(top.contains_all(mine));
}

}  // namespace
}  // namespace pfrdtn::repl
