#include "repl/knowledge.hpp"

#include <gtest/gtest.h>

#include <string>

#include "repl/replica.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pfrdtn::repl {
namespace {

Item message_to(std::uint64_t dest, std::uint64_t id = 1) {
  return Item(ItemId(id), Version{ReplicaId(1), 1, 1},
              {{meta::kDest, std::to_string(dest)}}, {});
}

Version v(std::uint64_t author, std::uint64_t counter) {
  return Version{ReplicaId(author), counter, 1};
}

TEST(Knowledge, ExactEventsAreScopeFree) {
  Knowledge k;
  k.add_exact(v(2, 7));
  // The exact event is known for any item shape.
  EXPECT_TRUE(k.knows(message_to(1), v(2, 7)));
  EXPECT_TRUE(k.knows(message_to(9), v(2, 7)));
  EXPECT_FALSE(k.knows(message_to(1), v(2, 8)));
}

TEST(Knowledge, ForgetExactPinned) {
  Knowledge k;
  k.add_exact_pinned(v(2, 7));
  EXPECT_TRUE(k.knows(message_to(1), v(2, 7)));
  EXPECT_TRUE(k.forget_exact(v(2, 7)));
  EXPECT_FALSE(k.knows(message_to(1), v(2, 7)));
}

TEST(Knowledge, FoldedExactCannotBeForgotten) {
  Knowledge k;
  k.add_exact(v(2, 1));  // folds into the vector immediately
  EXPECT_FALSE(k.forget_exact(v(2, 1)));
  EXPECT_TRUE(k.knows(message_to(1), v(2, 1)));
}

TEST(Knowledge, ScopedMergeRestrictsClaims) {
  Knowledge source;
  source.add_exact(v(3, 1));
  Knowledge target;
  target.merge_scoped(source, Filter::addresses({HostId(5)}));
  // Claim applies to items addressed to 5 only.
  EXPECT_TRUE(target.knows(message_to(5), v(3, 1)));
  EXPECT_FALSE(target.knows(message_to(6), v(3, 1)));
}

TEST(Knowledge, ScopedMergeIntersectsFragmentScopes) {
  Knowledge a;
  a.add_exact(v(3, 1));
  Knowledge b;
  b.merge_scoped(a, Filter::addresses({HostId(1), HostId(2)}));
  Knowledge c;
  c.merge_scoped(b, Filter::addresses({HostId(2), HostId(4)}));
  // Only the intersection {2} survives the double scoping.
  EXPECT_TRUE(c.knows(message_to(2), v(3, 1)));
  EXPECT_FALSE(c.knows(message_to(1), v(3, 1)));
  EXPECT_FALSE(c.knows(message_to(4), v(3, 1)));
}

TEST(Knowledge, MergeWithEmptyScopeIsNoop) {
  Knowledge source;
  source.add_exact(v(3, 1));
  Knowledge target;
  target.merge_scoped(source, Filter::none());
  EXPECT_FALSE(target.knows(message_to(1), v(3, 1)));
  EXPECT_TRUE(target.fragments().empty());
}

TEST(Knowledge, FragmentsWithEqualScopeUnion) {
  Knowledge s1, s2;
  s1.add_exact(v(3, 5));
  s2.add_exact(v(4, 6));
  Knowledge target;
  const auto scope = Filter::addresses({HostId(1)});
  target.merge_scoped(s1, scope);
  target.merge_scoped(s2, scope);
  EXPECT_EQ(target.fragments().size(), 1u);
  EXPECT_TRUE(target.knows(message_to(1), v(3, 5)));
  EXPECT_TRUE(target.knows(message_to(1), v(4, 6)));
}

TEST(Knowledge, SubsumedFragmentIsDropped) {
  Knowledge source;
  source.add_exact(v(3, 5));
  Knowledge target;
  target.merge_scoped(source, Filter::addresses({HostId(1)}));
  target.merge_scoped(source, Filter::addresses({HostId(1), HostId(2)}));
  // The narrow fragment is covered by the wide one.
  EXPECT_EQ(target.fragments().size(), 1u);
  EXPECT_TRUE(target.knows(message_to(2), v(3, 5)));
}

TEST(Knowledge, UniversalCoverageSkipsFragmentCreation) {
  Knowledge source;
  source.add_exact(v(3, 5));
  Knowledge target;
  target.add_exact(v(3, 5));
  target.merge_scoped(source, Filter::addresses({HostId(1)}));
  EXPECT_TRUE(target.fragments().empty());
}

TEST(Knowledge, DropFragmentsMatchingItem) {
  Knowledge source;
  source.add_exact(v(3, 5));
  Knowledge target;
  target.merge_scoped(source, Filter::addresses({HostId(1)}));
  ASSERT_TRUE(target.knows(message_to(1), v(3, 5)));
  target.drop_fragments_matching(message_to(1));
  EXPECT_FALSE(target.knows(message_to(1), v(3, 5)));
}

TEST(Knowledge, FragmentCapEnforced) {
  Knowledge target;
  for (std::uint64_t i = 0; i < Knowledge::kMaxFragments + 10; ++i) {
    Knowledge source;
    // Distinct authors so universal coverage can't absorb them.
    source.add_exact(v(100 + i, 2));
    target.merge_scoped(source, Filter::addresses({HostId(i + 1)}));
  }
  EXPECT_LE(target.fragments().size(), Knowledge::kMaxFragments);
}

TEST(Knowledge, WireRoundTrip) {
  Knowledge k;
  k.add_exact(v(1, 1));
  k.add_exact_pinned(v(2, 9));
  Knowledge source;
  source.add_exact(v(3, 4));
  k.merge_scoped(source, Filter::addresses({HostId(7)}));
  ByteWriter w;
  k.serialize(w);
  ByteReader r(w.bytes());
  const Knowledge got = Knowledge::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(got.knows(message_to(1), v(1, 1)));
  EXPECT_TRUE(got.knows(message_to(1), v(2, 9)));
  EXPECT_TRUE(got.knows(message_to(7), v(3, 4)));
  EXPECT_FALSE(got.knows(message_to(8), v(3, 4)));
}

/// `k`'s exact (checkpoint) encoding after one round trip through it;
/// deserialize_exact throws on any shape compact() would not leave.
std::vector<std::uint8_t> exact_round_trip(const Knowledge& k) {
  ByteWriter w;
  k.serialize_exact(w);
  ByteReader r(w.bytes());
  const Knowledge copy = Knowledge::deserialize_exact(r);
  EXPECT_TRUE(r.done());
  ByteWriter again;
  copy.serialize_exact(again);
  EXPECT_EQ(again.bytes(), w.bytes());
  return again.take();
}

TEST(Knowledge, RepeatedLearnFoldsAboveARaisedPrefix) {
  // Two complete syncs from peers that knew author 1 as prefix 1 with
  // extras {3, 5}, then as prefix 4: the equal-scope fragments merge
  // into prefix 5, which the exact codec round-trips.
  const Filter scope = Filter::addresses({HostId(3)});
  Knowledge first;
  first.add_authored_prefix(ReplicaId(1), 1);
  first.add_exact(v(1, 3));
  first.add_exact(v(1, 5));
  Knowledge second;
  second.add_authored_prefix(ReplicaId(1), 4);
  Knowledge k;
  k.merge_scoped(first, scope);
  k.merge_scoped(second, scope);
  ASSERT_EQ(k.fragments().size(), 1u);
  const VersionSet& versions = k.fragments()[0].versions;
  EXPECT_EQ(versions.vector_part().max_counter(ReplicaId(1)), 5u);
  EXPECT_EQ(versions.extras_count(), 0u);
  EXPECT_NO_THROW(exact_round_trip(k));
}

/// Property: a replica that learns twice from complete syncs merges two
/// fragments of equal scope (merge_scoped twice); whatever the peers
/// knew, its knowledge must survive the exact codec, or recovery would
/// refuse the replica's own checkpoint.
class RepeatedLearnTest : public ::testing::TestWithParam<int> {};

TEST_P(RepeatedLearnTest, EqualScopeMergesSurviveExactCodec) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const Filter scope = Filter::addresses({HostId(3)});
  const auto random_peer = [&] {
    Knowledge peer;
    for (std::uint64_t a = 1; a <= 3; ++a)
      peer.add_authored_prefix(ReplicaId(a), rng.below(8));
    for (std::uint64_t n = rng.below(20); n > 0; --n)
      peer.add_exact(v(1 + rng.below(3), 1 + rng.below(16)));
    return peer;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const Knowledge first = random_peer();
    const Knowledge second = random_peer();
    Knowledge k;
    k.merge_scoped(first, scope);
    k.merge_scoped(second, scope);
    ASSERT_NO_THROW(exact_round_trip(k)) << "trial " << trial;
    for (std::uint64_t a = 1; a <= 3; ++a) {
      for (std::uint64_t c = 1; c <= 16; ++c) {
        const bool known = first.knows(message_to(3), v(a, c)) ||
                           second.knows(message_to(3), v(a, c));
        ASSERT_EQ(k.knows(message_to(3), v(a, c)), known)
            << "trial " << trial << " author " << a << " counter " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepeatedLearnTest, ::testing::Range(0, 4));

TEST(Knowledge, SizeBytesTracksContent) {
  Knowledge empty;
  Knowledge loaded;
  for (std::uint64_t i = 1; i <= 50; ++i) loaded.add_exact(v(i, 3));
  EXPECT_GT(loaded.size_bytes(), empty.size_bytes());
  EXPECT_EQ(loaded.weight(), 50u * 1u);
}

TEST(Knowledge, WeightCountsFragments) {
  Knowledge k;
  Knowledge source;
  source.add_exact(v(5, 2));
  k.merge_scoped(source, Filter::addresses({HostId(1)}));
  EXPECT_GE(k.weight(), 1u);
}

/// Whether serialize(), size_bytes() and wire_digest() — all served
/// from the per-revision wire cache — match a cache-free rebuild: the
/// exact codec's round trip, a new object that has never encoded.
::testing::AssertionResult encodes_its_value(const Knowledge& k) {
  ByteWriter exact;
  k.serialize_exact(exact);
  ByteReader r(exact.bytes());
  const Knowledge rebuilt = Knowledge::deserialize_exact(r);
  ByteWriter want;
  rebuilt.serialize(want);
  ByteWriter got;
  k.serialize(got);
  if (got.bytes() != want.bytes())
    return ::testing::AssertionFailure() << "serialize() is stale";
  if (k.size_bytes() != want.size())
    return ::testing::AssertionFailure() << "size_bytes() is stale";
  if (k.wire_digest() != fnv1a64(want.bytes()))
    return ::testing::AssertionFailure() << "wire_digest() is stale";
  return ::testing::AssertionSuccess();
}

/// Random sequences over every mutator of a replica's knowledge and of
/// a second knowledge it trades with. Each check fills the caches, so
/// a mutation that changes the value without bumping the revision
/// leaves a stale encoding the next check sees.
TEST(KnowledgeWireCache, MatchesACacheFreeRebuildAfterEveryMutation) {
  const Filter filters[] = {
      Filter::addresses({HostId(1)}), Filter::addresses({HostId(2)}),
      Filter::addresses({HostId(1), HostId(2)}), Filter::all()};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    Replica replica(ReplicaId(1), filters[0]);
    Knowledge peer;
    for (int step = 0; step < 150; ++step) {
      const bool mine = rng.below(2) == 0;
      Knowledge& k = mine ? replica.knowledge_mutable() : peer;
      const Knowledge& other = mine ? peer : replica.knowledge();
      const Version ver{ReplicaId(2 + rng.below(4)), 1 + rng.below(12), 1};
      const Filter& filter = filters[rng.below(std::size(filters))];
      std::string op;
      switch (rng.below(11)) {
        case 0:
          op = "add_exact";
          k.add_exact(ver);
          break;
        case 1:
          op = "add_exact_pinned";
          k.add_exact_pinned(ver);
          break;
        case 2:
          op = "add_authored_prefix";
          k.add_authored_prefix(ver.author, ver.counter);
          break;
        case 3:
          op = "forget_exact";
          k.forget_exact(ver);
          break;
        case 4:
          op = "drop_fragments_matching";
          k.drop_fragments_matching(message_to(1 + rng.below(2)));
          break;
        case 5:
          op = "merge_scoped";
          k.merge_scoped(other, filter);
          break;
        case 6: {
          op = "copy";
          const Knowledge copy = k;
          ASSERT_TRUE(encodes_its_value(copy))
              << "seed " << seed << " step " << step << " after " << op;
          break;
        }
        case 7:
          op = "copy-assign";
          k = other;
          break;
        case 8: {
          op = "move-assign";
          Knowledge moved = other;
          k = std::move(moved);
          // The class invariant holds for the moved-from object too: it
          // never serves the encoding it gave away.
          // NOLINTNEXTLINE(bugprone-use-after-move)
          ASSERT_TRUE(encodes_its_value(moved))
              << "seed " << seed << " step " << step << " after " << op;
          break;
        }
        case 9: {
          op = "apply_remote";
          const Item item(ItemId(100 * ver.author.value() + ver.counter),
                          ver,
                          {{meta::kDest, std::to_string(1 + rng.below(2))}},
                          {});
          std::vector<Item> evicted;
          replica.apply_remote(item, evicted);
          break;
        }
        case 10:
          op = "refilter";  // rebuild_knowledge
          replica.set_filter(filter);
          break;
      }
      ASSERT_TRUE(encodes_its_value(replica.knowledge()))
          << "seed " << seed << " step " << step << " after " << op;
      ASSERT_TRUE(encodes_its_value(peer))
          << "seed " << seed << " step " << step << " after " << op;
    }
  }
}

}  // namespace
}  // namespace pfrdtn::repl
