#include "repl/version.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace pfrdtn::repl {
namespace {

Version v(std::uint64_t author, std::uint64_t counter,
          std::uint64_t revision = 1) {
  return Version{ReplicaId(author), counter, revision};
}

TEST(Version, ValidityRules) {
  EXPECT_FALSE(Version{}.valid());
  EXPECT_FALSE(v(1, 0).valid());
  EXPECT_TRUE(v(1, 1).valid());
}

TEST(Version, DominanceByRevision) {
  EXPECT_TRUE(v(1, 5, 2).dominates(v(2, 9, 1)));
  EXPECT_FALSE(v(2, 9, 1).dominates(v(1, 5, 2)));
}

TEST(Version, DominanceTieBrokenByAuthor) {
  EXPECT_TRUE(v(3, 1, 2).dominates(v(2, 7, 2)));
  EXPECT_FALSE(v(2, 7, 2).dominates(v(3, 1, 2)));
  EXPECT_FALSE(v(2, 7, 2).dominates(v(2, 7, 2)));  // never self
}

TEST(Version, SameEventIgnoresRevision) {
  EXPECT_TRUE(v(1, 4, 1).same_event(v(1, 4, 9)));
  EXPECT_FALSE(v(1, 4).same_event(v(1, 5)));
  EXPECT_FALSE(v(1, 4).same_event(v(2, 4)));
}

TEST(Version, WireRoundTrip) {
  ByteWriter w;
  v(7, 123, 4).serialize(w);
  ByteReader r(w.bytes());
  const Version got = Version::deserialize(r);
  EXPECT_EQ(got, v(7, 123, 4));
}

TEST(VersionVector, IncludesAfterExtend) {
  VersionVector vv;
  EXPECT_FALSE(vv.includes(ReplicaId(1), 1));
  vv.extend(ReplicaId(1), 3);
  EXPECT_TRUE(vv.includes(ReplicaId(1), 1));
  EXPECT_TRUE(vv.includes(ReplicaId(1), 3));
  EXPECT_FALSE(vv.includes(ReplicaId(1), 4));
  EXPECT_FALSE(vv.includes(ReplicaId(2), 1));
}

TEST(VersionVector, ExtendNeverLowers) {
  VersionVector vv;
  vv.extend(ReplicaId(1), 5);
  vv.extend(ReplicaId(1), 2);
  EXPECT_EQ(vv.max_counter(ReplicaId(1)), 5u);
}

TEST(VersionVector, MergeIsPointwiseMax) {
  VersionVector a, b;
  a.extend(ReplicaId(1), 3);
  a.extend(ReplicaId(2), 1);
  b.extend(ReplicaId(1), 2);
  b.extend(ReplicaId(3), 7);
  a.merge(b);
  EXPECT_EQ(a.max_counter(ReplicaId(1)), 3u);
  EXPECT_EQ(a.max_counter(ReplicaId(2)), 1u);
  EXPECT_EQ(a.max_counter(ReplicaId(3)), 7u);
}

TEST(VersionVector, Covers) {
  VersionVector a, b;
  a.extend(ReplicaId(1), 3);
  b.extend(ReplicaId(1), 2);
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  b.extend(ReplicaId(2), 1);
  EXPECT_FALSE(a.covers(b));
  VersionVector empty;
  EXPECT_TRUE(a.covers(empty));
}

TEST(VersionVector, WireRoundTrip) {
  VersionVector vv;
  vv.extend(ReplicaId(1), 3);
  vv.extend(ReplicaId(9), 100);
  ByteWriter w;
  vv.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(VersionVector::deserialize(r), vv);
}

TEST(VersionSet, CompactsContiguousPrefix) {
  VersionSet vs;
  vs.add(ReplicaId(1), 2);
  EXPECT_EQ(vs.extras_count(), 1u);
  vs.add(ReplicaId(1), 1);
  // 1,2 fold into the vector.
  EXPECT_EQ(vs.extras_count(), 0u);
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 2u);
  EXPECT_TRUE(vs.contains(ReplicaId(1), 1));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 2));
  EXPECT_FALSE(vs.contains(ReplicaId(1), 3));
}

TEST(VersionSet, GapBlocksCompaction) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1);
  vs.add(ReplicaId(1), 3);
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 1u);
  EXPECT_EQ(vs.extras_count(), 1u);
  vs.add(ReplicaId(1), 2);  // fills the gap; 1..3 fold
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 3u);
  EXPECT_EQ(vs.extras_count(), 0u);
}

TEST(VersionSet, PinnedNeverFolds) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  vs.add(ReplicaId(1), 2);
  // Pinned 1 blocks the fold of 2 as well.
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 0u);
  EXPECT_TRUE(vs.contains(ReplicaId(1), 1));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 2));
}

TEST(VersionSet, RemovePinnedExtraMakesUnknown) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  EXPECT_TRUE(vs.remove_extra(ReplicaId(1), 1));
  EXPECT_FALSE(vs.contains(ReplicaId(1), 1));
  EXPECT_FALSE(vs.remove_extra(ReplicaId(1), 1));  // already gone
}

TEST(VersionSet, FoldedEventCannotBeRemoved) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1);
  EXPECT_FALSE(vs.remove_extra(ReplicaId(1), 1));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 1));
}

TEST(VersionSet, UnpinAllowsFolding) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  vs.add(ReplicaId(1), 2);
  vs.unpin(ReplicaId(1), 1);
  EXPECT_EQ(vs.vector_part().max_counter(ReplicaId(1)), 2u);
  EXPECT_EQ(vs.extras_count(), 0u);
}

TEST(VersionSet, PinMovesExtraBack) {
  VersionSet vs;
  vs.add(ReplicaId(1), 2);  // extra (gap at 1)
  EXPECT_TRUE(vs.pin(ReplicaId(1), 2));
  EXPECT_TRUE(vs.contains(ReplicaId(1), 2));
  EXPECT_TRUE(vs.remove_extra(ReplicaId(1), 2));
}

TEST(VersionSet, PinFailsForFoldedEvent) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1);
  EXPECT_FALSE(vs.pin(ReplicaId(1), 1));
}

TEST(VersionSet, MergeUnionsAndCompacts) {
  VersionSet a, b;
  a.add(ReplicaId(1), 1);
  b.add(ReplicaId(1), 2);
  b.add(ReplicaId(2), 5);
  a.merge(b);
  EXPECT_TRUE(a.contains(ReplicaId(1), 1));
  EXPECT_TRUE(a.contains(ReplicaId(1), 2));
  EXPECT_TRUE(a.contains(ReplicaId(2), 5));
  EXPECT_EQ(a.vector_part().max_counter(ReplicaId(1)), 2u);
}

TEST(VersionSet, MergeTreatsPinnedAsPlain) {
  VersionSet a, b;
  b.add(ReplicaId(1), 1, /*pinned=*/true);
  a.merge(b);
  // In `a` the event is a plain extra, so it folds.
  EXPECT_EQ(a.vector_part().max_counter(ReplicaId(1)), 1u);
}

TEST(VersionSet, ContainsAll) {
  VersionSet a, b;
  a.add(ReplicaId(1), 1);
  a.add(ReplicaId(1), 2);
  a.add(ReplicaId(2), 4);
  b.add(ReplicaId(1), 2);
  EXPECT_TRUE(a.contains_all(b));
  b.add(ReplicaId(3), 1);
  EXPECT_FALSE(a.contains_all(b));
  VersionSet empty;
  EXPECT_TRUE(a.contains_all(empty));
  EXPECT_FALSE(empty.contains_all(a));
}

TEST(VersionSet, WireRoundTripFlattensPinning) {
  VersionSet vs;
  vs.add(ReplicaId(1), 1, /*pinned=*/true);
  vs.add(ReplicaId(1), 3);
  vs.add(ReplicaId(2), 1);
  ByteWriter w;
  vs.serialize(w);
  ByteReader r(w.bytes());
  const VersionSet got = VersionSet::deserialize(r);
  // Membership identical...
  EXPECT_TRUE(got.contains(ReplicaId(1), 1));
  EXPECT_TRUE(got.contains(ReplicaId(1), 3));
  EXPECT_TRUE(got.contains(ReplicaId(2), 1));
  EXPECT_FALSE(got.contains(ReplicaId(1), 2));
  // ...but the deserialized copy compacts (1 folds; 3 stays an extra).
  EXPECT_EQ(got.vector_part().max_counter(ReplicaId(1)), 1u);
}

/// Naive model of the documented structure: per author a folded
/// prefix, plain extras that fold once contiguous, and pinned extras
/// that never fold.
struct VersionSetModel {
  std::map<std::uint64_t, std::uint64_t> prefix;
  std::set<std::pair<std::uint64_t, std::uint64_t>> extras, pinned;

  [[nodiscard]] bool contains(std::uint64_t a, std::uint64_t c) const {
    const auto it = prefix.find(a);
    return (it != prefix.end() && c <= it->second) ||
           extras.count({a, c}) > 0 || pinned.count({a, c}) > 0;
  }
  [[nodiscard]] bool removable(std::uint64_t a, std::uint64_t c) const {
    return extras.count({a, c}) > 0 || pinned.count({a, c}) > 0;
  }
  void fold(std::uint64_t a) {
    while (extras.erase({a, prefix[a] + 1}) > 0) ++prefix[a];
  }
  void add(std::uint64_t a, std::uint64_t c, bool pin) {
    if (contains(a, c)) return;
    if (pin) {
      pinned.emplace(a, c);
      return;
    }
    extras.emplace(a, c);
    fold(a);
  }
  bool remove_extra(std::uint64_t a, std::uint64_t c) {
    return pinned.erase({a, c}) > 0 || extras.erase({a, c}) > 0;
  }
  void unpin(std::uint64_t a, std::uint64_t c) {
    if (pinned.erase({a, c}) == 0) return;
    if (c > prefix[a]) extras.emplace(a, c);
    fold(a);
  }
};

/// Property: VersionSet must agree with a naive std::set oracle under
/// random interleavings of add / add-pinned / remove / unpin — in
/// membership, in what stays removable, in its extras count, and
/// through both codecs after every step.
class VersionSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionSetPropertyTest, AgreesWithNaiveOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  VersionSet vs;
  std::set<std::pair<std::uint64_t, std::uint64_t>> oracle;
  VersionSetModel model;
  constexpr std::uint64_t kAuthors = 4;
  constexpr std::uint64_t kCounters = 12;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t author = 1 + rng.below(kAuthors);
    const std::uint64_t counter = 1 + rng.below(kCounters);
    switch (rng.below(4)) {
      case 0:
        vs.add(ReplicaId(author), counter, /*pinned=*/false);
        oracle.emplace(author, counter);
        model.add(author, counter, /*pin=*/false);
        break;
      case 1:
        vs.add(ReplicaId(author), counter, /*pinned=*/true);
        oracle.emplace(author, counter);
        model.add(author, counter, /*pin=*/true);
        break;
      case 2: {
        const bool removed = vs.remove_extra(ReplicaId(author), counter);
        ASSERT_EQ(removed, model.remove_extra(author, counter))
            << "step " << step;
        if (removed) oracle.erase({author, counter});
        break;
      }
      case 3:
        vs.unpin(ReplicaId(author), counter);
        model.unpin(author, counter);
        break;
    }
    ASSERT_EQ(vs.extras_count(), model.extras.size() + model.pinned.size())
        << "step " << step;
    ByteWriter wire;
    vs.serialize(wire);
    ByteReader wire_reader(wire.bytes());
    const VersionSet decoded = VersionSet::deserialize(wire_reader);
    ASSERT_EQ(decoded.event_count(), oracle.size()) << "step " << step;
    ByteWriter exact;
    vs.serialize_exact(exact);
    ByteReader exact_reader(exact.bytes());
    ASSERT_EQ(VersionSet::deserialize_exact(exact_reader), vs)
        << "step " << step;
    // Full agreement after every step.
    for (std::uint64_t a = 1; a <= kAuthors; ++a) {
      ASSERT_EQ(vs.vector_part().max_counter(ReplicaId(a)),
                model.prefix.count(a) > 0 ? model.prefix.at(a) : 0)
          << "step " << step << " author " << a;
      for (std::uint64_t c = 1; c <= kCounters; ++c) {
        const bool member = oracle.count({a, c}) > 0;
        ASSERT_EQ(vs.contains(ReplicaId(a), c), member)
            << "step " << step << " author " << a << " counter " << c;
        ASSERT_EQ(decoded.contains(ReplicaId(a), c), member)
            << "step " << step << " author " << a << " counter " << c;
        ASSERT_EQ(vs.removable(ReplicaId(a), c), model.removable(a, c))
            << "step " << step << " author " << a << " counter " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionSetPropertyTest,
                         ::testing::Range(0, 12));

/// Property: merge equals set union.
class VersionSetMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionSetMergeTest, MergeIsUnion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  VersionSet a, b;
  std::set<std::pair<std::uint64_t, std::uint64_t>> ua, ub;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t author = 1 + rng.below(3);
    const std::uint64_t counter = 1 + rng.below(20);
    if (rng.chance(0.5)) {
      a.add(ReplicaId(author), counter, rng.chance(0.3));
      ua.emplace(author, counter);
    } else {
      b.add(ReplicaId(author), counter, rng.chance(0.3));
      ub.emplace(author, counter);
    }
  }
  a.merge(b);
  for (std::uint64_t author = 1; author <= 3; ++author) {
    for (std::uint64_t counter = 1; counter <= 20; ++counter) {
      const bool expected = ua.count({author, counter}) > 0 ||
                            ub.count({author, counter}) > 0;
      ASSERT_EQ(a.contains(ReplicaId(author), counter), expected);
    }
  }
  EXPECT_TRUE(a.contains_all(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionSetMergeTest,
                         ::testing::Range(0, 8));

/// `vs` after a trip through the exact (checkpoint) codec, which
/// rejects any shape compact() would not leave behind.
VersionSet exact_round_trip(const VersionSet& vs) {
  ByteWriter w;
  vs.serialize_exact(w);
  ByteReader r(w.bytes());
  VersionSet copy = VersionSet::deserialize_exact(r);
  EXPECT_TRUE(r.done());
  return copy;
}

TEST(VersionSet, MergeFoldsExtrasAboveARaisedPrefix) {
  // Prefix 1 with extras {3, 5}, merged with prefix 4: extra 3 falls
  // inside the prefix and 5 sits on prefix + 1, so all of it folds.
  VersionSet a;
  a.add_prefix(ReplicaId(1), 1);
  a.add(ReplicaId(1), 3);
  a.add(ReplicaId(1), 5);
  VersionSet b;
  b.add_prefix(ReplicaId(1), 4);
  a.merge(b);
  EXPECT_EQ(a.vector_part().max_counter(ReplicaId(1)), 5u);
  EXPECT_EQ(a.extras_count(), 0u);
  EXPECT_EQ(exact_round_trip(a), a);
}

/// Property: a merge result is what the exact codec accepts and equals
/// the union. Receivers hold plain events only, as knowledge fragments
/// do (a merged claim is never pinned); merged-in sets may carry pins.
class VersionSetMergeShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionSetMergeShapeTest, MergedSetSurvivesExactCodec) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  constexpr std::uint64_t kAuthors = 3;
  constexpr std::uint64_t kCounters = 16;
  const auto random_set = [&](bool pins) {
    VersionSet vs;
    for (std::uint64_t a = 1; a <= kAuthors; ++a)
      vs.add_prefix(ReplicaId(a), rng.below(kCounters / 2));
    for (std::uint64_t n = rng.below(24); n > 0; --n) {
      vs.add(ReplicaId(1 + rng.below(kAuthors)), 1 + rng.below(kCounters),
             pins && rng.chance(0.3));
    }
    return vs;
  };
  for (int trial = 0; trial < 300; ++trial) {
    VersionSet a = random_set(/*pins=*/false);
    const VersionSet b = random_set(/*pins=*/true);
    std::set<std::pair<std::uint64_t, std::uint64_t>> expected;
    for (std::uint64_t author = 1; author <= kAuthors; ++author) {
      for (std::uint64_t c = 1; c <= kCounters; ++c) {
        if (a.contains(ReplicaId(author), c) ||
            b.contains(ReplicaId(author), c)) {
          expected.emplace(author, c);
        }
      }
    }
    a.merge(b);
    ASSERT_EQ(exact_round_trip(a), a) << "trial " << trial;
    for (std::uint64_t author = 1; author <= kAuthors; ++author) {
      for (std::uint64_t c = 1; c <= kCounters; ++c) {
        ASSERT_EQ(a.contains(ReplicaId(author), c),
                  expected.count({author, c}) > 0)
            << "trial " << trial << " author " << author << " counter "
            << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionSetMergeShapeTest,
                         ::testing::Range(0, 8));

/// Reference for the wire decoder: its per-group rule spelled out over
/// node-based containers — each group's counters are inserted one by
/// one (wrapping sums, zeros and repeats included), then that author is
/// compacted. Returns the decoded set
/// in the exact (checkpoint) encoding, so structure is compared, not
/// just membership.
std::vector<std::uint8_t> reference_wire_decode(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  std::map<std::uint64_t, std::uint64_t> vv;
  std::map<std::uint64_t, std::set<std::uint64_t>> extras;
  const auto max_of = [&](std::uint64_t a) {
    const auto it = vv.find(a);
    return it == vv.end() ? std::uint64_t{0} : it->second;
  };
  for (std::uint64_t n = r.uvarint(); n > 0; --n) {
    const std::uint64_t a = r.uvarint();
    const std::uint64_t c = r.uvarint();
    auto& entry = vv[a];
    if (c > entry) entry = c;
  }
  for (std::uint64_t groups = r.uvarint(); groups > 0; --groups) {
    const std::uint64_t a = r.uvarint();
    std::uint64_t counter = 0;
    for (std::uint64_t n = r.uvarint(); n > 0; --n) {
      counter += r.uvarint();
      if (!(vv.count(a) > 0 && counter <= vv[a])) extras[a].insert(counter);
    }
    const auto it = extras.find(a);
    if (it == extras.end()) continue;
    auto& pending = it->second;
    for (std::uint64_t next = max_of(a) + 1;
         !pending.empty() && *pending.begin() == next; ++next) {
      pending.erase(pending.begin());
      vv[a] = next;
    }
    while (!pending.empty() && *pending.begin() <= max_of(a))
      pending.erase(pending.begin());
    if (pending.empty()) extras.erase(it);
  }
  ByteWriter w;
  w.uvarint(vv.size());
  for (const auto& [a, c] : vv) {
    w.uvarint(a);
    w.uvarint(c);
  }
  w.uvarint(extras.size());
  for (const auto& [a, counters] : extras) {
    w.uvarint(a);
    w.uvarint(counters.size());
    std::uint64_t prev = 0;
    for (const std::uint64_t c : counters) {
      w.uvarint(c - prev);
      prev = c;
    }
  }
  w.uvarint(0);  // the wire codec never pins
  return w.take();
}

/// Differential: small hostile encodings — zero, wrapping and repeated
/// deltas, vector entries of 0, authors out of order and repeated —
/// decode to exactly the structure the per-group reference builds.
TEST(VersionSetCodec, HostileDecodeMatchesPerGroupReference) {
  constexpr std::uint64_t kDeltas[] = {0, 1, 1, 2, 3, ~std::uint64_t{0},
                                       ~std::uint64_t{0} - 1};
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    Rng rng(seed);
    ByteWriter w;
    const std::uint64_t entries = rng.below(3);
    w.uvarint(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
      w.uvarint(rng.below(4));
      w.uvarint(rng.below(4));
    }
    const std::uint64_t groups = rng.below(6);
    w.uvarint(groups);
    for (std::uint64_t g = 0; g < groups; ++g) {
      w.uvarint(rng.below(4));
      const std::uint64_t n = rng.below(5);
      w.uvarint(n);
      for (std::uint64_t i = 0; i < n; ++i)
        w.uvarint(kDeltas[rng.below(std::size(kDeltas))]);
    }
    ByteReader r(w.bytes());
    const VersionSet decoded = VersionSet::deserialize(r);
    ByteWriter got;
    decoded.serialize_exact(got);
    ASSERT_EQ(got.bytes(), reference_wire_decode(w.bytes()))
        << "seed " << seed;
  }
}

/// A Request-cap-sized (1 MiB) wire set, within the default decode
/// element budget, built against any decoder that keeps counters sorted
/// while it reads:
///  - author 1's 1,000,000 counters arrive in 100 groups, last group
///    first, each interleaving with all the others (1 byte a counter);
///  - author 2's counters run downward inside groups whose deltas wrap
///    around 2^64;
///  - 200 authors arrive in descending order, each with repeated
///    counters.
/// It must decode to its sorted, deduplicated set. A sorted insert per
/// counter moves ~2.5 * 10^11 counters here (78 s at -O2 on a 4-vCPU
/// Xeon VM); the decoder's one sort per author takes about 0.1 s.
TEST(VersionSetCodec, HostileRequestSizedSetDecodesInNLogN) {
  constexpr std::uint64_t kGroups = 100;
  constexpr std::uint64_t kLast = 1'000'001;  // author 1 holds 2..kLast
  constexpr std::uint64_t kWrapDown = ~std::uint64_t{0};  // adds -1
  std::set<std::pair<std::uint64_t, std::uint64_t>> others;
  ByteWriter w;
  w.uvarint(0);  // empty version vector
  w.uvarint(kGroups + 50 + 200);
  for (std::uint64_t k = kGroups; k-- > 0;) {
    w.uvarint(1);
    w.uvarint((kLast - 2 - k) / kGroups + 1);
    w.uvarint(2 + k);
    for (std::uint64_t c = 2 + k + kGroups; c <= kLast; c += kGroups)
      w.uvarint(kGroups);
  }
  for (std::uint64_t j = 0; j < 50; ++j) {
    // Twenty counters counting down from 20j + 20: together 1..1000,
    // which folds into author 2's prefix once sorted.
    w.uvarint(2);
    w.uvarint(20);
    w.uvarint(20 * j + 20);
    for (int k = 1; k < 20; ++k) w.uvarint(kWrapDown);
  }
  for (std::uint64_t j = 0; j < 200; ++j) {
    const std::uint64_t author = 5000 - j;
    w.uvarint(author);
    w.uvarint(4);
    for (const std::uint64_t delta : {7, 0, 0, 1}) w.uvarint(delta);
    others.emplace(author, 7);
    others.emplace(author, 8);
  }
  ASSERT_LE(w.size(), 1u << 20);

  const auto start = std::chrono::steady_clock::now();
  ByteReader r(w.bytes());
  r.set_element_budget(1u << 20);  // ResourceLimits::max_decode_elements
  const VersionSet got = VersionSet::deserialize(r);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.done());

  VersionSet want;
  want.add_prefix(ReplicaId(2), 1000);
  for (std::uint64_t c = 2; c <= kLast; ++c) want.add(ReplicaId(1), c);
  for (const auto& [a, c] : others) want.add(ReplicaId(a), c);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.extras_count(), kLast - 1 + others.size());
  EXPECT_EQ(got.vector_part().max_counter(ReplicaId(2)), 1000u);
  EXPECT_FALSE(got.contains(ReplicaId(1), 1));
  // Generous even for sanitizer builds; a quadratic decoder misses it
  // by an order of magnitude.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

/// merge() is one linear pass per author: two interleaved sets of
/// 65,536 extras each (max_knowledge_entries) union exactly, the
/// receiver's pins stay pinned and the peer's claims arrive plain.
TEST(VersionSetCodec, MergeOfInterleavedCapSizedSetsIsTheirUnion) {
  constexpr std::uint64_t kEach = 65536;
  VersionSet evens, odds;
  for (std::uint64_t i = 1; i <= kEach; ++i) {
    evens.add(ReplicaId(1), 2 * i, /*pinned=*/i % 2 == 0);
    odds.add(ReplicaId(1), 2 * i + 1, /*pinned=*/i % 3 == 0);
  }
  VersionSet merged = evens;
  merged.merge(odds);
  EXPECT_EQ(merged.extras_count(), 2 * kEach);
  EXPECT_EQ(merged.vector_part().max_counter(ReplicaId(1)), 0u);
  EXPECT_TRUE(merged.contains_all(evens));
  EXPECT_TRUE(merged.contains_all(odds));
  EXPECT_FALSE(merged.contains(ReplicaId(1), 1));
  EXPECT_FALSE(merged.contains(ReplicaId(1), 2 * kEach + 2));
  // Pinned-ness: the receiver's own pins survive; a merged claim is a
  // plain extra even where the peer had pinned it.
  EXPECT_FALSE(merged.pin(ReplicaId(1), 1));
  EXPECT_TRUE(merged.remove_extra(ReplicaId(1), 4));   // pinned here
  EXPECT_TRUE(merged.pin(ReplicaId(1), 7));            // pinned there
  EXPECT_TRUE(merged.pin(ReplicaId(1), 3));            // plain there
  merged.add(ReplicaId(1), 4);

  // Merging is idempotent and the union's wire form is its members.
  VersionSet again = merged;
  again.merge(odds);
  again.merge(evens);
  EXPECT_EQ(again, merged);
  ByteWriter w;
  merged.serialize(w);
  ByteReader r(w.bytes());
  const VersionSet decoded = VersionSet::deserialize(r);
  EXPECT_EQ(decoded.event_count(), 2 * kEach);
  EXPECT_TRUE(decoded.contains_all(merged));

  // Filling the one gap folds everything unpinned up to the first pin;
  // unpinning that one folds on to the next (7).
  merged.add(ReplicaId(1), 1);
  EXPECT_EQ(merged.vector_part().max_counter(ReplicaId(1)), 2u);
  merged.unpin(ReplicaId(1), 3);
  EXPECT_EQ(merged.vector_part().max_counter(ReplicaId(1)), 6u);
}

}  // namespace
}  // namespace pfrdtn::repl
