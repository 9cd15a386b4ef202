/// Unit coverage for the knowledge-summary machinery behind the
/// sub-linear anti-entropy fast path: the Bloom filter (no false
/// negatives ever, false-positive rate in the tuned ballpark, codec
/// hardened against malformed input), the revision-keyed digest and
/// Bloom caches on Knowledge (precise bumps: no-op mutations must not
/// invalidate a warm cache), and the summarize() inclusion rule that
/// keeps summaries strictly smaller than the exact knowledge.

#include "repl/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "repl/filter.hpp"
#include "util/rng.hpp"

namespace pfrdtn::repl {
namespace {

TEST(BloomFilter, NeverForgetsAnInsertedEvent) {
  BloomFilter filter = BloomFilter::sized_for(1000);
  Rng rng(1);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> events;
  for (int i = 0; i < 1000; ++i) {
    events.emplace_back(1 + rng.below(50), 1 + rng.below(1u << 20));
    filter.insert(ReplicaId(events.back().first), events.back().second);
  }
  for (const auto& [author, counter] : events) {
    EXPECT_TRUE(filter.maybe_contains(ReplicaId(author), counter))
        << "false negative for (" << author << ", " << counter << ")";
  }
}

TEST(BloomFilter, FalsePositiveRateNearTheTunedTarget) {
  // 10 bits/element with 7 hashes targets ~0.8% false positives
  // (Marandi et al.); allow generous slack for hash-quality noise.
  BloomFilter filter = BloomFilter::sized_for(1000);
  for (std::uint64_t c = 1; c <= 1000; ++c)
    filter.insert(ReplicaId(7), c);
  std::size_t hits = 0;
  const std::size_t probes = 20000;
  for (std::size_t i = 0; i < probes; ++i) {
    // Authors never inserted: every hit is a false positive.
    if (filter.maybe_contains(ReplicaId(1000 + i), i + 1)) ++hits;
  }
  const double rate = static_cast<double>(hits) / probes;
  EXPECT_LT(rate, 0.05) << "false-positive rate " << rate;
  EXPECT_GT(rate, 0.0001) << "implausibly perfect filter (hash bug?)";
}

TEST(BloomFilter, OptimalHashCountFollowsLn2Rule) {
  // k = round(ln2 * m/n) minimizes the false-positive rate at m/n bits
  // per element (Marandi et al.): round(6.93) = 7 at 10 bits.
  EXPECT_EQ(kBloomHashCount,
            std::lround(std::log(2.0) * kBloomBitsPerElement));
  const BloomFilter filter = BloomFilter::sized_for(100);
  EXPECT_EQ(filter.hash_count(), kBloomHashCount);
  EXPECT_EQ(filter.bit_count(), 100u * kBloomBitsPerElement);
}

TEST(BloomFilter, CodecRoundTripsExactly) {
  BloomFilter filter = BloomFilter::sized_for(64);
  for (std::uint64_t c = 1; c <= 64; ++c)
    filter.insert(ReplicaId(c % 5 + 1), c);
  ByteWriter w;
  filter.serialize(w);
  ByteReader r(w.bytes());
  const BloomFilter copy = BloomFilter::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(copy, filter);
}

TEST(BloomFilter, DecoderRejectsStructurallyInvalidEncodings) {
  const auto reject = [](const std::function<void(ByteWriter&)>& emit) {
    ByteWriter w;
    emit(w);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)BloomFilter::deserialize(r), ContractViolation);
  };
  // Zero hash count.
  reject([](ByteWriter& w) {
    w.u8(0);
    w.uvarint(8);
    w.raw(std::vector<std::uint8_t>(1, 0));
  });
  // Hash count over the decode ceiling.
  reject([](ByteWriter& w) {
    w.u8(33);
    w.uvarint(8);
    w.raw(std::vector<std::uint8_t>(1, 0));
  });
  // Zero bits.
  reject([](ByteWriter& w) {
    w.u8(7);
    w.uvarint(0);
  });
  // bit_count chosen so (bit_count + 7) / 8 wraps to 0 in 64 bits: the
  // decoder must reject it before the length check can be fooled.
  reject([](ByteWriter& w) {
    w.u8(7);
    w.uvarint(0xffffffffffffffffull);
  });
  // Bit/byte length mismatch.
  reject([](ByteWriter& w) {
    w.u8(7);
    w.uvarint(64);
    w.raw(std::vector<std::uint8_t>(3, 0));
  });
}

Knowledge small_knowledge() {
  Knowledge k;
  k.add_authored_prefix(ReplicaId(3), 5);
  k.add_exact(Version{ReplicaId(9), 44, 2});
  k.add_exact_pinned(Version{ReplicaId(5), 8, 1});
  return k;
}

/// `events` scattered events: counters 2^20 apart never compact into
/// the vector prefix, so each one stays an extra and costs several
/// exact-codec bytes.
Knowledge scattered_knowledge(std::uint64_t events) {
  Knowledge k;
  for (std::uint64_t i = 1; i <= events; ++i)
    k.add_exact(Version{ReplicaId(7), i << 20, 1});
  return k;
}

TEST(KnowledgeRevision, MutationsBumpAndNoOpsDoNot) {
  Knowledge k;
  const std::uint64_t fresh = k.revision();
  k.add_exact(Version{ReplicaId(9), 44, 2});
  const std::uint64_t after_add = k.revision();
  EXPECT_GT(after_add, fresh);
  // Re-adding a known event is a no-op and must not invalidate caches.
  k.add_exact(Version{ReplicaId(9), 44, 2});
  EXPECT_EQ(k.revision(), after_add);
  k.add_authored_prefix(ReplicaId(9), 44);
  const std::uint64_t after_prefix = k.revision();
  EXPECT_GT(after_prefix, after_add);
  // A shorter or equal prefix is already covered: no bump.
  k.add_authored_prefix(ReplicaId(9), 40);
  k.add_authored_prefix(ReplicaId(9), 44);
  EXPECT_EQ(k.revision(), after_prefix);
}

TEST(KnowledgeRevision, NoOpScopedMergeKeepsCachesWarm) {
  // The converged steady state: learning knowledge you already hold
  // must not bump the revision, or every sync would recompute the
  // digest and the "O(1) when converged" claim dies.
  Knowledge k = small_knowledge();
  Knowledge peer = small_knowledge();
  const std::uint64_t digest = k.wire_digest();
  const std::uint64_t revision = k.revision();
  k.merge_scoped(peer, Filter::all());
  EXPECT_EQ(k.revision(), revision);
  EXPECT_EQ(k.wire_digest(), digest);
}

TEST(KnowledgeDigest, EqualsIffWireBytesEqual) {
  Knowledge a = small_knowledge();
  Knowledge b = small_knowledge();
  EXPECT_EQ(a.wire_digest(), b.wire_digest());
  b.add_exact(Version{ReplicaId(2), 1, 1});
  EXPECT_NE(a.wire_digest(), b.wire_digest());
  ByteWriter wa;
  a.serialize(wa);
  ByteWriter wb;
  b.serialize(wb);
  EXPECT_NE(wa.bytes(), wb.bytes());
}

TEST(KnowledgeBloom, CachedPerRevision) {
  Knowledge k = scattered_knowledge(8);
  const auto first = k.bloom();
  ASSERT_NE(first, nullptr);
  // Same revision: the cached filter object is reused.
  EXPECT_EQ(k.bloom(), first);
  // A mutation invalidates the cache.
  k.add_exact(Version{ReplicaId(7), 100, 1});
  const auto rebuilt = k.bloom();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt, first);
  EXPECT_TRUE(rebuilt->maybe_contains(ReplicaId(7), 100));
  EXPECT_EQ(k.bloom(), rebuilt);
}

TEST(KnowledgeBloom, CoversEveryKnownEvent) {
  Knowledge k = small_knowledge();
  const auto bloom = k.bloom();
  ASSERT_NE(bloom, nullptr);
  std::size_t events = 0;
  k.universal().for_each_event([&](ReplicaId author, std::uint64_t c) {
    ++events;
    EXPECT_TRUE(bloom->maybe_contains(author, c));
  });
  EXPECT_EQ(events, k.event_count());
  EXPECT_GT(events, 0u);
}

TEST(Summarize, SmallKnowledgeShipsDigestPlusBloom) {
  const Knowledge k = small_knowledge();
  const KnowledgeSummary summary = summarize(k);
  EXPECT_EQ(summary.digest, k.wire_digest());
  ASSERT_TRUE(summary.bloom.has_value());
  EXPECT_LT(summary.bloom->byte_size(), k.size_bytes());
}

TEST(Summarize, InclusionRuleDropsTheBloomWhenItCannotPay) {
  // The largest filter under the byte cap: 409 events x 10 bits fill
  // 512 bytes, and the scattered events' exact encoding is bigger.
  const std::uint64_t at_cap = kMaxBloomBytes * 8 / kBloomBitsPerElement;
  const Knowledge fits = scattered_knowledge(at_cap);
  ASSERT_GT(fits.size_bytes(), kMaxBloomBytes);
  const KnowledgeSummary shipped = summarize(fits);
  ASSERT_TRUE(shipped.bloom.has_value());
  EXPECT_EQ(shipped.bloom->byte_size(), kMaxBloomBytes);
  // One event more and the filter would exceed the byte cap, although
  // it would still undercut the exact encoding.
  const Knowledge over_cap = scattered_knowledge(at_cap + 1);
  ASSERT_GT(over_cap.size_bytes(), kMaxBloomBytes + 1);
  EXPECT_FALSE(summarize(over_cap).bloom.has_value());
  // More events than the element cap: no filter is even built.
  const Knowledge crowded = scattered_knowledge(kMaxBloomElements + 1);
  EXPECT_FALSE(summarize(crowded).bloom.has_value());
  // A filter under the byte cap that does not undercut the exact
  // encoding: a 400-event prefix encodes in a few bytes.
  Knowledge prefix;
  prefix.add_authored_prefix(ReplicaId(3), 400);
  ASSERT_EQ(prefix.event_count(), 400u);
  ASSERT_LT(prefix.size_bytes(), BloomFilter::sized_for(400).byte_size());
  EXPECT_FALSE(summarize(prefix).bloom.has_value());
  // The digest always ships regardless.
  EXPECT_EQ(summarize(over_cap).digest, over_cap.wire_digest());
  EXPECT_EQ(summarize(crowded).digest, crowded.wire_digest());
  EXPECT_EQ(summarize(prefix).digest, prefix.wire_digest());
}

TEST(Summarize, SummaryCodecRoundTripsWithAndWithoutBloom) {
  Knowledge prefix;
  prefix.add_authored_prefix(ReplicaId(3), 400);
  for (const bool with_bloom : {true, false}) {
    const KnowledgeSummary summary =
        summarize(with_bloom ? small_knowledge() : prefix);
    ASSERT_EQ(summary.bloom.has_value(), with_bloom);
    ByteWriter w;
    summary.serialize(w);
    ByteReader r(w.bytes());
    const KnowledgeSummary copy = KnowledgeSummary::deserialize(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(copy, summary);
  }
}

TEST(Summarize, EqualKnowledgeMeansEqualSummaries) {
  const KnowledgeSummary a = summarize(small_knowledge());
  const KnowledgeSummary b = summarize(small_knowledge());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pfrdtn::repl
