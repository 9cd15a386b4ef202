#include "repl/sync.hpp"

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

/// `value` after one trip through its wire codec.
template <typename T>
T reencoded(const T& value) {
  ByteWriter w;
  value.serialize(w);
  ByteReader r(w.bytes());
  return T::deserialize(r);
}

/// A policy that forwards everything at Normal priority, counting its
/// callback invocations.
class ForwardAll : public ForwardingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "all"; }
  std::vector<std::uint8_t> generate_request(
      const SyncContext&) override {
    ++requests_generated;
    return {0xAB, 0xCD};
  }
  void process_request(
      const SyncContext&,
      const std::vector<std::uint8_t>& routing_state) override {
    last_request = routing_state;
  }
  Priority to_send(const SyncContext&, TransientView) override {
    return Priority::at(PriorityClass::Normal);
  }
  void on_forward(const SyncContext&, TransientView,
                  TransientView) override {
    ++forwards;
  }

  int requests_generated = 0;
  int forwards = 0;
  std::vector<std::uint8_t> last_request;
};

TEST(Sync, FilterMatchingItemsTransfer) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {'m'});
  const auto result = run_sync(src, dst, nullptr, nullptr, SimTime(0));
  EXPECT_EQ(result.stats.items_sent, 1u);
  EXPECT_EQ(result.stats.items_new, 1u);
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_GT(result.stats.request_bytes, 0u);
  EXPECT_GT(result.stats.batch_bytes, 0u);
}

TEST(Sync, NonMatchingItemsStayWithoutPolicy) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(7), {});
  const auto result = run_sync(src, dst, nullptr, nullptr, SimTime(0));
  EXPECT_EQ(result.stats.items_sent, 0u);
  EXPECT_EQ(dst.store().size(), 0u);
}

TEST(Sync, AtMostOnceAcrossRepeatedSyncs) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {});
  auto first = run_sync(src, dst, nullptr, nullptr, SimTime(0));
  EXPECT_EQ(first.stats.items_new, 1u);
  for (int i = 0; i < 3; ++i) {
    const auto again = run_sync(src, dst, nullptr, nullptr, SimTime(i));
    EXPECT_EQ(again.stats.items_sent, 0u) << "duplicate transmission";
  }
}

TEST(Sync, PolicyExtrasAreTransferred) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(7), {});  // matches neither filter
  ForwardAll src_policy;
  ForwardAll dst_policy;
  const auto result =
      run_sync(src, dst, &src_policy, &dst_policy, SimTime(0));
  EXPECT_EQ(result.stats.items_sent, 1u);
  EXPECT_TRUE(result.delivered.empty());  // out-of-filter at target
  EXPECT_EQ(dst.store().relay_count(), 1u);
  EXPECT_EQ(dst_policy.requests_generated, 1);
  EXPECT_EQ(src_policy.forwards, 1);
  EXPECT_EQ(src_policy.last_request,
            (std::vector<std::uint8_t>{0xAB, 0xCD}));
}

TEST(Sync, OnForwardSkippedForFilterMatches) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {});
  ForwardAll policy;
  run_sync(src, dst, &policy, nullptr, SimTime(0));
  EXPECT_EQ(policy.forwards, 0);  // matching items bypass the policy
}

TEST(Sync, BandwidthCapTruncatesAndMarksIncomplete) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  for (int i = 0; i < 5; ++i) src.create(to(9), {});
  SyncOptions options;
  options.max_items = 2;
  const auto result =
      run_sync(src, dst, nullptr, nullptr, SimTime(0), options);
  EXPECT_EQ(result.stats.items_sent, 2u);
  EXPECT_FALSE(result.stats.complete);
  // The remaining messages arrive on later syncs.
  const auto rest = run_sync(src, dst, nullptr, nullptr, SimTime(1));
  EXPECT_EQ(rest.stats.items_sent, 3u);
  EXPECT_TRUE(rest.stats.complete);
}

TEST(Sync, TruncatingOnlyPolicyExtrasStaysComplete) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {});  // one matching
  src.create(to(7), {});  // extras via policy
  src.create(to(7), {});
  ForwardAll policy;
  SyncOptions options;
  options.max_items = 2;
  const auto result =
      run_sync(src, dst, &policy, nullptr, SimTime(0), options);
  EXPECT_EQ(result.stats.items_sent, 2u);
  EXPECT_TRUE(result.stats.complete);  // all matching items included
  // Matching item sorts first (Highest class).
  ASSERT_FALSE(result.delivered.empty());
}

TEST(Sync, IncompleteSyncDoesNotLearnKnowledge) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  for (int i = 0; i < 3; ++i) src.create(to(9), {});
  SyncOptions options;
  options.max_items = 1;
  run_sync(src, dst, nullptr, nullptr, SimTime(0), options);
  // dst must not believe it knows the withheld items.
  std::size_t unknown = 0;
  src.store().for_each([&](const ItemStore::Entry& entry) {
    if (!dst.knowledge().knows(entry.item, entry.item.version()))
      ++unknown;
  });
  EXPECT_EQ(unknown, 2u);
}

TEST(Sync, CompleteSyncLearnsScopedKnowledge) {
  Replica a = make_replica(1, 5);
  Replica b = make_replica(2, 9);
  Replica c = make_replica(3, 9);  // same interest as b
  const Item& m = a.create(to(9), {});
  run_sync(a, b, nullptr, nullptr, SimTime(0));
  // b -> c: c learns b's knowledge scoped to address 9, including the
  // exact event, so a later a -> c sync sends nothing new... but the
  // item itself transfers from b. Verify no duplicate from a:
  run_sync(b, c, nullptr, nullptr, SimTime(1));
  const auto from_a = run_sync(a, c, nullptr, nullptr, SimTime(2));
  EXPECT_EQ(from_a.stats.items_sent, 0u);
  EXPECT_TRUE(c.knowledge().knows(m, m.version()));
}

TEST(Sync, LearnKnowledgeCanBeDisabled) {
  Replica a = make_replica(1, 5);
  Replica b = make_replica(2, 9);
  a.create(to(9), {});
  SyncOptions options;
  options.learn_knowledge = false;
  run_sync(a, b, nullptr, nullptr, SimTime(0), options);
  // b still received and exact-knows the item, but learned no scoped
  // fragments.
  EXPECT_TRUE(b.knowledge().fragments().empty());
}

TEST(Sync, PriorityOrderingWithinBatch) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  const ItemId low = src.create(to(7), {}).id();
  const ItemId match = src.create(to(9), {}).id();
  const ItemId high = src.create(to(8), {}).id();

  class Ranked : public ForwardingPolicy {
   public:
    explicit Ranked(ItemId high) : high_(high) {}
    [[nodiscard]] std::string name() const override { return "ranked"; }
    Priority to_send(const SyncContext&, TransientView v) override {
      return v.item().id() == high_
                 ? Priority::at(PriorityClass::High)
                 : Priority::at(PriorityClass::Low);
    }

   private:
    ItemId high_;
  } policy(high);

  // Capture arrival order at the target via arrival_seq.
  run_sync(src, dst, &policy, nullptr, SimTime(0));
  std::vector<ItemId> order;
  dst.store().for_each([&](const ItemStore::Entry& entry) {
    order.push_back(entry.item.id());
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], match);  // Highest: filter match
  EXPECT_EQ(order[1], high);
  EXPECT_EQ(order[2], low);
}

TEST(Sync, CostBreaksTiesWithinClass) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  const ItemId first = src.create(to(7), {}).id();
  const ItemId second = src.create(to(8), {}).id();

  class Costed : public ForwardingPolicy {
   public:
    explicit Costed(ItemId cheap) : cheap_(cheap) {}
    [[nodiscard]] std::string name() const override { return "cost"; }
    Priority to_send(const SyncContext&, TransientView v) override {
      return Priority::at(PriorityClass::Normal,
                          v.item().id() == cheap_ ? 1.0 : 2.0);
    }

   private:
    ItemId cheap_;
  } policy(second);

  SyncOptions options;
  options.max_items = 1;
  run_sync(src, dst, &policy, nullptr, SimTime(0), options);
  EXPECT_FALSE(dst.store().contains(first));
  EXPECT_TRUE(dst.store().contains(second));  // lower cost won the slot
}

TEST(Sync, PolicyMayNotClaimHighestClass) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(7), {});
  class Cheater : public ForwardingPolicy {
   public:
    [[nodiscard]] std::string name() const override { return "cheat"; }
    Priority to_send(const SyncContext&, TransientView) override {
      return Priority::at(PriorityClass::Highest);
    }
  } policy;
  EXPECT_THROW(run_sync(src, dst, &policy, nullptr, SimTime(0)),
               ContractViolation);
}

TEST(Sync, TombstonePropagatesAndClearsContent) {
  Replica a = make_replica(1, 5);
  Replica b = make_replica(2, 9);
  const ItemId id = a.create(to(9), {'x'}).id();
  run_sync(a, b, nullptr, nullptr, SimTime(0));
  a.erase(id);
  const auto result = run_sync(a, b, nullptr, nullptr, SimTime(1));
  EXPECT_EQ(result.stats.items_new, 1u);
  EXPECT_TRUE(b.store().find(id)->item.deleted());
  EXPECT_TRUE(b.store().find(id)->item.body().empty());
}

TEST(Sync, ConcurrentUpdatesConvergeDeterministically) {
  Replica a = make_replica(1, 9);
  Replica b = make_replica(2, 9);
  const ItemId id = a.create(to(9), {'0'}).id();
  run_sync(a, b, nullptr, nullptr, SimTime(0));
  // Diverge.
  a.update(id, to(9), {'a'});
  b.update(id, to(9), {'b'});
  // Exchange both ways (two syncs, as in an encounter).
  run_sync(a, b, nullptr, nullptr, SimTime(1));
  run_sync(b, a, nullptr, nullptr, SimTime(1));
  const auto& body_a = a.store().find(id)->item.body();
  const auto& body_b = b.store().find(id)->item.body();
  EXPECT_EQ(body_a, body_b);
  // Same revision; the higher replica id wins the tie.
  EXPECT_EQ(body_a, std::vector<std::uint8_t>{'b'});
}

TEST(Sync, FactoredStepsMatchRunSync) {
  Replica src_a = make_replica(1, 5);
  Replica dst_a = make_replica(2, 9);
  Replica src_b = make_replica(1, 5);
  Replica dst_b = make_replica(2, 9);
  for (Replica* src : {&src_a, &src_b}) {
    src->create(to(9), {'x'});
    src->create(to(9), {'y', 'y'});
    src->create(to(3), {'z'});
  }

  const auto whole = run_sync(src_a, dst_a, nullptr, nullptr, SimTime(0));

  const SyncRequest request =
      make_request(dst_b, nullptr, src_b.id(), SimTime(0));
  const SyncBatch batch = build_batch(src_b, nullptr, request, SimTime(0));
  BatchApplier applier(dst_b, {});
  for (const Item& item : batch.items) applier.apply(item);
  const auto stepped =
      applier.finish(batch.complete, batch.source_knowledge);

  EXPECT_EQ(whole.stats.items_sent, stepped.stats.items_sent);
  EXPECT_EQ(whole.stats.items_new, stepped.stats.items_new);
  EXPECT_EQ(whole.stats.complete, stepped.stats.complete);
  EXPECT_EQ(whole.delivered.size(), stepped.delivered.size());
  EXPECT_EQ(dst_a.store().size(), dst_b.store().size());
  EXPECT_EQ(dst_a.knowledge().fragments().size(),
            dst_b.knowledge().fragments().size());
}

TEST(Sync, BatchApplierAbandonKeepsAppliedPrefix) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {'a'});
  src.create(to(9), {'b'});

  const SyncRequest request =
      make_request(dst, nullptr, src.id(), SimTime(0));
  const SyncBatch batch = build_batch(src, nullptr, request, SimTime(0));
  ASSERT_EQ(batch.items.size(), 2u);

  BatchApplier applier(dst, {});
  applier.apply(batch.items[0]);
  const auto result = applier.abandon();

  EXPECT_FALSE(result.stats.complete);
  EXPECT_EQ(result.stats.items_sent, 1u);
  EXPECT_EQ(result.stats.items_new, 1u);
  EXPECT_EQ(dst.store().size(), 1u);
  // Knowledge must not be learned from an abandoned sync.
  EXPECT_TRUE(dst.knowledge().fragments().empty());
  EXPECT_EQ(dst.check_invariants(), "");
}

TEST(Sync, BatchApplierFinishMatchesApplyBatch) {
  Replica src = make_replica(1, 5);
  Replica dst_a = make_replica(2, 9);
  Replica dst_b = make_replica(2, 9);
  src.create(to(9), {'q'});

  const SyncRequest request =
      make_request(dst_a, nullptr, src.id(), SimTime(0));
  const SyncBatch batch = build_batch(src, nullptr, request, SimTime(0));

  // The batch as its frames carry it: each item and the source
  // knowledge decoded from its own payload.
  BatchApplier wire(dst_a, {});
  for (const Item& item : batch.items) wire.apply(reencoded(item));
  const auto whole =
      wire.finish(batch.complete, reencoded(batch.source_knowledge));
  BatchApplier applier(dst_b, {});
  for (const Item& item : batch.items) applier.apply(item);
  const auto stepped =
      applier.finish(batch.complete, batch.source_knowledge);

  EXPECT_EQ(whole.stats.items_new, stepped.stats.items_new);
  EXPECT_EQ(whole.stats.complete, stepped.stats.complete);
  EXPECT_EQ(dst_a.knowledge().fragments().size(),
            dst_b.knowledge().fragments().size());
}

TEST(Sync, WireSizeCountsFramedBytes) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {'w'});
  const auto result = run_sync(src, dst, nullptr, nullptr, SimTime(0));
  // Every reported byte count includes at least one frame header.
  EXPECT_GE(result.stats.request_bytes, kFrameHeaderSize);
  // Batch = begin + one item + end frames.
  EXPECT_GE(result.stats.batch_bytes, 3 * kFrameHeaderSize);
}

TEST(Sync, ReadOnlyTargetRefusalIsThrown) {
  Replica src = make_replica(1, 5);
  Replica dst = make_replica(2, 9);
  src.create(to(9), {'m'});
  dst.set_read_only(true);
  EXPECT_THROW(run_sync(src, dst, nullptr, nullptr, SimTime(0)),
               ReadOnlyError);
  EXPECT_EQ(dst.store().size(), 0u);
  EXPECT_TRUE(dst.knowledge().fragments().empty());
}

TEST(Sync, StatsAccumulate) {
  SyncStats a;
  a.items_sent = 2;
  a.request_bytes = 10;
  SyncStats b;
  b.items_sent = 3;
  b.batch_bytes = 7;
  b.complete = false;
  a.accumulate(b);
  EXPECT_EQ(a.items_sent, 5u);
  EXPECT_EQ(a.request_bytes, 10u);
  EXPECT_EQ(a.batch_bytes, 7u);
  EXPECT_FALSE(a.complete);
}

}  // namespace
}  // namespace pfrdtn::repl
