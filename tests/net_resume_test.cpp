/// Regression coverage for resuming a target after a mid-contact cut:
/// a second, unconstrained contact must transfer exactly the items the
/// first one lost, and the two contacts' byte accounting must add up to
/// one uninterrupted sync plus the retransmitted partial item and the
/// second batch header — nothing double-counted, nothing lost.

#include <gtest/gtest.h>

#include "net/session.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::Replica;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

/// Source holding four same-size items for the target's address, so
/// every BatchItem frame has the same wire size and cut math is exact.
struct ResumeWorld {
  Replica source;
  Replica target;

  ResumeWorld()
      : source(ReplicaId(1), Filter::addresses({HostId(5)})),
        target(ReplicaId(2), Filter::addresses({HostId(9)})) {
    for (char body : {'a', 'b', 'c', 'd'}) {
      source.create(to(9), {static_cast<std::uint8_t>(body)});
    }
  }
};

TEST(ResumeSync, CutThenResumeAccountsEveryByteExactlyOnce) {
  // Baseline: one uninterrupted sync.
  ResumeWorld uninterrupted;
  const auto baseline =
      sync_over_loopback(uninterrupted.source, uninterrupted.target,
                         nullptr, nullptr, SimTime(0), {}, {});
  ASSERT_FALSE(baseline.client.transport_failed);
  ASSERT_EQ(baseline.client.result.stats.items_new, 4u);

  // Measure the exact frame sizes of the same exchange.
  ResumeWorld measured;
  const repl::SyncRequest request = repl::make_request(
      measured.target, nullptr, measured.source.id(), SimTime(0));
  const repl::SyncBatch batch = repl::build_batch(
      measured.source, nullptr, request, SimTime(0), {});
  ASSERT_EQ(batch.items.size(), 4u);
  ByteWriter request_payload;
  request.serialize(request_payload);
  const std::size_t request_bytes = framed_size(request_payload.size());
  const std::size_t begin_bytes =
      framed_size(repl::encode_batch_begin(batch).size());
  std::vector<std::size_t> item_bytes;
  for (const repl::Item& item : batch.items) {
    ByteWriter w;
    item.serialize(w);
    item_bytes.push_back(framed_size(w.bytes().size()));
  }
  ASSERT_EQ(item_bytes[0], item_bytes[2]);  // same-size items, by design

  // Contact 1: the link dies halfway through the third item frame.
  const std::size_t cut_budget = request_bytes + begin_bytes +
                                 item_bytes[0] + item_bytes[1] +
                                 item_bytes[2] / 2;
  ResumeWorld world;
  LoopbackFaults faults;
  faults.cut_after_bytes = cut_budget;
  const auto cut = sync_over_loopback(world.source, world.target,
                                      nullptr, nullptr, SimTime(0), {},
                                      faults);
  const auto& cut_stats = cut.client.result.stats;
  EXPECT_TRUE(cut.client.transport_failed);
  EXPECT_FALSE(cut_stats.complete);
  EXPECT_EQ(cut_stats.items_new, 2u);  // only whole frames applied
  // The partial prefix of item 3 was delivered (and burned contact
  // time) but is *not* in batch_bytes: only whole frames count.
  EXPECT_EQ(cut.bytes_delivered, cut_budget);
  EXPECT_EQ(cut_stats.batch_bytes,
            begin_bytes + item_bytes[0] + item_bytes[1]);
  EXPECT_TRUE(world.target.knowledge().fragments().empty());

  // Contact 2: a fresh session on the same pair resumes cleanly.
  const auto resume = sync_over_loopback(world.source, world.target,
                                         nullptr, nullptr, SimTime(1),
                                         {}, {});
  const auto& resume_stats = resume.client.result.stats;
  ASSERT_FALSE(resume.client.transport_failed);
  EXPECT_TRUE(resume_stats.complete);
  // Exactly the two missing items travel; the applied prefix is
  // excluded by the resumed request, not re-sent and re-rejected.
  EXPECT_EQ(resume_stats.items_sent, 2u);
  EXPECT_EQ(resume_stats.items_new, 2u);
  EXPECT_EQ(resume_stats.items_stale, 0u);

  // Batch accounting: both contacts together cost one uninterrupted
  // batch plus the second BatchBegin header — the cut item's partial
  // prefix was never counted, its retransmission is counted once.
  EXPECT_EQ(cut_stats.batch_bytes + resume_stats.batch_bytes,
            baseline.client.result.stats.batch_bytes + begin_bytes);

  // Link-level accounting closes too: everything the two contacts
  // delivered is the baseline exchange, plus the wasted partial
  // prefix, plus the second request and second batch header.
  const std::size_t partial_prefix =
      cut_budget -
      (request_bytes + begin_bytes + item_bytes[0] + item_bytes[1]);
  EXPECT_EQ(cut.bytes_delivered + resume.bytes_delivered,
            baseline.bytes_delivered + partial_prefix +
                resume_stats.request_bytes + begin_bytes);

  // And the resumed target ends bit-identical to the uninterrupted
  // one: same items, same knowledge.
  const auto snapshot = [](const Replica& replica) {
    ByteWriter w;
    replica.store().for_each([&](const repl::ItemStore::Entry& entry) {
      entry.item.serialize(w);
    });
    replica.knowledge().serialize(w);
    return w.take();
  };
  EXPECT_EQ(snapshot(world.target), snapshot(uninterrupted.target));
  EXPECT_EQ(world.target.check_invariants(), "");
}

}  // namespace
}  // namespace pfrdtn::net
