/// Encounter mode over the loopback transport: both roles alternate on
/// one contact (a pulls from b, then b pulls from a) and every metric
/// matches two single syncs (repl::run_sync, one link each) run in the
/// same order — stats, delivered items, and final replica state.

#include <gtest/gtest.h>

#include "net/session.hpp"
#include "util/hash.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::ForwardingPolicy;
using repl::Priority;
using repl::PriorityClass;
using repl::Replica;
using repl::SyncContext;
using repl::SyncOptions;
using repl::TransientView;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

/// Forward everything and mutate per-copy state, so parity covers the
/// policy callbacks in both directions of the encounter.
class ForwardAll : public ForwardingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "all"; }
  Priority to_send(const SyncContext&, TransientView) override {
    return Priority::at(PriorityClass::Normal);
  }
  void on_forward(const SyncContext&, TransientView stored,
                  TransientView outgoing) override {
    stored.set_int("hops", stored.get_int("hops").value_or(0) + 1);
    outgoing.set_int("hops", stored.get_int("hops").value_or(0));
  }
};

/// Two replicas with traffic flowing both ways plus relay extras.
struct World {
  Replica a;
  Replica b;
  ForwardAll a_policy;
  ForwardAll b_policy;

  World()
      : a(ReplicaId(1), Filter::addresses({HostId(5)})),
        b(ReplicaId(2), Filter::addresses({HostId(9)})) {
    a.create(to(9), {'x'});       // delivered b-ward
    a.create(to(7), {'r'});       // relay extra for b
    b.create(to(5), {'y'});       // delivered a-ward
    b.create(to(5), {'z', 'z'});  // delivered a-ward
    b.create(to(3), {'q'});       // relay extra for a
  }
};

std::vector<std::uint8_t> snapshot(const Replica& replica) {
  ByteWriter w;
  replica.store().for_each([&](const repl::ItemStore::Entry& entry) {
    entry.item.serialize(w);
    for (const auto& [key, value] : entry.item.transient_all()) {
      w.str(key);
      w.str(value);
    }
  });
  replica.knowledge().serialize(w);
  return w.take();
}

void expect_same_stats(const repl::SyncStats& direct,
                       const repl::SyncStats& wire) {
  EXPECT_EQ(direct.items_sent, wire.items_sent);
  EXPECT_EQ(direct.items_new, wire.items_new);
  EXPECT_EQ(direct.items_stale, wire.items_stale);
  EXPECT_EQ(direct.evictions, wire.evictions);
  EXPECT_EQ(direct.request_bytes, wire.request_bytes);
  EXPECT_EQ(direct.batch_bytes, wire.batch_bytes);
  EXPECT_EQ(direct.complete, wire.complete);
}

void run_parity_check(const SyncOptions& options) {
  World wire_world;
  const auto wire = encounter_over_loopback(
      wire_world.a, wire_world.b, &wire_world.a_policy,
      &wire_world.b_policy, SimTime(0), options, {});
  ASSERT_FALSE(wire.a_pulled.transport_failed);
  ASSERT_FALSE(wire.b_applied.transport_failed);

  // Two single syncs, one link each, in the same order: a pulls from
  // b, then b pulls from a on the updated state.
  World direct_world;
  const auto direct_pull = repl::run_sync(
      direct_world.b, direct_world.a, &direct_world.b_policy,
      &direct_world.a_policy, SimTime(0), options);
  const auto direct_push = repl::run_sync(
      direct_world.a, direct_world.b, &direct_world.a_policy,
      &direct_world.b_policy, SimTime(0), options);

  expect_same_stats(direct_pull.stats, wire.a_pulled.result.stats);
  expect_same_stats(direct_push.stats, wire.b_applied.result.stats);
  EXPECT_EQ(direct_pull.delivered.size(),
            wire.a_pulled.result.delivered.size());
  EXPECT_EQ(direct_push.delivered.size(),
            wire.b_applied.result.delivered.size());
  EXPECT_EQ(snapshot(direct_world.a), snapshot(wire_world.a));
  EXPECT_EQ(snapshot(direct_world.b), snapshot(wire_world.b));
  EXPECT_EQ(wire_world.a.check_invariants(), "");
  EXPECT_EQ(wire_world.b.check_invariants(), "");
}

TEST(Encounter, BothRolesAlternateWithInProcessParity) {
  run_parity_check({});
}

TEST(Encounter, ParityHoldsUnderBandwidthCap) {
  SyncOptions options;
  options.max_items = 1;
  run_parity_check(options);
}

TEST(Encounter, SecondDirectionSeesFirstDirectionsState) {
  // After a pulls b's items, the push direction must not echo them
  // back (b authored them and still knows them), and items a newly
  // holds must not be offered to b unless b asks.
  World world;
  const auto outcome = encounter_over_loopback(
      world.a, world.b, &world.a_policy, &world.b_policy, SimTime(0),
      {}, {});
  ASSERT_FALSE(outcome.a_pulled.transport_failed);
  ASSERT_FALSE(outcome.b_applied.transport_failed);
  // Pull moved b's three offerings; push moved a's two. Nothing that
  // just traveled a-ward comes back b-ward.
  EXPECT_EQ(outcome.a_pulled.result.stats.items_new, 3u);
  EXPECT_EQ(outcome.b_applied.result.stats.items_new, 2u);
  EXPECT_EQ(outcome.b_applied.result.stats.items_stale, 0u);
  // One contact, one link: both directions share the byte account.
  EXPECT_EQ(outcome.bytes_delivered,
            outcome.a_pulled.result.stats.request_bytes +
                outcome.a_pulled.result.stats.batch_bytes +
                outcome.b_applied.result.stats.request_bytes +
                outcome.b_applied.result.stats.batch_bytes);
}

/// One leg's outcome as a stable text record, for the cut digest.
std::string leg_record(const NetSyncResult& leg) {
  const repl::SyncStats& stats = leg.result.stats;
  return std::to_string(leg.transport_failed) + "," +
         std::to_string(stats.items_sent) + "," +
         std::to_string(stats.items_new) + "," +
         std::to_string(stats.request_bytes + stats.batch_bytes) + "," +
         std::to_string(stats.complete);
}

/// The contact window spans both syncs of an encounter: close it after
/// every byte count from 0 to the whole exchange. Both ends stay sound,
/// a cut leg teaches its target nothing, one clean encounter repairs
/// everything, and every cut's per-leg outcome is pinned by a digest.
TEST(Encounter, SurvivesContactCutAtEveryByte) {
  World reference;
  const auto clean = encounter_over_loopback(
      reference.a, reference.b, &reference.a_policy, &reference.b_policy,
      SimTime(0));
  const std::size_t total = clean.bytes_delivered;
  ASSERT_GT(total, 0u);

  std::string records;
  for (std::size_t cut = 0; cut <= total; ++cut) {
    World world;
    const auto outcome = encounter_over_loopback(
        world.a, world.b, &world.a_policy, &world.b_policy, SimTime(0), {},
        cut);
    const std::string where = "cut=" + std::to_string(cut);
    records += where + " pull=" + leg_record(outcome.a_pulled) +
               " push=" + leg_record(outcome.b_applied) +
               " delivered=" + std::to_string(outcome.bytes_delivered) +
               "\n";
    EXPECT_EQ(outcome.a_pulled.transport_failed ||
                  outcome.b_applied.transport_failed,
              cut < total)
        << where;
    EXPECT_EQ(world.a.check_invariants(), "") << where;
    EXPECT_EQ(world.b.check_invariants(), "") << where;
    if (outcome.a_pulled.transport_failed) {
      EXPECT_TRUE(world.a.knowledge().fragments().empty()) << where;
    }
    if (outcome.b_applied.transport_failed) {
      EXPECT_TRUE(world.b.knowledge().fragments().empty()) << where;
    }

    const auto repair = encounter_over_loopback(
        world.a, world.b, &world.a_policy, &world.b_policy, SimTime(1));
    ASSERT_FALSE(repair.a_pulled.transport_failed) << where;
    ASSERT_FALSE(repair.b_applied.transport_failed) << where;
    EXPECT_TRUE(repair.a_pulled.result.stats.complete) << where;
    EXPECT_TRUE(repair.b_applied.result.stats.complete) << where;
    EXPECT_EQ(outcome.a_pulled.result.stats.items_new +
                  repair.a_pulled.result.stats.items_new,
              clean.a_pulled.result.stats.items_new)
        << where;
    EXPECT_EQ(outcome.b_applied.result.stats.items_new +
                  repair.b_applied.result.stats.items_new,
              clean.b_applied.result.stats.items_new)
        << where;
    EXPECT_EQ(repair.a_pulled.result.stats.items_stale, 0u) << where;
    EXPECT_EQ(repair.b_applied.result.stats.items_stale, 0u) << where;
    EXPECT_EQ(world.a.store().size(), reference.a.store().size()) << where;
    EXPECT_EQ(world.b.store().size(), reference.b.store().size()) << where;
    EXPECT_EQ(world.a.check_invariants(), "") << where;
    EXPECT_EQ(world.b.check_invariants(), "") << where;
  }
  // Recorded against the byte-pipe drive the pump replaced, so every
  // cut must end each leg exactly as it did there.
  EXPECT_EQ(fnv1a64({records.begin(), records.end()}),
            0xd204400b36705a64ull)
      << records;
}

}  // namespace
}  // namespace pfrdtn::net
