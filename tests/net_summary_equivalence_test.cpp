/// The differential suite behind the summary fast path: every sync
/// shape — pull, push, encounter, mid-cut resume, forced digest
/// collision, hostile peer, crash-restart — runs twice, once with the
/// exact legacy protocol (SummaryMode::Off) and once with summaries
/// on, and the two runs must end in byte-identical replica state
/// (persist::state_digest covers store bytes, arrival order, knowledge
/// and policy state) with identical delivered ledgers. Summaries are
/// an optimization of wire bytes only; any observable divergence is a
/// protocol bug.

#include <gtest/gtest.h>

#include "net/chaos.hpp"
#include "net/loopback.hpp"
#include "net/session.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::ForwardingPolicy;
using repl::Priority;
using repl::PriorityClass;
using repl::Replica;
using repl::SummaryMode;
using repl::SyncContext;
using repl::SyncOptions;
using repl::TransientView;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

repl::SyncOptions with_mode(SummaryMode mode, SyncOptions base = {}) {
  base.summary_mode = mode;
  return base;
}

/// Forward everything, touching per-copy transient state so policy
/// side effects are part of the compared state.
class ForwardAll : public ForwardingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "all"; }
  std::vector<std::uint8_t> generate_request(
      const SyncContext&) override {
    return {0x11, 0x22};
  }
  Priority to_send(const SyncContext&, TransientView) override {
    return Priority::at(PriorityClass::Normal);
  }
  void on_forward(const SyncContext&, TransientView stored,
                  TransientView outgoing) override {
    stored.set_int("hops", stored.get_int("hops").value_or(0) + 1);
    outgoing.set_int("hops", stored.get_int("hops").value_or(0));
  }
};

/// One reproducible two-replica world; both sides hold items so
/// encounters move data in both directions.
struct World {
  Replica source;
  Replica target;
  ForwardAll source_policy;
  ForwardAll target_policy;

  World()
      : source(ReplicaId(1), Filter::addresses({HostId(5)})),
        target(ReplicaId(2), Filter::addresses({HostId(9)})) {
    source.create(to(9), {'a'});
    source.create(to(9), {'b', 'b'});
    source.create(to(7), {'c'});  // relay copy for the target
    const repl::Item& doomed = source.create(to(9), {'d'});
    source.erase(doomed.id());  // tombstone travels too
    target.create(to(5), {'x'});
    target.create(to(5), {'y', 'y'});
  }
};

std::uint64_t digest(const Replica& replica) {
  return persist::state_digest(replica);
}

std::vector<ItemId> delivered_ids(const repl::SyncResult& result) {
  std::vector<ItemId> ids;
  for (const repl::Item& item : result.delivered) ids.push_back(item.id());
  return ids;
}

void expect_worlds_identical(const World& off, const World& on,
                             const char* where) {
  EXPECT_EQ(digest(off.target), digest(on.target)) << where;
  EXPECT_EQ(digest(off.source), digest(on.source)) << where;
}

TEST(SummaryEquivalence, ColdPullIsByteIdenticalToExact) {
  World off;
  World on;
  const auto exact = sync_over_loopback(off.source, off.target,
                                        &off.source_policy,
                                        &off.target_policy, SimTime(0),
                                        with_mode(SummaryMode::Off));
  const auto fast = sync_over_loopback(on.source, on.target,
                                       &on.source_policy,
                                       &on.target_policy, SimTime(0),
                                       with_mode(SummaryMode::On));
  ASSERT_FALSE(exact.client.transport_failed);
  ASSERT_FALSE(fast.client.transport_failed);
  // A cold target's (empty) Bloom filter proves it knows nothing, so
  // the source streams the batch directly — same items, same outcome.
  EXPECT_EQ(exact.client.result.stats.items_sent,
            fast.client.result.stats.items_sent);
  EXPECT_EQ(exact.client.result.stats.items_new,
            fast.client.result.stats.items_new);
  EXPECT_EQ(exact.client.result.stats.batch_bytes,
            fast.client.result.stats.batch_bytes);
  EXPECT_EQ(delivered_ids(exact.client.result),
            delivered_ids(fast.client.result));
  expect_worlds_identical(off, on, "after cold pull");
}

TEST(SummaryEquivalence, WarmTargetFallsBackThroughMissIdentically) {
  World off;
  World on;
  // Shared warm-up (exact in both worlds, so the differential part is
  // only the second sync): the target now knows one of the source's
  // items, its Bloom filter hits, and the summary path must take the
  // Miss -> exact-fallback route.
  SyncOptions capped;
  capped.max_items = 1;
  (void)sync_over_loopback(off.source, off.target, &off.source_policy,
                           &off.target_policy, SimTime(0), capped);
  (void)sync_over_loopback(on.source, on.target, &on.source_policy,
                           &on.target_policy, SimTime(0), capped);
  ASSERT_EQ(digest(off.target), digest(on.target));

  const auto exact = sync_over_loopback(off.source, off.target,
                                        &off.source_policy,
                                        &off.target_policy, SimTime(1),
                                        with_mode(SummaryMode::Off));
  const auto fast = sync_over_loopback(on.source, on.target,
                                       &on.source_policy,
                                       &on.target_policy, SimTime(1),
                                       with_mode(SummaryMode::On));
  ASSERT_FALSE(fast.client.transport_failed);
  EXPECT_EQ(exact.client.result.stats.items_sent,
            fast.client.result.stats.items_sent);
  EXPECT_EQ(delivered_ids(exact.client.result),
            delivered_ids(fast.client.result));
  // The fallback costs extra wire bytes (summary + miss frames) but
  // must change nothing observable.
  EXPECT_GT(fast.bytes_delivered, exact.bytes_delivered);
  expect_worlds_identical(off, on, "after warm fallback pull");
}

/// Two replicas with the same (universal) filter whose knowledge
/// becomes wire-identical after one encounter — the converged steady
/// state where the digest Match fires.
struct ConvergedPair {
  Replica a;
  Replica b;

  ConvergedPair()
      : a(ReplicaId(1), Filter::all()), b(ReplicaId(2), Filter::all()) {
    a.create(to(9), {'a'});
    a.create(to(9), {'b', 'b'});
    b.create(to(5), {'x'});
    (void)encounter_over_loopback(a, b, nullptr, nullptr, SimTime(0));
  }
};

TEST(SummaryEquivalence, ConvergedRepeatSyncIsO1Bytes) {
  ConvergedPair off;
  ConvergedPair on;
  // The premise of the Match fast path: converged peers hold
  // wire-identical knowledge.
  ASSERT_EQ(off.a.knowledge().wire_digest(),
            off.b.knowledge().wire_digest());

  const auto exact =
      sync_over_loopback(off.b, off.a, nullptr, nullptr, SimTime(1),
                         with_mode(SummaryMode::Off));
  const auto fast =
      sync_over_loopback(on.b, on.a, nullptr, nullptr, SimTime(1),
                         with_mode(SummaryMode::On));
  EXPECT_EQ(fast.client.result.stats.items_sent, 0u);
  EXPECT_EQ(exact.client.result.stats.items_sent, 0u);
  EXPECT_TRUE(fast.client.result.stats.complete);
  // Nothing-new with summaries: one SummaryRequest + one SummaryMatch,
  // independent of how much knowledge has accumulated. The exact flow
  // re-ships the full knowledge both ways.
  EXPECT_LT(fast.bytes_delivered, exact.bytes_delivered);
  EXPECT_LT(fast.bytes_delivered, 80u);
  EXPECT_EQ(digest(off.a), digest(on.a));
  EXPECT_EQ(digest(off.b), digest(on.b));
}

TEST(SummaryEquivalence, EncounterIsByteIdenticalToExact) {
  World off;
  World on;
  const auto exact = encounter_over_loopback(
      off.target, off.source, &off.target_policy, &off.source_policy,
      SimTime(0), with_mode(SummaryMode::Off));
  const auto fast = encounter_over_loopback(
      on.target, on.source, &on.target_policy, &on.source_policy,
      SimTime(0), with_mode(SummaryMode::On));
  ASSERT_FALSE(exact.a_pulled.transport_failed);
  ASSERT_FALSE(fast.a_pulled.transport_failed);
  ASSERT_FALSE(fast.b_applied.transport_failed);
  EXPECT_EQ(delivered_ids(exact.a_pulled.result),
            delivered_ids(fast.a_pulled.result));
  EXPECT_EQ(delivered_ids(exact.b_applied.result),
            delivered_ids(fast.b_applied.result));
  expect_worlds_identical(off, on, "after encounter");
}

/// Mid-cut resume: cut the contact at every byte in both modes. Cuts
/// landing in the (byte-identical) batch region must leave the two
/// modes in byte-identical states; after any cut, a fault-free repair
/// sync must converge both modes to the same final state — deferral is
/// allowed, loss is not.
TEST(SummaryEquivalence, CutAtEveryByteNeverDivergesOrLosesItems) {
  std::size_t total_off = 0;
  std::size_t total_on = 0;
  std::size_t req_off = 0;
  std::size_t req_on = 0;
  std::size_t batch_bytes = 0;
  std::size_t expected_new = 0;
  std::uint64_t final_target = 0;
  std::uint64_t final_source = 0;
  {
    World off;
    const auto exact = sync_over_loopback(
        off.source, off.target, &off.source_policy, &off.target_policy,
        SimTime(0), with_mode(SummaryMode::Off));
    total_off = exact.bytes_delivered;
    req_off = exact.client.result.stats.request_bytes;
    batch_bytes = exact.client.result.stats.batch_bytes;
    expected_new = exact.client.result.stats.items_new;
    final_target = digest(off.target);
    final_source = digest(off.source);
    World on;
    const auto fast = sync_over_loopback(
        on.source, on.target, &on.source_policy, &on.target_policy,
        SimTime(0), with_mode(SummaryMode::On));
    total_on = fast.bytes_delivered;
    req_on = fast.client.result.stats.request_bytes;
    // The cold-target batch region is byte-identical in both modes;
    // the preambles (exact Request vs SummaryRequest) differ.
    ASSERT_EQ(digest(on.target), final_target);
    ASSERT_EQ(total_off - req_off, batch_bytes);
    ASSERT_EQ(total_on - req_on, batch_bytes);
  }

  const auto cut_run = [](SummaryMode mode, std::size_t cut) {
    World world;
    const auto outcome = sync_over_loopback(
        world.source, world.target, &world.source_policy,
        &world.target_policy, SimTime(0), with_mode(mode), cut);
    const std::uint64_t cut_target = digest(world.target);
    const std::uint64_t cut_source = digest(world.source);
    const std::size_t applied = outcome.client.result.stats.items_sent;
    const std::size_t new_before = outcome.client.result.stats.items_new;
    // Repair with a fault-free sync in the same mode.
    const auto repair = sync_over_loopback(
        world.source, world.target, &world.source_policy,
        &world.target_policy, SimTime(1), with_mode(mode));
    EXPECT_TRUE(repair.client.result.stats.complete) << "cut=" << cut;
    EXPECT_EQ(repair.client.result.stats.items_stale, 0u)
        << "cut=" << cut << " (duplicate transmission)";
    struct Result {
      std::uint64_t cut_target, cut_source, end_target, end_source;
      std::size_t applied, total_new;
    };
    return Result{cut_target,
                  cut_source,
                  digest(world.target),
                  digest(world.source),
                  applied,
                  new_before + repair.client.result.stats.items_new};
  };

  // Batch-region cuts line up across modes after shifting by the
  // preamble delta: the same delivered batch prefix leaves the same
  // post-cut state, and the repair converges both modes to one final
  // state. (Repair after a mid-batch cut legitimately differs from the
  // single fault-free sync — policy forwarding state was charged twice
  // — but it must not differ *between modes*.)
  for (std::size_t b = 0; b <= batch_bytes; ++b) {
    const auto exact = cut_run(SummaryMode::Off, req_off + b);
    const auto fast = cut_run(SummaryMode::On, req_on + b);
    EXPECT_EQ(exact.applied, fast.applied) << "batch offset " << b;
    EXPECT_EQ(exact.cut_target, fast.cut_target) << "batch offset " << b;
    EXPECT_EQ(exact.cut_source, fast.cut_source) << "batch offset " << b;
    EXPECT_EQ(exact.end_target, fast.end_target) << "batch offset " << b;
    EXPECT_EQ(exact.end_source, fast.end_source) << "batch offset " << b;
    // Every item arrives exactly once across cut + repair: deferred,
    // never lost, never duplicated.
    EXPECT_EQ(exact.total_new, expected_new) << "batch offset " << b;
    EXPECT_EQ(fast.total_new, expected_new) << "batch offset " << b;
  }
  // Preamble cuts kill the sync before the source processed anything;
  // the repair is then the first effective sync and must land exactly
  // on the fault-free state in both modes.
  for (std::size_t cut = 0; cut < req_on; ++cut) {
    const auto fast = cut_run(SummaryMode::On, cut);
    EXPECT_EQ(fast.applied, 0u) << "cut=" << cut;
    EXPECT_EQ(fast.end_target, final_target) << "cut=" << cut;
    EXPECT_EQ(fast.end_source, final_source) << "cut=" << cut;
  }
}

TEST(SummaryEquivalence, ForcedCollisionDefersButNeverLoses) {
  World off;
  World on;
  // A simulated 64-bit digest collision: the source answers Match even
  // though the states differ, so this sync moves nothing...
  SyncOptions collide = with_mode(SummaryMode::On);
  collide.summary_force_collision = true;
  const auto fast = sync_over_loopback(on.source, on.target,
                                       &on.source_policy,
                                       &on.target_policy, SimTime(0),
                                       collide);
  ASSERT_FALSE(fast.client.transport_failed);
  EXPECT_EQ(fast.client.result.stats.items_sent, 0u);
  EXPECT_TRUE(fast.client.result.stats.complete);
  // ...and must not corrupt knowledge: a Match teaches the target only
  // knowledge wire-identical to its own.
  EXPECT_EQ(on.target.check_invariants(), "");
  EXPECT_TRUE(on.target.knowledge().fragments().empty());

  // The items are deferred, not lost: the next collision-free sync
  // delivers everything and re-joins the exact-mode world.
  const auto exact = sync_over_loopback(off.source, off.target,
                                        &off.source_policy,
                                        &off.target_policy, SimTime(1));
  const auto recover = sync_over_loopback(on.source, on.target,
                                          &on.source_policy,
                                          &on.target_policy, SimTime(1),
                                          with_mode(SummaryMode::On));
  EXPECT_EQ(delivered_ids(exact.client.result),
            delivered_ids(recover.client.result));
  expect_worlds_identical(off, on, "after collision recovery");
}

/// Every chaos attack must be classified exactly the same way with
/// summaries on as off — the hardened boundary is mode-independent —
/// and the server's replica must stay byte-identical through both.
TEST(SummaryEquivalence, ChaosAttacksContainedIdenticallyInBothModes) {
  ResourceLimits tight;
  tight.max_request_bytes = 4096;
  tight.max_item_bytes = 2048;
  tight.max_batch_end_bytes = 2048;
  tight.max_batch_items = 8;
  tight.max_knowledge_entries = 64;
  tight.max_policy_blob_bytes = 256;
  tight.max_decode_elements = 512;
  tight.session_byte_ceiling = 16u << 10;

  const auto attack_rejected = [&](Replica& server, ChaosAttack attack,
                                   SummaryMode mode) {
    LoopbackLink link;
    ChaosPeerOptions chaos;
    chaos.limits = tight;
    chaos.read_replies = false;  // sequential drive: server runs after us
    run_chaos_attack(link.a(), attack, chaos);
    try {
      serve_session(link.b(), server, nullptr, SimTime(0),
                    with_mode(mode), tight);
    } catch (const ContractViolation&) {
      return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < kChaosAttackCount; ++i) {
    const auto attack = static_cast<ChaosAttack>(i);
    World off;
    World on;
    const std::uint64_t before = digest(off.source);
    ASSERT_EQ(before, digest(on.source));
    const bool exact_rejected =
        attack_rejected(off.source, attack, SummaryMode::Off);
    const bool fast_rejected =
        attack_rejected(on.source, attack, SummaryMode::On);
    EXPECT_EQ(exact_rejected, fast_rejected)
        << "attack " << chaos_attack_name(attack)
        << " classified differently across summary modes";
    EXPECT_EQ(exact_rejected, chaos_attack_is_violation(attack))
        << "attack " << chaos_attack_name(attack);
    // Push attacks may legitimately land a prefix of items before the
    // lie is detected (streaming application); what matters here is
    // that the summary-mode server ends byte-identical to the exact
    // one under every attack.
    EXPECT_EQ(digest(off.source), digest(on.source))
        << chaos_attack_name(attack)
        << " left the two modes in different states";
  }
}

/// Crash-restart: a durable target syncs, crashes, recovers from its
/// WAL+checkpoint, and syncs again — with summaries on the recovered
/// state and the post-recovery convergence must match the exact
/// protocol byte for byte.
TEST(SummaryEquivalence, CrashRestartRecoversIdenticallyInBothModes) {
  struct DurableRun {
    std::uint64_t recovered_digest = 0;
    std::uint64_t final_target = 0;
    std::uint64_t final_source = 0;
    std::vector<ItemId> delivered;
  };
  const auto run = [](SummaryMode mode) {
    DurableRun out;
    persist::MemEnv env;
    World world;
    persist::Durability durability(env);
    durability.attach(world.target);

    const auto first = sync_over_loopback(
        world.source, world.target, &world.source_policy,
        &world.target_policy, SimTime(0), with_mode(mode));
    auto ids = delivered_ids(first.client.result);
    out.delivered.insert(out.delivered.end(), ids.begin(), ids.end());

    // Crash: volatile state is gone, recovery rebuilds from the env.
    durability.detach();
    auto recovered = persist::recover(env);
    EXPECT_TRUE(recovered.has_value());
    world.target = std::move(recovered->replica);
    durability.attach(world.target);
    out.recovered_digest = digest(world.target);

    // New work after the restart, then a second sync in the same mode.
    world.source.create(to(9), {'p', 'q'});
    const auto second = sync_over_loopback(
        world.source, world.target, &world.source_policy,
        &world.target_policy, SimTime(1), with_mode(mode));
    ids = delivered_ids(second.client.result);
    out.delivered.insert(out.delivered.end(), ids.begin(), ids.end());
    out.final_target = digest(world.target);
    out.final_source = digest(world.source);
    EXPECT_EQ(world.target.check_invariants(), "");
    return out;
  };

  const DurableRun exact = run(SummaryMode::Off);
  const DurableRun fast = run(SummaryMode::On);
  EXPECT_EQ(exact.recovered_digest, fast.recovered_digest);
  EXPECT_EQ(exact.final_target, fast.final_target);
  EXPECT_EQ(exact.final_source, fast.final_source);
  EXPECT_EQ(exact.delivered, fast.delivered);
}

}  // namespace
}  // namespace pfrdtn::net
