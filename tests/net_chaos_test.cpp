// The chaos-peer adversary suite over loopback: every scripted attack
// is driven against serve_session under tight resource limits, and the
// server must (a) classify it exactly — violations throw and earn
// quarantine, link-indistinguishable misbehaviour is absorbed as an
// incomplete sync — (b) keep its replica state byte-identical, and
// (c) still serve an honest peer to attack-free convergence afterwards.
// The same scripts run in the check harness (--adversary-rate) and
// against a live `pfrdtn serve` in tools/hostile_e2e.sh.

#include "net/chaos.hpp"

#include <gtest/gtest.h>

#include "net/loopback.hpp"
#include "net/session.hpp"
#include "persist/checkpoint.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::Replica;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

/// Tight enough that every attack's "just past the cap" payload stays
/// cheap to build; both the attacker and the server use these.
ResourceLimits tight_limits() {
  ResourceLimits limits;
  limits.max_request_bytes = 4096;
  limits.max_item_bytes = 2048;
  limits.max_batch_end_bytes = 2048;
  limits.max_batch_items = 8;
  limits.max_knowledge_entries = 64;
  limits.max_policy_blob_bytes = 256;
  limits.max_decode_elements = 512;
  limits.session_byte_ceiling = 16u << 10;
  return limits;
}

Replica make_server() {
  Replica server(ReplicaId(1), Filter::addresses({HostId(5)}));
  server.create(to(5), {'a'});
  server.create(to(5), {'b', 'b'});
  server.create(to(9), {'r'});  // relay copy
  return server;
}

/// Run one attack against a fresh serve_session; returns whether the
/// server rejected it (threw ContractViolation / ResourceLimitError).
bool attack_rejected(Replica& server, ChaosAttack attack) {
  LoopbackLink link;
  ChaosPeerOptions chaos;
  chaos.limits = tight_limits();
  chaos.read_replies = false;  // sequential drive: server runs after us
  run_chaos_attack(link.a(), attack, chaos);
  try {
    serve_session(link.b(), server, nullptr, SimTime(0), {},
                  tight_limits());
  } catch (const ContractViolation&) {
    return true;
  }
  return false;
}

TEST(Chaos, EveryAttackIsClassifiedExactly) {
  for (std::size_t i = 0; i < kChaosAttackCount; ++i) {
    const auto attack = static_cast<ChaosAttack>(i);
    Replica server = make_server();
    EXPECT_EQ(attack_rejected(server, attack),
              chaos_attack_is_violation(attack))
        << "attack " << chaos_attack_name(attack)
        << (chaos_attack_is_violation(attack)
                ? " must be rejected as a violation"
                : " is link-indistinguishable and must be absorbed");
  }
}

TEST(Chaos, HonestPeerConvergesToAttackFreeControlAfterEveryAttack) {
  // Control world: no attack ever happened.
  Replica control_server = make_server();
  Replica control_client(ReplicaId(7), Filter::addresses({HostId(5)}));
  const auto control = sync_over_loopback(control_server, control_client,
                                          nullptr, nullptr, SimTime(0));
  ASSERT_TRUE(control.client.result.stats.complete);
  const std::uint64_t control_server_digest =
      persist::state_digest(control_server);
  const std::uint64_t control_client_digest =
      persist::state_digest(control_client);

  for (std::size_t i = 0; i < kChaosAttackCount; ++i) {
    const auto attack = static_cast<ChaosAttack>(i);
    Replica server = make_server();
    const std::uint64_t digest_before = persist::state_digest(server);
    attack_rejected(server, attack);

    if (attack == ChaosAttack::LyingCountShort) {
      // The one attack that mutates state by design: its single valid
      // item is applied before the count lie is detectable (streaming
      // application is the point of the protocol). The item is still
      // relay-only garbage, invisible to the honest peer's filter —
      // but this is why the check harness's oracle excludes it.
      EXPECT_EQ(server.store().size(), 4u);
      continue;
    }
    // Every other attack is rejected (or absorbed) before any item,
    // knowledge, or policy blob reaches the replica.
    EXPECT_EQ(persist::state_digest(server), digest_before)
        << "attack " << chaos_attack_name(attack)
        << " mutated server state";

    // And the attacked server still converges an honest peer to the
    // byte-identical state the attack-free control reached.
    Replica client(ReplicaId(7), Filter::addresses({HostId(5)}));
    const auto honest = sync_over_loopback(server, client, nullptr,
                                           nullptr, SimTime(0));
    EXPECT_TRUE(honest.client.result.stats.complete);
    EXPECT_EQ(persist::state_digest(server), control_server_digest);
    EXPECT_EQ(persist::state_digest(client), control_client_digest)
        << "after attack " << chaos_attack_name(attack);
  }
}

TEST(Chaos, NamesRoundTripAndAreStable) {
  for (std::size_t i = 0; i < kChaosAttackCount; ++i) {
    const auto attack = static_cast<ChaosAttack>(i);
    const auto parsed = chaos_attack_from_name(chaos_attack_name(attack));
    ASSERT_TRUE(parsed.has_value()) << chaos_attack_name(attack);
    EXPECT_EQ(*parsed, attack);
  }
  EXPECT_FALSE(chaos_attack_from_name("no-such-attack").has_value());
  // The CLI (`pfrdtn chaos --attack NAME`) and tools/hostile_e2e.sh
  // key on these exact spellings.
  EXPECT_STREQ(chaos_attack_name(ChaosAttack::OversizeRequest),
               "oversize-request");
  EXPECT_STREQ(chaos_attack_name(ChaosAttack::ByteTrickle),
               "byte-trickle");
}

}  // namespace
}  // namespace pfrdtn::net
