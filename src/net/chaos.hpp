#pragma once

/// \file chaos.hpp
/// A scripted hostile peer for exercising the hardened session
/// boundary. Each ChaosAttack is one way a stranger can misbehave at
/// the wire: oversize frames, lying item counts, out-of-order frames,
/// giant knowledge, oversized policy blobs, byte-trickling, garbage
/// headers, and closing at every protocol state. The same scripts are
/// driven three ways — unit tests over a loopback link, check-harness
/// adversary events (`pfrdtn check --adversary-rate`), and
/// `pfrdtn chaos` against a live `serve` in tools/hostile_e2e.sh — so
/// every limit is proven to bite at every layer.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/limits.hpp"
#include "net/transport.hpp"
#include "util/ids.hpp"

namespace pfrdtn::net {

enum class ChaosAttack : std::uint8_t {
  OversizeRequest = 0,  ///< Request header claims a payload over the cap
  OversizeItem,         ///< push: BatchItem header over the item cap
  LyingCountHuge,       ///< push: BatchBegin count above max_batch_items
  LyingCountShort,      ///< push: count=3 but one item then BatchEnd
  OutOfOrderFrame,      ///< BatchItem where a Hello belongs
  GiantKnowledge,       ///< pull: Request knowledge over the weight cap
  GiantPolicyBlob,      ///< pull: Request routing blob over the byte cap
  ByteTrickle,          ///< dribbles a Hello byte by byte, then stalls
  BadMagic,             ///< 8 junk bytes where a frame header belongs
  CloseAfterHello,      ///< valid Hello, then immediate close
  CloseMidHeader,       ///< 3 bytes of a frame header, then close
  CloseMidBatch,        ///< push: BatchBegin announcing items, then close
};

inline constexpr std::size_t kChaosAttackCount = 12;

/// Stable CLI-friendly name ("oversize-request", "byte-trickle", ...).
[[nodiscard]] const char* chaos_attack_name(ChaosAttack attack);
[[nodiscard]] std::optional<ChaosAttack> chaos_attack_from_name(
    std::string_view name);

/// True for attacks a hardened server must REJECT (ContractViolation /
/// ResourceLimitError → the peer earns quarantine). False for attacks
/// indistinguishable from a dying link (closes, trickle): those end as
/// incomplete syncs and must NOT strike the peer.
[[nodiscard]] bool chaos_attack_is_violation(ChaosAttack attack);

struct ChaosPeerOptions {
  /// The limits the attacked server is believed to enforce; attacks
  /// size their payloads just past these caps so each one targets a
  /// specific budget.
  ResourceLimits limits;
  /// Wall-clock delay between trickled bytes (TCP drives); 0 = none.
  unsigned trickle_delay_ms = 0;
  /// After the script, drain replies until EOF/reset to observe the
  /// server's reaction — and to keep our own close from racing the
  /// server with an RST that discards the hostile bytes unprocessed.
  /// Disable for sequential loopback drives, where the server has not
  /// run yet.
  bool read_replies = true;
};

struct ChaosOutcome {
  std::size_t bytes_sent = 0;
  /// A write or the final read failed: the server (or link) cut us.
  bool server_cut_us = false;
  std::string note;
};

/// Run one attack script as the connecting client on `connection`.
/// Never throws: transport failures are the expected server reaction
/// and are folded into the outcome.
ChaosOutcome run_chaos_attack(Connection& connection, ChaosAttack attack,
                              const ChaosPeerOptions& options = {});

}  // namespace pfrdtn::net
