#pragma once

/// \file quarantine.hpp
/// Peer health for `pfrdtn serve`. One rule: every violation ejects
/// (quarantines) the peer. An ejected peer's reconnects are refused
/// cheaply at accept time — before any frame is read or buffer
/// allocated on its behalf. The ejection window is capped exponential
/// in the peer's ejection count with jitter in [window/2, window]
/// (util/backoff.hpp), and the ejection count itself decays: every
/// kEjectionDecayMs of quiet forgives one past ejection, so a peer that
/// was broken last week is not pre-escalated today, and a fully
/// forgiven peer leaves the table. Transport failures (cuts, timeouts)
/// and transient Error-frame refusals (read-only, busy, draining) do
/// NOT touch the table: a dying radio link and a shedding server are
/// the normal case in a DTN, not hostility.
///
/// Time is injected as a milliseconds-since-start counter so the table
/// is deterministic under test; jitter comes from a fixed-seed Rng for
/// the same reason. The table is keyed by whatever string the caller
/// chooses — serve uses the peer IP with the ephemeral port stripped,
/// since the port changes on every reconnect.

#include <cstdint>
#include <map>
#include <string>

#include "util/rng.hpp"

namespace pfrdtn::net {

/// Quiet time that forgives one past ejection.
inline constexpr std::uint64_t kEjectionDecayMs = 60000;

struct QuarantineOptions {
  /// First ejection's backoff; doubles per further ejection.
  std::uint64_t base_backoff_ms = 1000;
  /// Backoff cap — ejections beyond the cap stop extending the window.
  std::uint64_t max_backoff_ms = 60000;
};

/// Verdict of an accept-time admission check.
struct AdmitDecision {
  bool rejected = false;
  std::uint64_t retry_after_ms = 0;  ///< remaining ejection window
  std::size_t strikes = 0;           ///< peer's current ejection count
  std::size_t rejections = 0;  ///< times this peer was refused so far
};

class QuarantineTable {
 public:
  explicit QuarantineTable(QuarantineOptions options = {})
      : options_(options) {}

  /// Accept-time check: is `peer` currently ejected at `now_ms`?
  /// Counts the rejection when it is. O(log peers), no allocation on
  /// the hot accept path beyond the map lookup.
  AdmitDecision admit(const std::string& peer, std::uint64_t now_ms);

  /// Record a violation by `peer` at `now_ms`: ejects the peer for
  /// min(base << (ejections-1), max) jittered into [window/2, window]
  /// and returns that window.
  std::uint64_t punish(const std::string& peer, std::uint64_t now_ms);

  /// Record a cleanly completed session. It forgives nothing by
  /// itself — a flapping peer must not reset its ladder by succeeding
  /// once — but a peer whose ejections have all decayed leaves the
  /// table.
  void reward(const std::string& peer, std::uint64_t now_ms);

  /// Current ejection count (the escalation ladder position).
  [[nodiscard]] std::size_t strikes(const std::string& peer) const;
  [[nodiscard]] std::size_t total_rejections() const {
    return total_rejections_;
  }
  [[nodiscard]] std::size_t quarantined_peers() const {
    return entries_.size();
  }

 private:
  struct Entry {
    std::size_t ejections = 0;
    std::size_t rejections = 0;
    std::uint64_t until_ms = 0;
    /// Quiet time is measured from the later of the last violation and
    /// the last decay step already taken.
    std::uint64_t decay_from_ms = 0;
  };

  /// Forgive one ejection per kEjectionDecayMs of quiet.
  static void decay(Entry& entry, std::uint64_t now_ms);
  /// True once the entry holds no ejection and no open window.
  static bool forgiven(const Entry& entry, std::uint64_t now_ms) {
    return entry.ejections == 0 && now_ms >= entry.until_ms;
  }

  /// Seed of the jitter stream.
  static constexpr std::uint64_t kJitterSeed = 1;

  QuarantineOptions options_;
  Rng jitter_{kJitterSeed};
  std::map<std::string, Entry> entries_;
  std::size_t total_rejections_ = 0;
};

}  // namespace pfrdtn::net
