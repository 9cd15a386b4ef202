#pragma once

/// \file scenario.hpp
/// Deterministic fault-schedule scenarios for the check harness: N
/// replicas wired over the fault-injectable loopback transport, driven
/// by a randomized but fully materialized event schedule (local
/// updates, filter changes, relay discards, and encounters with
/// byte-budget cuts, bandwidth caps, and throttling). Every stochastic
/// decision is resolved at generation time into concrete event fields,
/// so a schedule replays bit-identically from its (seed, config) pair
/// and remains executable after the shrinker deletes arbitrary events.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/session.hpp"

namespace pfrdtn::check {

enum class EventKind : std::uint8_t {
  Create,        ///< actor authors a new item addressed to `address`
  Mutate,        ///< actor updates (or tombstones) a stored item
  SetFilter,     ///< actor adopts the address filter in `selector` bits
  DiscardRelay,  ///< actor drops one relay copy (ack-flooding analogue)
  Sync,          ///< contact between actor (target) and peer (source)
  CrashRestart,  ///< actor loses volatile state and recovers from disk
  Adversary,     ///< a hostile peer runs one chaos attack against actor
};

/// How a CrashRestart corrupts the WAL tail before recovery runs (the
/// in-flight sectors that happened to hit the medium mid-write).
enum CrashTornMode : std::uint8_t {
  kTornNone = 0,     ///< clean kill at the durable watermark
  kTornGarbage = 1,  ///< random bytes appended to the log
  kTornShortRecord = 2,  ///< a valid record cut short mid-payload
  kTornBitFlip = 3,  ///< a whole record appended with one bit flipped
};

/// Per-contact fault knobs, all resolved to concrete values.
struct SyncFault {
  /// Cut the contact after this many delivered bytes.
  std::optional<std::uint32_t> cut_after_bytes;
  /// Bandwidth cap (repl::SyncOptions::max_items) for this contact.
  std::optional<std::uint32_t> max_items;
  /// Drawn and printed (`bps=`) so every seed's schedule replays, but
  /// no longer applied: the in-process sync keeps no transfer-time
  /// account.
  std::uint32_t bytes_per_second = 0;
};

/// One schedule step. Events are self-contained: `selector` resolves
/// state-dependent choices (which stored item, which filter) by modulo
/// at application time, so deleting earlier events never invalidates
/// later ones.
struct Event {
  EventKind kind = EventKind::Create;
  std::uint32_t actor = 0;     ///< replica index
  std::uint32_t peer = 0;      ///< sync source replica index
  std::uint64_t address = 1;   ///< destination address for Create
  std::uint64_t selector = 0;  ///< item choice / filter address bits
  bool erase = false;          ///< Mutate: tombstone instead of update
  bool encounter = false;      ///< Sync: two syncs (pull then push)
  /// Sync: open with a knowledge summary (repl::SummaryMode::On).
  bool summary = false;
  /// Sync: force the source to treat the summary digest as matching —
  /// a simulated 64-bit digest collision (summary syncs only).
  bool summary_collide = false;
  std::uint8_t crash_torn_mode = kTornNone;  ///< CrashRestart only
  SyncFault fault;
  /// Sync: the retrying contact discipline. After a leg dies
  /// mid-stream the contact is re-dialed, each re-attempt with its own
  /// materialized cut budget (0 = that attempt runs fault-free).
  /// Consulted in order until an attempt finishes without a transport
  /// failure or the list is exhausted. Populated only when
  /// config.sync_retry_max > 0 (gated draws — see make_scenario).
  std::vector<std::uint32_t> retry_cuts;
};

struct ScenarioConfig {
  std::size_t replicas = 4;
  std::size_t steps = 80;
  std::uint64_t addresses = 4;

  // Event mix (remaining probability mass goes to Sync events).
  double create_rate = 0.25;
  double mutate_rate = 0.10;
  double filter_change_rate = 0.06;
  double discard_rate = 0.04;
  /// CrashRestart events. Default 0 keeps schedules generated by
  /// earlier harness versions bit-identical for a given seed.
  double crash_rate = 0.0;
  /// Adversary events: a scripted net::ChaosPeer attacks the actor's
  /// serve_session over a deadline-armed loopback link. Default 0, for
  /// the same bit-identical-schedule reason as crash_rate.
  double adversary_rate = 0.0;

  // Per-sync fault probabilities.
  double cut_rate = 0.35;  ///< byte-budget cut mid-contact
  double cap_rate = 0.25;  ///< item-count bandwidth cap
  double throttle_rate = 0.15;
  /// Probability a Sync event opens with a knowledge summary instead
  /// of the exact request. Default 0; its draws (and the collision
  /// draw below) are only consumed when nonzero, so schedules from
  /// summary-unaware configs stay bit-identical for a given seed.
  double summary_rate = 0.0;
  /// Probability a summary sync forces a digest collision (spurious
  /// Match): items defer to later exact syncs but must never be lost,
  /// and knowledge must stay sound — the probes check both.
  double summary_collision_rate = 0.0;

  /// Relay-store capacity; small values force constant eviction.
  std::optional<std::size_t> relay_capacity = 3;
  /// Fault-free all-pairs gossip rounds run after the schedule before
  /// the eventual-filter-consistency probe.
  std::size_t quiescence_rounds = 4;
  /// Inject the knowledge-corruption bug (learn from truncated syncs)
  /// to prove the harness catches it. See SyncOptions.
  bool inject_learn_truncated = false;
  /// Inject the durability bug (WAL records written but never fsynced)
  /// to prove the crash probe catches recovery that forgets
  /// acknowledged state. See check::MutantEnv.
  bool inject_skip_fsync = false;
  /// Inject the hardening bug "resource limits not enforced": adversary
  /// sessions are served with ResourceLimits::unlimited(), so the
  /// adversary-containment probe must catch limit breaches surviving.
  bool inject_skip_limit_check = false;
  /// Inject the hardening bug "no session deadline": adversary links
  /// run without LoopbackFaults::deadline_seconds, so a byte-trickling
  /// peer stalls the session and the adversary-deadline probe fires.
  bool inject_no_deadline = false;
  /// Inject the summary-protocol bug "skip the fallback": on a digest
  /// mismatch the source answers with an empty "complete" batch
  /// carrying its real knowledge instead of falling back to the exact
  /// flow, so targets learn knowledge for items they never received —
  /// the knowledge-soundness probe must catch it. See SyncOptions.
  bool inject_summary_skip_fallback = false;
  /// Per-operation disk fault probability: each replica's MemEnv is
  /// wrapped in a persist::FaultInjectingEnv at this rate (armed after
  /// attach — the disk was healthy at boot). Faults are drawn at *run*
  /// time from the wrapper's own seeded stream, never at generation
  /// time, so zero-rate configs consume no schedule draws and old
  /// seeds stay bit-identical. Correct code reacts to a hard fault by
  /// degrading to read-only; the degrade-on-fault and
  /// degraded-read-only probes check exactly that.
  double disk_fault_rate = 0.0;
  /// Inject the fsyncgate bug (--inject-bug ack-before-fsync): fsync
  /// failures are swallowed and the records acknowledged anyway. The
  /// layer never degrades, so the next CrashRestart's exact digest
  /// probe observes the silently dropped acknowledged state. Only
  /// observable with disk_fault_rate > 0 and crash events. See
  /// check::MutantEnv.
  bool inject_ack_before_fsync = false;
  /// Retrying contact discipline: a Sync leg cut mid-stream is
  /// re-dialed up to this many times, with per-attempt cut budgets
  /// materialized into Event::retry_cuts at generation time. Draws are
  /// gated on a nonzero value, so retry-unaware configs keep their
  /// schedules bit-identical for a given seed. 0 = no retries.
  std::size_t sync_retry_max = 0;
  /// Inject the retry bug "forget progress": between attempts of one
  /// contact the target side is rolled back to its pre-contact state —
  /// a client that buffers a session transactionally and discards the
  /// partial work of a cut attempt instead of resuming from it. The
  /// monotone-progress probe must catch the re-received versions.
  bool inject_retry_forgets_progress = false;
};

/// A fully materialized scenario: initial per-replica filters plus the
/// event schedule, everything derived from (config, seed).
struct Scenario {
  ScenarioConfig config;
  std::uint64_t seed = 0;
  /// Address bitmask per replica (bit k => hosts address k+1).
  std::vector<std::uint64_t> initial_filter_bits;
  std::vector<Event> events;
};

Scenario make_scenario(const ScenarioConfig& config, std::uint64_t seed);

/// A detected invariant violation.
struct Violation {
  /// Index of the failing event; events.size() + round for failures
  /// detected during the quiescence/convergence phase.
  std::size_t event_index = 0;
  std::string probe;    ///< which invariant fired
  std::string message;  ///< human-readable description
};

struct RunStats {
  std::size_t syncs = 0;
  std::size_t cuts = 0;       ///< contacts that died mid-stream
  std::size_t incomplete = 0; ///< syncs reporting complete == false
  std::size_t items_moved = 0;
  std::size_t evictions = 0;
  std::size_t bytes = 0;
  std::size_t disk_faults = 0;  ///< injected storage faults observed
  /// Sync legs a degraded read-only replica refused up front (Error
  /// frame instead of the opening request) plus mutations refused with
  /// ReadOnlyError.
  std::size_t refused = 0;
};

struct RunResult {
  std::optional<Violation> violation;
  RunStats stats;
  /// One line per event (plus quiescence summary) when logging is on;
  /// deterministic, so two runs of the same scenario compare equal.
  std::vector<std::string> log;
};

/// Execute a scenario over the real sync stack (the TargetSession and
/// SourceSession machines on the in-process pump, serve_session for
/// adversaries), probing every invariant after each event.
RunResult run_scenario(const Scenario& scenario, bool keep_log = false);

/// Render one event as a stable, replay-friendly line.
std::string format_event(std::size_t index, const Event& event);

}  // namespace pfrdtn::check
