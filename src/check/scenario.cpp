#include "check/scenario.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "check/mutant_env.hpp"
#include "check/oracle.hpp"
#include "net/chaos.hpp"
#include "net/loopback.hpp"
#include "net/session.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"
#include "persist/fault_env.hpp"
#include "persist/manifest.hpp"
#include "util/rng.hpp"
#include "util/storage_error.hpp"

namespace pfrdtn::check {

namespace {

/// Attacks the harness drives against a victim's serve_session. All of
/// net::ChaosAttack except LyingCountShort: that script delivers a
/// well-formed item authored by the chaos replica before violating the
/// count contract, which would poison the oracle's ledger with an item
/// it never witnessed. Selected by `event.selector % size`, so the
/// list may only ever grow at the end (replay stability).
constexpr net::ChaosAttack kHarnessAttacks[] = {
    net::ChaosAttack::OversizeRequest,
    net::ChaosAttack::OversizeItem,
    net::ChaosAttack::LyingCountHuge,
    net::ChaosAttack::OutOfOrderFrame,
    net::ChaosAttack::GiantKnowledge,
    net::ChaosAttack::GiantPolicyBlob,
    net::ChaosAttack::ByteTrickle,
    net::ChaosAttack::BadMagic,
    net::ChaosAttack::CloseAfterHello,
    net::ChaosAttack::CloseMidHeader,
    net::ChaosAttack::CloseMidBatch,
};

constexpr std::size_t kHarnessAttackCount =
    sizeof(kHarnessAttacks) / sizeof(kHarnessAttacks[0]);

net::ChaosAttack harness_attack(const Event& event) {
  return kHarnessAttacks[event.selector % kHarnessAttackCount];
}

/// Tight limits for adversary sessions, so every attack payload stays
/// tiny and the whole sweep runs in microseconds. The victim's honest
/// syncs never go through these — they use the default limits.
net::ResourceLimits adversary_limits() {
  net::ResourceLimits limits;
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

/// Per-write latency and session deadline for adversary links, in
/// simulated seconds. A byte-trickling peer makes 46 writes (6 dribbled
/// bytes + 40 empty stall writes), charging 5.75s against a 2.0s
/// deadline; every honest attack script finishes well under it.
constexpr double kAdversaryLatencySeconds = 0.125;
constexpr double kAdversaryDeadlineSeconds = 2.0;
/// The deadline probe's ceiling: the crossing write may overshoot by
/// up to two latency charges (one per side of the link).
constexpr double kAdversaryDeadlineSlack = 2 * kAdversaryLatencySeconds;

/// Relay-everything forwarding policy: out-of-filter items travel at
/// Normal priority, so relay storage, eviction, and policy-extra
/// truncation are all exercised. Stateless, hence trivially
/// deterministic.
class RelayAll : public repl::ForwardingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "relay-all"; }
  repl::Priority to_send(const repl::SyncContext&,
                         repl::TransientView) override {
    return repl::Priority::at(repl::PriorityClass::Normal);
  }
};

repl::Filter filter_from_bits(std::uint64_t bits,
                              std::uint64_t addresses) {
  std::set<HostId> addrs;
  for (std::uint64_t a = 0; a < addresses; ++a) {
    if ((bits >> a) & 1u) addrs.insert(HostId(a + 1));
  }
  if (addrs.empty()) addrs.insert(HostId(1 + bits % addresses));
  return repl::Filter::addresses(std::move(addrs));
}

std::map<std::string, std::string> dest_meta(std::uint64_t address) {
  return {{repl::meta::kDest, std::to_string(address)}};
}

std::string fault_str(const SyncFault& fault) {
  std::string out;
  if (fault.cut_after_bytes)
    out += " cut=" + std::to_string(*fault.cut_after_bytes);
  if (fault.max_items) out += " cap=" + std::to_string(*fault.max_items);
  if (fault.bytes_per_second > 0)
    out += " bps=" + std::to_string(fault.bytes_per_second);
  return out;
}

std::string sync_result_str(const repl::SyncStats& stats,
                            bool transport_failed) {
  return "sent=" + std::to_string(stats.items_sent) +
         " new=" + std::to_string(stats.items_new) +
         " stale=" + std::to_string(stats.items_stale) +
         " evict=" + std::to_string(stats.evictions) +
         " bytes=" + std::to_string(stats.request_bytes +
                                    stats.batch_bytes) +
         " complete=" + (stats.complete ? "1" : "0") +
         (transport_failed ? " CUT" : "");
}

/// Applies one schedule and runs the probes. Owns all mutable state of
/// a run so run_scenario stays reentrant.
class Engine {
 public:
  Engine(const Scenario& scenario, bool keep_log)
      : scenario_(scenario),
        oracle_(scenario.config.replicas),
        keep_log_(keep_log) {
    const ScenarioConfig& config = scenario.config;
    replicas_.reserve(config.replicas);
    for (std::size_t i = 0; i < config.replicas; ++i) {
      replicas_.emplace_back(
          ReplicaId(i + 1),
          filter_from_bits(scenario.initial_filter_bits[i],
                           config.addresses),
          repl::ItemStore::Config{config.relay_capacity});
    }
    // Every replica persists through the crash-simulating MemEnv.
    // Every record is fsynced before its hook returns, so the digest
    // probe in apply_crash may demand that recovery reproduces the
    // pre-crash state *exactly*. The sink is write-only (no behavior
    // feedback), so schedules without crash events run identically to
    // a durability-free harness.
    dur_options_.checkpoint_every_bytes = 4096;
    envs_.reserve(config.replicas);
    fault_envs_.reserve(config.replicas);
    mutant_envs_.reserve(config.replicas);
    durabilities_.reserve(config.replicas);
    for (std::size_t i = 0; i < config.replicas; ++i) {
      envs_.push_back(std::make_unique<persist::MemEnv>());
      if (config.disk_fault_rate > 0) {
        // Constructed healthy and armed *after* attach: the engine
        // models a disk that fails under load, not one that was
        // already broken at boot. Faults draw from the wrapper's own
        // stream at run time, so schedule generation is untouched.
        persist::FaultPlan plan;
        plan.seed = scenario.seed ^
                    (0x5eedfa017ULL + i * 0x9e3779b97f4a7c15ULL);
        fault_envs_.push_back(std::make_unique<persist::FaultInjectingEnv>(
            *envs_[i], plan));
      } else {
        fault_envs_.push_back(nullptr);
      }
      // An injected durability bug sits on top of everything else, so
      // a faulting env's errors reach the mutant first.
      std::optional<DurabilityMutant> mutant;
      if (config.inject_ack_before_fsync)
        mutant = DurabilityMutant::AckBeforeFsync;
      if (config.inject_skip_fsync) mutant = DurabilityMutant::SkipFsync;
      mutant_envs_.push_back(
          mutant ? std::make_unique<MutantEnv>(base_env_of(i), *mutant)
                 : nullptr);
      durabilities_.push_back(std::make_unique<persist::Durability>(
          env_of(i), dur_options_));
      durabilities_[i]->attach(replicas_[i]);
      if (fault_envs_[i]) {
        fault_envs_[i]->set_fault_rate(config.disk_fault_rate);
      }
    }
  }

  RunResult run() {
    for (std::size_t i = 0; i < scenario_.events.size(); ++i) {
      const std::string note = apply(i, scenario_.events[i]);
      if (keep_log_)
        result_.log.push_back(format_event(i, scenario_.events[i]) +
                              note);
      if (!result_.violation) probe(i);
      if (result_.violation) return std::move(result_);
    }
    quiesce();
    return std::move(result_);
  }

 private:
  void fail(std::size_t index, std::string probe_name,
            std::string message) {
    if (result_.violation) return;
    result_.violation =
        Violation{index, std::move(probe_name), std::move(message)};
  }

  /// Post-event probe: per-replica internal invariants plus the
  /// oracle's knowledge-soundness check, and — under disk faults — the
  /// degraded/read-only coherence invariant: a durability layer that
  /// has given up on the acknowledgement contract must have flipped
  /// its replica read-only, or silent data loss is one create away.
  void probe(std::size_t index) {
    if (auto violation = oracle_.check_soundness(replicas_))
      fail(index, "knowledge-soundness", *violation);
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (durabilities_[i]->degraded() && !replicas_[i].read_only()) {
        fail(index, "degraded-read-only",
             "r" + std::to_string(i) +
                 "'s durability layer is degraded but the replica still"
                 " accepts mutations");
        return;
      }
    }
  }

  [[nodiscard]] persist::StorageEnv& env_of(std::size_t i) {
    if (mutant_envs_[i]) return *mutant_envs_[i];
    return base_env_of(i);
  }

  /// The env below any injected durability mutant.
  [[nodiscard]] persist::StorageEnv& base_env_of(std::size_t i) {
    if (fault_envs_[i]) return *fault_envs_[i];
    return *envs_[i];
  }

  [[nodiscard]] bool degraded(std::size_t i) const {
    return durabilities_[i]->degraded();
  }

  /// Called after `who` restarts off a repaired disk without a power
  /// loss (heal_disks): a record whose append reached the medium but
  /// whose fsync faulted was refused in memory — write-ahead ordering
  /// guarantees that — yet its bytes are still visible, so recovery
  /// legitimately replays it and the refused mutation *resurrects*.
  /// The contract only forbids losing acknowledged state; surviving
  /// extra is allowed, but the oracle must adopt each resurrected
  /// self-authored version as ground truth or convergence would flag
  /// it as divergence. Only self-authored versions can be un-noted:
  /// any foreign version in a store was acknowledged at its author
  /// (a refused mutation is never served to peers).
  void adopt_survivors(std::size_t who) {
    const repl::Replica& r = replicas_[who];
    r.store().for_each([&](const repl::ItemStore::Entry& entry) {
      if (entry.item.version().author != r.id()) return;
      const auto it = oracle_.latest().find(entry.item.id());
      if (it == oracle_.latest().end() ||
          entry.item.version().dominates(it->second.version())) {
        oracle_.note_latest(entry.item);
      }
    });
  }

  /// Shared verdict on a StorageError that escaped a mutation or a
  /// sync: correct code has already degraded the durability layer and
  /// flipped the replica read-only by the time the fault surfaces, and
  /// — because mutations log write-ahead — refused the mutation before
  /// any in-memory change.
  std::string note_disk_fault(std::size_t index, std::size_t who,
                              const StorageError& fault) {
    ++result_.stats.disk_faults;
    if (!degraded(who)) {
      fail(index, "degrade-on-fault",
           "a hard storage fault escaped r" + std::to_string(who) +
               " without degrading its durability layer: " +
               fault.what());
    } else if (!replicas_[who].read_only()) {
      fail(index, "degraded-read-only",
           "r" + std::to_string(who) +
               " degraded without flipping read-only: " + fault.what());
    }
    return std::string(" -> DISK FAULT (") + fault.what() + ")";
  }

  /// Monotone forward progress across the retry attempts of one
  /// contact: a version that fully arrived in an earlier attempt may
  /// arrive again only if the replica deliberately evicted it in
  /// between. Anything else means the retry discipline restarted
  /// instead of resuming — re-sending progress the cut attempt had
  /// already applied. Checked before the oracle's cross-contact
  /// at-most-once audit so a retry bug is named for what it is.
  void check_monotone(
      std::size_t index, std::size_t who,
      std::set<std::pair<std::uint64_t, std::uint64_t>>& seen,
      const repl::SyncResult& applied) {
    for (const repl::Version& v : applied.received_events) {
      if (!seen.insert({v.author.value(), v.counter}).second) {
        fail(index, "monotone-progress",
             "r" + std::to_string(who) + " re-received event (author " +
                 v.author.str() + ", counter " +
                 std::to_string(v.counter) +
                 ") within one contact: a retry re-sent progress an"
                 " earlier attempt had already applied");
        return;
      }
    }
    for (const repl::Item& item : applied.evicted) {
      seen.erase(
          {item.version().author.value(), item.version().counter});
    }
  }

  /// Audit one applied sync direction: at-most-once ledger first (the
  /// batch was built against knowledge that predates these evictions),
  /// then excuse the events this application forgot.
  void audit_receives(std::size_t index, std::size_t target,
                      const repl::SyncResult& applied) {
    if (auto violation =
            oracle_.on_received(target, applied.received_events)) {
      fail(index, "at-most-once", *violation);
    }
    oracle_.forgive(target, applied.evicted);
    result_.stats.items_moved += applied.stats.items_new;
    result_.stats.evictions += applied.evicted.size();
    if (!applied.stats.complete) ++result_.stats.incomplete;
  }

  std::string apply(std::size_t index, const Event& event) {
    switch (event.kind) {
      case EventKind::Create:
        return apply_create(index, event);
      case EventKind::Mutate:
        return apply_mutate(index, event);
      case EventKind::SetFilter:
        return apply_set_filter(index, event);
      case EventKind::DiscardRelay:
        return apply_discard(index, event);
      case EventKind::Sync:
        return apply_sync(index, event);
      case EventKind::CrashRestart:
        return apply_crash(index, event);
      case EventKind::Adversary:
        return apply_adversary(index, event);
    }
    return "";
  }

  /// A mutation refused with ReadOnlyError is the degraded layer
  /// keeping its promise — legitimate only if the layer actually is
  /// degraded, and always before any in-memory change.
  std::string refused_mutation(std::size_t index, std::size_t who,
                               const ReadOnlyError& err) {
    ++result_.stats.refused;
    if (!degraded(who)) {
      fail(index, "degraded-read-only",
           "r" + std::to_string(who) +
               " refused a mutation while not degraded: " + err.what());
    }
    return " -> refused (read-only)";
  }

  std::string apply_create(std::size_t index, const Event& event) {
    repl::Replica& r = replicas_[event.actor];
    const bool was_degraded = degraded(event.actor);
    try {
      const repl::Item& item = r.create(dest_meta(event.address), {'x'});
      if (was_degraded) {
        fail(index, "degraded-read-only",
             "r" + std::to_string(event.actor) +
                 " acknowledged a create while degraded read-only");
      }
      oracle_.note_latest(item);
      return " -> item " + item.id().str();
    } catch (const ReadOnlyError& err) {
      return refused_mutation(index, event.actor, err);
    } catch (const StorageError& fault) {
      return note_disk_fault(index, event.actor, fault);
    }
  }

  std::string apply_mutate(std::size_t index, const Event& event) {
    repl::Replica& r = replicas_[event.actor];
    std::vector<ItemId> ids;
    r.store().for_each([&](const repl::ItemStore::Entry& entry) {
      if (!entry.item.deleted()) ids.push_back(entry.item.id());
    });
    if (ids.empty()) return " -> no-op (nothing stored)";
    const ItemId id = ids[event.selector % ids.size()];
    const bool was_degraded = degraded(event.actor);
    try {
      if (event.erase) {
        oracle_.note_latest(r.erase(id));
        if (was_degraded) {
          fail(index, "degraded-read-only",
               "r" + std::to_string(event.actor) +
                   " acknowledged an erase while degraded read-only");
        }
        return " -> tombstone " + id.str();
      }
      const auto metadata = r.store().find(id)->item.metadata();
      oracle_.note_latest(r.update(id, metadata, {'u'}));
      if (was_degraded) {
        fail(index, "degraded-read-only",
             "r" + std::to_string(event.actor) +
                 " acknowledged an update while degraded read-only");
      }
      return " -> update " + id.str();
    } catch (const ReadOnlyError& err) {
      return refused_mutation(index, event.actor, err);
    } catch (const StorageError& fault) {
      // Write-ahead ordering: the erase/update was refused before any
      // in-memory change, so there is nothing to track — note_latest is
      // NOT called and the stored item still carries its old version.
      return note_disk_fault(index, event.actor, fault);
    }
  }

  std::string apply_set_filter(std::size_t index, const Event& event) {
    repl::Replica& r = replicas_[event.actor];
    try {
      r.set_filter(
          filter_from_bits(event.selector, scenario_.config.addresses));
      // The rebuild may forget arbitrary events; reset the ledger.
      oracle_.forgive_all(event.actor);
      return " -> " + r.filter().str();
    } catch (const ReadOnlyError& err) {
      return refused_mutation(index, event.actor, err);
    } catch (const StorageError& fault) {
      // Write-ahead ordering: the fault refused the change before the
      // filter was adopted or knowledge rebuilt, so the ledger stands.
      // (If the record's bytes survive, a restart replays the change —
      // filters are read live by the probes and the restart forgives
      // the ledger, so no bookkeeping is needed here.)
      return note_disk_fault(index, event.actor, fault);
    }
  }

  std::string apply_discard(std::size_t index, const Event& event) {
    repl::Replica& r = replicas_[event.actor];
    std::vector<ItemId> ids;
    r.store().for_each([&](const repl::ItemStore::Entry& entry) {
      if (entry.evictable()) ids.push_back(entry.item.id());
    });
    if (ids.empty()) return " -> no-op (no relay copies)";
    const ItemId id = ids[event.selector % ids.size()];
    const repl::Item copy = r.store().find(id)->item;
    try {
      r.discard_relay(id);
      oracle_.forgive(event.actor, {copy});
      return " -> dropped " + id.str();
    } catch (const ReadOnlyError& err) {
      return refused_mutation(index, event.actor, err);
    } catch (const StorageError& fault) {
      // Write-ahead ordering: the copy is still stored (the discard was
      // refused before removal), so nothing needs forgiving. If the
      // record's bytes survive, the restart replays the discard — and
      // forgives the whole ledger anyway.
      return note_disk_fault(index, event.actor, fault);
    }
  }

  std::string apply_sync(std::size_t index, const Event& event) {
    repl::SyncOptions options;
    if (event.fault.max_items) options.max_items = *event.fault.max_items;
    options.unsafe_learn_truncated =
        scenario_.config.inject_learn_truncated;
    if (event.summary) {
      options.summary_mode = repl::SummaryMode::On;
      options.summary_force_collision = event.summary_collide;
      options.unsafe_summary_skip_fallback =
          scenario_.config.inject_summary_skip_fallback;
    }

    repl::Replica& target = replicas_[event.actor];
    repl::Replica& source = replicas_[event.peer];
    const SimTime now(static_cast<std::int64_t>(index));

    // Pre-contact snapshots for the retry-forgets-progress mutant: the
    // buggy discipline discards a cut attempt's partial work and
    // restarts from here instead of resuming.
    std::optional<repl::Replica> actor_snapshot;
    std::optional<repl::Replica> peer_snapshot;
    if (!event.retry_cuts.empty() &&
        scenario_.config.inject_retry_forgets_progress) {
      actor_snapshot = target;
      peer_snapshot = source;
    }
    // Per-contact ledgers for the monotone-progress probe: the version
    // events each side fully received across this contact's attempts.
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen_actor;
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen_peer;

    std::string note;
    for (std::size_t attempt = 0;; ++attempt) {
      // Attempt 0 carries the event's own cut budget; re-dials consult
      // the materialized per-retry schedule (0 = clean attempt).
      const std::uint32_t cut_budget =
          attempt == 0 ? event.fault.cut_after_bytes.value_or(0)
                       : event.retry_cuts[attempt - 1];
      std::optional<std::size_t> window;
      if (cut_budget > 0) window = cut_budget;

      ++result_.stats.syncs;
      if (attempt > 0) {
        note += " | retry#" + std::to_string(attempt) +
                (cut_budget > 0 ? " cut=" + std::to_string(cut_budget)
                                : "");
      }
      // Snapshots for the fault probes, taken per attempt (a disk
      // fault may degrade a side between re-dials): a StorageError may
      // only escape a sync if it degraded one of the participants on
      // the way out, and an already-degraded target must refuse rather
      // than apply.
      const bool actor_was_degraded = degraded(event.actor);
      const bool peer_was_degraded = degraded(event.peer);

      bool cut_this_attempt = false;
      try {
        if (event.encounter) {
          const auto outcome = net::encounter_over_loopback(
              target, source, &policy_, &policy_, now, options, window);
          check_monotone(index, event.actor, seen_actor,
                         outcome.a_pulled.result);
          check_monotone(index, event.peer, seen_peer,
                         outcome.b_applied.result);
          audit_receives(index, event.actor, outcome.a_pulled.result);
          audit_receives(index, event.peer, outcome.b_applied.result);
          cut_this_attempt = outcome.a_pulled.transport_failed ||
                             outcome.b_applied.transport_failed;
          if (cut_this_attempt) ++result_.stats.cuts;
          if (outcome.a_pulled.refused) ++result_.stats.refused;
          if (outcome.b_applied.refused) ++result_.stats.refused;
          check_degraded_leg(index, event.actor, actor_was_degraded,
                             outcome.a_pulled);
          check_degraded_leg(index, event.peer, peer_was_degraded,
                             outcome.b_applied);
          result_.stats.bytes += outcome.bytes_delivered;
          note += " | pull: " +
                  sync_result_str(outcome.a_pulled.result.stats,
                                  outcome.a_pulled.transport_failed) +
                  (outcome.a_pulled.refused ? " REFUSED" : "") +
                  " | push: " +
                  sync_result_str(outcome.b_applied.result.stats,
                                  outcome.b_applied.transport_failed) +
                  (outcome.b_applied.refused ? " REFUSED" : "");
        } else {
          const auto outcome = net::sync_over_loopback(
              source, target, &policy_, &policy_, now, options, window);
          check_monotone(index, event.actor, seen_actor,
                         outcome.client.result);
          audit_receives(index, event.actor, outcome.client.result);
          cut_this_attempt = outcome.client.transport_failed;
          if (cut_this_attempt) ++result_.stats.cuts;
          if (outcome.client.refused) ++result_.stats.refused;
          check_degraded_leg(index, event.actor, actor_was_degraded,
                             outcome.client);
          result_.stats.bytes += outcome.bytes_delivered;
          note += " | " +
                  sync_result_str(outcome.client.result.stats,
                                  outcome.client.transport_failed) +
                  (outcome.client.refused ? " REFUSED" : "");
        }
      } catch (const StorageError& fault) {
        // A hard disk fault surfaced mid-contact (target mid-apply or
        // source mid-serve) and killed it — modeled as a dead contact,
        // and a dead *node*: no re-dial (the retry discipline is for
        // link faults; a degraded disk refuses the next contact).
        // The outcome died with the exception, so whatever either side
        // applied or evicted before the fault was never audited:
        // forgive both ledgers wholesale (an unforgiven eviction would
        // turn a legitimate later re-receive into a false
        // at-most-once hit). Every applied item is still genuine fleet
        // state — its author acknowledged it — so no note_latest
        // bookkeeping is owed.
        oracle_.forgive_all(event.actor);
        oracle_.forgive_all(event.peer);
        ++result_.stats.cuts;
        const bool actor_newly =
            degraded(event.actor) && !actor_was_degraded;
        const bool peer_newly =
            degraded(event.peer) && !peer_was_degraded;
        ++result_.stats.disk_faults;
        if (!actor_newly && !peer_newly) {
          fail(index, "degrade-on-fault",
               "a storage fault escaped the sync r" +
                   std::to_string(event.actor) + " <- r" +
                   std::to_string(event.peer) +
                   " without degrading either side: " + fault.what());
        }
        note += std::string(" | DISK FAULT (") + fault.what() + ")";
        return note;
      }
      // The retry discipline: re-dial only a contact that died
      // mid-stream, while attempts remain and no probe has fired.
      if (!cut_this_attempt || attempt >= event.retry_cuts.size() ||
          result_.violation) {
        return note;
      }
      if (actor_snapshot) {
        // The injected bug: roll both sides back to the pre-contact
        // state, forgetting the cut attempt's applied progress.
        replicas_[event.actor] = *actor_snapshot;
        replicas_[event.peer] = *peer_snapshot;
      }
    }
  }

  /// A target that was already degraded read-only when the contact
  /// opened must have refused its pull leg: applying items would
  /// acknowledge state its durability layer cannot keep.
  void check_degraded_leg(std::size_t index, std::size_t target,
                          bool was_degraded,
                          const net::NetSyncResult& leg) {
    if (!was_degraded || leg.refused) return;
    if (leg.result.stats.items_new > 0) {
      fail(index, "degraded-read-only",
           "degraded r" + std::to_string(target) +
               " applied items from a sync instead of refusing");
    }
  }

  /// One scripted hostile peer attacks the actor's serve_session over
  /// a deadline-armed loopback link: the attacker pre-writes its whole
  /// script (the link buffers; half-duplex, same as the sync drives),
  /// then the victim serves until it rejects, the link dies, or the
  /// batch ends. Two probes: violation-class attacks must end in a
  /// rejection (ContractViolation / ResourceLimitError), and no attack
  /// may hold the session past the deadline in simulated time.
  std::string apply_adversary(std::size_t index, const Event& event) {
    const net::ChaosAttack attack = harness_attack(event);
    const net::ResourceLimits limits =
        scenario_.config.inject_skip_limit_check
            ? net::ResourceLimits::unlimited()
            : adversary_limits();
    net::LoopbackFaults faults;
    faults.latency_seconds = kAdversaryLatencySeconds;
    if (!scenario_.config.inject_no_deadline)
      faults.deadline_seconds = kAdversaryDeadlineSeconds;
    net::LoopbackLink link(faults);

    net::ChaosPeerOptions chaos;
    chaos.limits = adversary_limits();  // size payloads past the caps
    chaos.read_replies = false;         // sequential drive: server not run yet
    const net::ChaosOutcome sent =
        net::run_chaos_attack(link.a(), attack, chaos);

    bool rejected = false;
    bool refused = false;
    std::string reason;
    try {
      const auto outcome = net::serve_session(
          link.b(), replicas_[event.actor], &policy_,
          SimTime(static_cast<std::int64_t>(index)), {}, limits);
      if (outcome.transport_failed) reason = outcome.error;
      // A degraded read-only victim refuses the mutating session up
      // front (Error frame, clean finish): the hostile payload is
      // never parsed, which contains the attack as thoroughly as a
      // rejection would.
      refused = outcome.applied.refused;
      if (refused) ++result_.stats.refused;
    } catch (const ContractViolation& violation) {
      rejected = true;
      reason = violation.what();
    }

    if (net::chaos_attack_is_violation(attack) && !rejected && !refused) {
      fail(index, "adversary-containment",
           std::string("attack ") + net::chaos_attack_name(attack) +
               " on r" + std::to_string(event.actor) +
               " was not rejected (" +
               (reason.empty() ? "session completed" : reason) + ")");
    } else if (!net::chaos_attack_is_violation(attack) && rejected) {
      fail(index, "adversary-containment",
           std::string("attack ") + net::chaos_attack_name(attack) +
               " on r" + std::to_string(event.actor) +
               " looks like a dying link but was rejected as a"
               " violation: " + reason);
    }
    const double elapsed = link.simulated_seconds();
    if (!result_.violation &&
        elapsed > kAdversaryDeadlineSeconds + kAdversaryDeadlineSlack) {
      fail(index, "adversary-deadline",
           std::string("attack ") + net::chaos_attack_name(attack) +
               " held r" + std::to_string(event.actor) + "'s session " +
               std::to_string(elapsed) + "s of simulated time, past the " +
               std::to_string(kAdversaryDeadlineSeconds) + "s deadline");
    }
    return " -> " +
           std::string(rejected ? "rejected"
                       : refused ? "refused (read-only)"
                                 : "absorbed") +
           " bytes_in=" + std::to_string(sent.bytes_sent) +
           " t=" + std::to_string(elapsed);
  }

  /// Append deterministic torn-tail bytes to the crashed log, modeling
  /// the in-flight sectors that happened to reach the medium. Every
  /// mode produces an *invalid* suffix, so a correct recovery truncates
  /// it and the digest probe still demands exact state equality.
  void inject_torn_tail(persist::MemEnv& env, const Event& event) {
    if (event.crash_torn_mode == kTornNone) return;
    // The live log is the newest manifest epoch's segment.
    const std::vector<std::uint64_t> epochs =
        persist::decode_manifest(env.read_file(persist::kManifestFile));
    const std::string wal = persist::wal_file(epochs.back());
    Rng rng(scenario_.seed ^ event.selector ^ 0x746f726eULL);
    std::vector<std::uint8_t> payload(1 + rng.below(40));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    switch (event.crash_torn_mode) {
      case kTornGarbage: {
        env.corrupt_append(wal, payload);
        break;
      }
      case kTornShortRecord: {
        std::vector<std::uint8_t> record =
            persist::encode_wal_record(payload);
        record.resize(1 + rng.below(record.size() - 1));
        env.corrupt_append(wal, record);
        break;
      }
      case kTornBitFlip:
      default: {
        std::vector<std::uint8_t> record =
            persist::encode_wal_record(payload);
        const std::size_t bit = rng.below(record.size() * 8);
        record[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        env.corrupt_append(wal, record);
        break;
      }
    }
  }

  std::string apply_crash(std::size_t index, const Event& event) {
    const std::size_t who = event.actor;
    const bool was_degraded = degraded(who);
    const std::uint64_t pre = persist::state_digest(replicas_[who]);
    // The restart comes with a repaired disk: no fault draws while the
    // layer detaches, recovers, and re-attaches (the operator replaced
    // the medium). Re-armed at the end.
    if (fault_envs_[who]) fault_envs_[who]->set_fault_rate(0.0);
    durabilities_[who]->detach();
    persist::MemEnv& env = *envs_[who];
    env.crash();
    inject_torn_tail(env, event);

    std::optional<persist::RecoveredReplica> recovered;
    try {
      recovered = persist::recover(env_of(who));
    } catch (const ContractViolation& e) {
      fail(index, "crash-recovery",
           "recovery threw at r" + std::to_string(who) + ": " + e.what());
      return " -> RECOVERY FAILED";
    }
    if (!recovered) {
      fail(index, "crash-recovery",
           "no checkpoint found after crash at r" + std::to_string(who));
      return " -> RECOVERY FAILED";
    }
    // The acknowledgement contract: every hook returned with its record
    // fsynced, so recovery must reproduce the pre-crash state exactly —
    // anything less is silently forgotten acknowledged state. A
    // degraded replica is the one excused case: policy transients are
    // soft state whose records are dropped while degraded (the
    // pull-serving path keeps mutating them in memory), so its digest
    // may legitimately run ahead of the disk. Hard state cannot —
    // write-ahead ordering refused every unlogged mutation before it
    // touched memory. The ack-before-fsync mutant acknowledges without
    // degrading, so it faces the exact probe — and fails it.
    const std::uint64_t post = persist::state_digest(recovered->replica);
    if (!was_degraded && post != pre) {
      fail(index, "durability",
           "recovery forgot acknowledged state at r" +
               std::to_string(who) + " (digest " + std::to_string(pre) +
               " -> " + std::to_string(post) + ", " +
               std::to_string(recovered->stats.wal_records_replayed) +
               " records replayed)");
      return " -> STATE LOST";
    }
    const std::string note =
        std::string(" -> recovered (replayed=") +
        std::to_string(recovered->stats.wal_records_replayed) +
        " torn_bytes=" +
        std::to_string(recovered->stats.wal_bytes_truncated) +
        (was_degraded ? " healed" : "") + ")";
    replicas_[who] = std::move(recovered->replica);
    durabilities_[who] =
        std::make_unique<persist::Durability>(env_of(who), dur_options_);
    durabilities_[who]->attach(replicas_[who]);
    if (was_degraded) {
      // The crash truncated any visible-but-unsynced tail (refused
      // mutations died with it, as they may) and the degraded window
      // logged nothing: excuse re-receptions of whatever was forgotten.
      oracle_.forgive_all(who);
    }
    if (fault_envs_[who]) {
      fault_envs_[who]->set_fault_rate(scenario_.config.disk_fault_rate);
    }
    return note;
  }

  /// The operator fixes every disk before quiescence: fault injection
  /// stops, and each degraded replica is restarted off its (now
  /// healthy) disk — recovery, a fresh durability layer, and a clean
  /// attach that clears the degraded state. Restarting is the only way
  /// out of read-only mode by design, and convergence below demands
  /// the restarted fleet still reach exactly the oracle's ground truth.
  void heal_disks() {
    if (scenario_.config.disk_fault_rate <= 0) return;
    for (const auto& fault_env : fault_envs_) {
      if (fault_env) {
        fault_env->set_fault_rate(0.0);
        fault_env->clear_enospc_budget();
      }
    }
    const std::size_t index = scenario_.events.size();
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!degraded(i)) continue;
      durabilities_[i]->detach();
      std::optional<persist::RecoveredReplica> recovered;
      try {
        recovered = persist::recover(env_of(i));
      } catch (const ContractViolation& e) {
        fail(index, "crash-recovery",
             "post-fault restart recovery threw at r" +
                 std::to_string(i) + ": " + e.what());
        return;
      }
      if (!recovered) {
        fail(index, "crash-recovery",
             "no checkpoint found at degraded r" + std::to_string(i) +
                 "'s restart");
        return;
      }
      replicas_[i] = std::move(recovered->replica);
      durabilities_[i] = std::make_unique<persist::Durability>(
          env_of(i), dur_options_);
      durabilities_[i]->attach(replicas_[i]);
      oracle_.forgive_all(i);
      adopt_survivors(i);
      if (keep_log_) {
        result_.log.push_back(
            "heal: r" + std::to_string(i) +
            " restarted off the repaired disk (replayed=" +
            std::to_string(recovered->stats.wal_records_replayed) + ")");
      }
    }
  }

  /// Fault-free, connected all-pairs gossip, then the convergence
  /// probe. Null policies: the substrate alone must converge.
  void quiesce() {
    heal_disks();
    if (result_.violation) return;
    const std::size_t n = replicas_.size();
    for (std::size_t round = 0;
         round < scenario_.config.quiescence_rounds; ++round) {
      for (std::size_t i = 0; i < n && !result_.violation; ++i) {
        for (std::size_t j = 0; j < n && !result_.violation; ++j) {
          if (i == j) continue;
          const auto outcome = net::sync_over_loopback(
              replicas_[j], replicas_[i], nullptr, nullptr,
              SimTime(static_cast<std::int64_t>(
                  1000000 + scenario_.events.size() + round)),
              {}, {});
          audit_receives(scenario_.events.size(), i,
                         outcome.client.result);
          if (outcome.client.transport_failed) {
            fail(scenario_.events.size(), "quiescence",
                 "fault-free loopback sync failed: " +
                     outcome.client.error);
          }
        }
      }
      if (!result_.violation) probe(scenario_.events.size());
      if (result_.violation) return;
    }
    if (auto violation = oracle_.check_convergence(replicas_)) {
      fail(scenario_.events.size(), "eventual-filter-consistency",
           *violation);
    }
    if (!result_.violation) check_equivalence();
    if (keep_log_) {
      result_.log.push_back(
          "quiescence: " + std::to_string(oracle_.latest().size()) +
          " items, " + std::to_string(result_.stats.syncs) + " syncs, " +
          std::to_string(result_.stats.cuts) + " cuts, " +
          std::to_string(result_.stats.bytes) + " bytes" +
          (result_.violation ? " -> VIOLATION" : " -> converged"));
    }
  }

  /// Convergence-equivalence probe, run on the converged fleet: for
  /// every ordered pair, clone both replicas per mode and run one more
  /// fault-free null-policy sync exact and summary-first. Converged
  /// pairs must move zero items in both modes, and the two modes must
  /// leave byte-identical replica state (persist::state_digest covers
  /// store, knowledge, filter, and counters) — the differential claim
  /// the summary fast path rests on, probed here on whatever states
  /// the whole fault schedule produced.
  void check_equivalence() {
    const std::size_t index = scenario_.events.size();
    const std::size_t n = replicas_.size();
    const SimTime now(static_cast<std::int64_t>(2000000 + index));
    for (std::size_t i = 0; i < n && !result_.violation; ++i) {
      for (std::size_t j = 0; j < n && !result_.violation; ++j) {
        if (i == j) continue;
        // Clones so the probe cannot perturb the fleet; sinks cleared
        // so clone mutations are not logged as the originals'.
        repl::Replica exact_source = replicas_[j];
        repl::Replica exact_target = replicas_[i];
        repl::Replica summary_source = replicas_[j];
        repl::Replica summary_target = replicas_[i];
        for (repl::Replica* clone :
             {&exact_source, &exact_target, &summary_source,
              &summary_target}) {
          clone->set_mutation_sink(nullptr);
        }

        repl::SyncOptions summary_options;
        summary_options.summary_mode = repl::SummaryMode::On;
        const auto exact = net::sync_over_loopback(
            exact_source, exact_target, nullptr, nullptr, now, {}, {});
        const auto summary = net::sync_over_loopback(
            summary_source, summary_target, nullptr, nullptr, now,
            summary_options, {});
        const std::string pair = " r" + std::to_string(i) + " <- r" +
                                 std::to_string(j);
        if (exact.client.transport_failed ||
            summary.client.transport_failed) {
          fail(index, "summary-equivalence",
               "fault-free equivalence sync failed" + pair + ": " +
                   (exact.client.transport_failed ? exact.client.error
                                                  : summary.client.error));
          return;
        }
        if (exact.client.result.stats.items_sent != 0 ||
            summary.client.result.stats.items_sent != 0) {
          fail(index, "summary-equivalence",
               "converged pair still moved items" + pair + " (exact=" +
                   std::to_string(exact.client.result.stats.items_sent) +
                   " summary=" +
                   std::to_string(
                       summary.client.result.stats.items_sent) +
                   ")");
          return;
        }
        if (persist::state_digest(exact_target) !=
            persist::state_digest(summary_target)) {
          fail(index, "summary-equivalence",
               "target state diverged between exact and summary modes" +
                   pair);
          return;
        }
        if (persist::state_digest(exact_source) !=
            persist::state_digest(summary_source)) {
          fail(index, "summary-equivalence",
               "source state diverged between exact and summary modes" +
                   pair);
          return;
        }
      }
    }
  }

  const Scenario& scenario_;
  std::vector<repl::Replica> replicas_;
  RelayAll policy_;
  Oracle oracle_;
  RunResult result_;
  bool keep_log_;
  // Declared after replicas_: the sinks detach (and flush) in their
  // destructors while the replicas are still alive.
  persist::DurabilityOptions dur_options_;
  std::vector<std::unique_ptr<persist::MemEnv>> envs_;
  /// Non-null per replica when disk_fault_rate > 0; wraps the MemEnv.
  /// Declared after envs_ (wraps them), before durabilities_ (which
  /// write through them).
  std::vector<std::unique_ptr<persist::FaultInjectingEnv>> fault_envs_;
  /// Non-null per replica under --inject-bug skip-fsync or
  /// ack-before-fsync; wraps the env above.
  std::vector<std::unique_ptr<MutantEnv>> mutant_envs_;
  std::vector<std::unique_ptr<persist::Durability>> durabilities_;
};

}  // namespace

Scenario make_scenario(const ScenarioConfig& config, std::uint64_t seed) {
  Scenario scenario;
  scenario.config = config;
  scenario.seed = seed;
  Rng rng(seed);

  const std::uint64_t mask_space =
      config.addresses >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << config.addresses) - 1;
  const auto random_mask = [&] {
    const std::uint64_t bits = rng() & mask_space;
    return bits == 0 ? std::uint64_t{1} << rng.below(config.addresses)
                     : bits;
  };

  scenario.initial_filter_bits.reserve(config.replicas);
  for (std::size_t i = 0; i < config.replicas; ++i)
    scenario.initial_filter_bits.push_back(random_mask());

  scenario.events.reserve(config.steps);
  for (std::size_t step = 0; step < config.steps; ++step) {
    Event event;
    event.actor =
        static_cast<std::uint32_t>(rng.below(config.replicas));
    const double roll = rng.uniform();
    double band = config.create_rate;
    if (roll < band) {
      event.kind = EventKind::Create;
      event.address = 1 + rng.below(config.addresses);
    } else if (roll < (band += config.mutate_rate)) {
      event.kind = EventKind::Mutate;
      event.selector = rng();
      event.erase = rng.chance(0.3);
    } else if (roll < (band += config.filter_change_rate)) {
      event.kind = EventKind::SetFilter;
      event.selector = random_mask();
    } else if (roll < (band += config.discard_rate)) {
      event.kind = EventKind::DiscardRelay;
      event.selector = rng();
    } else if (roll < (band += config.crash_rate)) {
      // Unreachable at crash_rate == 0, and then consumes no draws —
      // schedules from crash-unaware configs stay bit-identical.
      event.kind = EventKind::CrashRestart;
      event.crash_torn_mode = static_cast<std::uint8_t>(rng.below(4));
      event.selector = rng();
    } else if (roll < (band += config.adversary_rate)) {
      // Same replay-stability contract as the crash band above.
      event.kind = EventKind::Adversary;
      event.selector = rng();
    } else {
      event.kind = EventKind::Sync;
      event.peer = static_cast<std::uint32_t>(
          rng.below(config.replicas - 1));
      if (event.peer >= event.actor) ++event.peer;
      event.encounter = rng.chance(0.5);
      if (rng.chance(config.cut_rate)) {
        // Mixture: half the cuts are early (inside the request or the
        // first frames), half land anywhere in a large exchange.
        event.fault.cut_after_bytes = static_cast<std::uint32_t>(
            rng.chance(0.5) ? 1 + rng.below(256) : 1 + rng.below(4096));
      }
      if (rng.chance(config.cap_rate)) {
        event.fault.max_items =
            static_cast<std::uint32_t>(1 + rng.below(3));
      }
      if (rng.chance(config.throttle_rate)) {
        event.fault.bytes_per_second = static_cast<std::uint32_t>(
            256 + rng.below(64 * 1024));
      }
      // Both draws gated on a nonzero rate, so summary-unaware configs
      // consume no draws here (same contract as the crash band).
      if (config.summary_rate > 0 && rng.chance(config.summary_rate)) {
        event.summary = true;
        if (config.summary_collision_rate > 0 &&
            rng.chance(config.summary_collision_rate)) {
          event.summary_collide = true;
        }
      }
      // Retry schedules, gated like the bands above: only a config
      // with a retry discipline consumes draws, and only cut contacts
      // carry them (re-dials are consulted after a transport failure).
      // Half the re-attempts are cut again, half run clean — so some
      // contacts converge mid-schedule and some stay incomplete for
      // quiescence to finish.
      if (config.sync_retry_max > 0 && event.fault.cut_after_bytes) {
        for (std::size_t a = 0; a < config.sync_retry_max; ++a) {
          event.retry_cuts.push_back(
              rng.chance(0.5)
                  ? static_cast<std::uint32_t>(1 + rng.below(4096))
                  : 0);
        }
      }
    }
    scenario.events.push_back(event);
  }
  return scenario;
}

RunResult run_scenario(const Scenario& scenario, bool keep_log) {
  PFRDTN_REQUIRE(scenario.config.replicas >= 2);
  PFRDTN_REQUIRE(scenario.initial_filter_bits.size() ==
                 scenario.config.replicas);
  Engine engine(scenario, keep_log);
  return engine.run();
}

std::string format_event(std::size_t index, const Event& event) {
  std::string line = "#" + std::to_string(index) + " ";
  switch (event.kind) {
    case EventKind::Create:
      line += "create r" + std::to_string(event.actor) + " dest=" +
              std::to_string(event.address);
      break;
    case EventKind::Mutate:
      line += std::string(event.erase ? "erase" : "update") + " r" +
              std::to_string(event.actor) + " sel=" +
              std::to_string(event.selector % 1000);
      break;
    case EventKind::SetFilter:
      line += "set-filter r" + std::to_string(event.actor) + " bits=" +
              std::to_string(event.selector);
      break;
    case EventKind::DiscardRelay:
      line += "discard r" + std::to_string(event.actor) + " sel=" +
              std::to_string(event.selector % 1000);
      break;
    case EventKind::Sync:
      line += "sync r" + std::to_string(event.actor) + " <- r" +
              std::to_string(event.peer) +
              (event.encounter ? " enc" : "") +
              (event.summary ? " summary" : "") +
              (event.summary_collide ? " collide" : "") +
              fault_str(event.fault) +
              (event.retry_cuts.empty()
                   ? ""
                   : " retries=" + std::to_string(event.retry_cuts.size()));
      break;
    case EventKind::CrashRestart:
      line += "crash r" + std::to_string(event.actor) + " torn=" +
              std::to_string(event.crash_torn_mode) + " sel=" +
              std::to_string(event.selector % 1000);
      break;
    case EventKind::Adversary:
      line += "adversary r" + std::to_string(event.actor) + " attack=" +
              net::chaos_attack_name(harness_attack(event));
      break;
  }
  return line;
}

}  // namespace pfrdtn::check
