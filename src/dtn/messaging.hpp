#pragma once

/// \file messaging.hpp
/// The DTN messaging application: one DtnNode per device, owning a
/// replica and an optional routing policy. Sending a message "simply
/// inserts the message into the sending host's replica"; delivery
/// happens when a message item reaches a node hosting one of its
/// destination addresses. The node's filter is the union of its hosted
/// addresses and any extra forwarding addresses (the multi-address
/// filter strategies of Section IV-B).

#include <functional>
#include <memory>
#include <set>
#include <unordered_set>

#include "dtn/message.hpp"
#include "dtn/policy.hpp"
#include "repl/sync.hpp"

namespace pfrdtn::dtn {

class DtnNode {
 public:
  explicit DtnNode(ReplicaId id, repl::ItemStore::Config store_config = {})
      : replica_(id, repl::Filter::none(), store_config) {}

  /// Adopt a recovered replica (crash restart from a state directory;
  /// see src/persist/). Seed the delivered-message ledger from
  /// RecoveredReplica::delivered and wire set_delivery_sink back into
  /// persist::Durability::note_delivered to make delivery reporting
  /// exactly-once across crashes, not just per process lifetime.
  explicit DtnNode(repl::Replica replica) : replica_(std::move(replica)) {}

  [[nodiscard]] ReplicaId id() const { return replica_.id(); }
  [[nodiscard]] repl::Replica& replica() { return replica_; }
  [[nodiscard]] const repl::Replica& replica() const { return replica_; }

  /// Install (or replace) the routing policy. The policy is bound to
  /// this node's replica.
  void set_policy(PolicyPtr policy);
  [[nodiscard]] DtnPolicy* policy() const { return policy_.get(); }

  /// Addresses whose messages this node consumes (its users).
  [[nodiscard]] const std::set<HostId>& hosted() const { return hosted_; }
  /// Extra addresses in the filter for which this node merely relays.
  [[nodiscard]] const std::set<HostId>& extra_addresses() const {
    return extra_;
  }

  /// Reconfigure hosted + extra addresses (e.g. the evaluation's daily
  /// user-to-bus reassignment). Stored messages that now reach one of
  /// their destinations are returned as fresh deliveries.
  std::vector<Message> set_addresses(std::set<HostId> hosted,
                                     std::set<HostId> extra, SimTime now);

  /// Create and inject a message authored by `from` (which should be a
  /// hosted address) to the given destinations.
  MessageId send(HostId from, std::vector<HostId> to, std::string body,
                 SimTime now);

  /// Delete a delivered message locally (tombstone; propagates and
  /// clears forwarding copies as relays learn of it).
  void expunge(MessageId id) { replica_.erase(id); }

  /// Process the delivered-item output of a sync in which this node
  /// was the target; returns messages newly delivered to hosted
  /// addresses (app-level exactly-once per node).
  std::vector<Message> on_sync_delivered(
      const std::vector<repl::Item>& items, SimTime now);

  /// Total number of distinct messages delivered at this node.
  [[nodiscard]] std::size_t delivered_count() const {
    return delivered_.size();
  }
  [[nodiscard]] bool has_delivered(MessageId id) const {
    return delivered_.count(id) > 0;
  }

  /// Pre-mark messages as already delivered (recovered ledger): they
  /// will never re-report. Call before any delivery can happen.
  void seed_delivered(const std::set<ItemId>& ids) {
    delivered_.insert(ids.begin(), ids.end());
  }

  /// Observer invoked once per first-time delivery, before the message
  /// is handed to the application. A durability layer persists the id
  /// here; if persisting throws, the ledger entry is rolled back and
  /// the message is NOT reported — it re-reports after recovery
  /// instead of being lost (at-least-once degraded, never dropped).
  void set_delivery_sink(std::function<void(ItemId)> sink) {
    delivery_sink_ = std::move(sink);
  }

 private:
  /// The node's filter: hosted ∪ extra addresses.
  [[nodiscard]] repl::Filter make_filter() const;
  /// Check one item for app-level delivery.
  bool try_deliver(const repl::Item& item, SimTime now,
                   std::vector<Message>& out);

  repl::Replica replica_;
  PolicyPtr policy_;
  std::set<HostId> hosted_;
  std::set<HostId> extra_;
  std::unordered_set<ItemId> delivered_;
  std::function<void(ItemId)> delivery_sink_;
};

/// Run the paper's full encounter procedure between two nodes: two
/// synchronizations with source and target roles alternating, a shared
/// optional bandwidth budget for the whole encounter, and
/// encounter-completion notifications to both policies.
struct EncounterOptions {
  /// Total items transferable across both syncs (Figure 9 uses 1).
  std::optional<std::size_t> encounter_budget;
  bool learn_knowledge = true;
};

struct EncounterOutcome {
  repl::SyncStats stats;                 ///< both syncs accumulated
  std::vector<Message> delivered_a;      ///< delivered at `a`
  std::vector<Message> delivered_b;      ///< delivered at `b`
};

EncounterOutcome run_encounter(DtnNode& a, DtnNode& b, SimTime now,
                               const EncounterOptions& options = {});

}  // namespace pfrdtn::dtn
