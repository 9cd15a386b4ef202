#pragma once

/// \file emulator.hpp
/// The paper's emulation environment (Section VI-A): "many instances
/// of our DTN application on the same physical machine", one DtnNode
/// per bus, driven by a vehicular encounter trace and an e-mail
/// workload. Each day, e-mail users are distributed over the buses
/// scheduled for that day; the user mapping determines which *nodes*
/// exchange messages ("we used this dataset to determine which node
/// sends messages to which other nodes"). A message is injected by
/// inserting it into the sender's current bus replica, addressed to
/// the recipient's current bus; two syncs run per encounter; the
/// message counts as delivered when it reaches that destination bus.
///
/// Addressing buses (not roaming users) is what reproduces Figure 8's
/// observation that unmodified Cimbiosys stores exactly two copies per
/// delivered message — a roaming destination would keep pulling fresh
/// copies to each new host.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dtn/filter_strategy.hpp"
#include "dtn/messaging.hpp"
#include "sim/metrics.hpp"
#include "trace/email.hpp"
#include "trace/mobility.hpp"

namespace pfrdtn::sim {

struct EmulationConfig {
  trace::MobilityConfig mobility;
  trace::EmailConfig email;

  /// Routing policy name (see dtn::make_policy) and overrides.
  std::string policy = "cimbiosys";
  std::map<std::string, double> policy_params;

  /// Multi-address filter strategy (Section IV-B / Figures 5-6).
  dtn::FilterStrategy strategy = dtn::FilterStrategy::SelfOnly;
  std::size_t filter_k = 0;

  /// Bandwidth constraint: items transferable per encounter (Fig. 9).
  std::optional<std::size_t> encounter_budget;
  /// Storage constraint: relayed messages stored per node (Fig. 10).
  std::optional<std::size_t> relay_capacity;

  /// Ablations / extensions.
  bool delete_after_delivery = false;  ///< tombstone delivered messages
  bool learn_knowledge = true;         ///< scoped knowledge merging
  bool single_sync_per_encounter = false;

  /// Run the store/knowledge soundness oracle every N encounters
  /// (0 = disabled). Violations throw ContractViolation.
  std::size_t invariant_check_every = 0;

  /// Probability that a user rides a uniformly random scheduled bus on
  /// a day even though their home bus is scheduled (errands; adds the
  /// cross-pair mixing a real rider population has).
  double user_errand_prob = 0.4;

  /// Seed for the daily user-to-bus assignment and filter strategies.
  std::uint64_t assignment_seed = 99;
};

struct EmulationResult {
  Metrics metrics;
  std::size_t days = 0;
  std::size_t users = 0;
  std::size_t fleet_size = 0;
};

class Emulation {
 public:
  explicit Emulation(EmulationConfig config);
  /// Use pre-generated traces (tests; real converted traces).
  Emulation(EmulationConfig config, trace::MobilityTrace mobility,
            trace::EmailWorkload email);

  /// Run the full experiment and return the collected metrics.
  EmulationResult run();

  /// The per-day user-to-bus assignment (exposed for tests and for the
  /// Selected filter strategy's oracle). assignment()[day][user_index]
  /// is the bus hosting that user on that day.
  [[nodiscard]] const std::vector<std::vector<trace::BusIndex>>&
  assignment() const {
    return assignment_;
  }

  /// Pairwise bus-level encounter counts from the trace (keyed by bus
  /// address; drives the Selected filter strategy).
  [[nodiscard]] const dtn::EncounterCounts& encounter_counts() const {
    return encounter_counts_;
  }

  /// The DTN address of a bus (buses host one permanent address each).
  [[nodiscard]] static HostId bus_address(trace::BusIndex bus) {
    return HostId(kBusAddressBase + bus);
  }

 private:
  static constexpr std::uint64_t kBusAddressBase = 100000;

  void build_assignment();
  void build_encounter_counts();
  void configure_nodes();
  void inject(const trace::MessageEvent& event);
  void handle_encounter(const trace::Encounter& encounter);
  void record_deliveries(const std::vector<dtn::Message>& delivered,
                         dtn::DtnNode& node, SimTime now);
  std::size_t count_copies(dtn::MessageId id) const;
  void check_invariants() const;

  EmulationConfig config_;
  trace::MobilityTrace mobility_;
  trace::EmailWorkload email_;
  std::vector<std::unique_ptr<dtn::DtnNode>> nodes_;
  /// assignment_[day][user_index] -> bus index hosting that user.
  std::vector<std::vector<trace::BusIndex>> assignment_;
  dtn::EncounterCounts encounter_counts_;
  dtn::FilterPlan filter_plan_;
  Metrics metrics_;
};

}  // namespace pfrdtn::sim
