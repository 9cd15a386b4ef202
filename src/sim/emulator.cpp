#include "sim/emulator.hpp"

#include <algorithm>

#include "dtn/registry.hpp"
#include "sim/event_queue.hpp"
#include "util/logging.hpp"

namespace pfrdtn::sim {

Emulation::Emulation(EmulationConfig config)
    : Emulation(config, trace::generate_mobility(config.mobility),
                trace::generate_email(config.email)) {}

Emulation::Emulation(EmulationConfig config,
                     trace::MobilityTrace mobility,
                     trace::EmailWorkload email)
    : config_(std::move(config)),
      mobility_(std::move(mobility)),
      email_(std::move(email)) {
  PFRDTN_REQUIRE(!email_.users.empty());
  PFRDTN_REQUIRE(mobility_.fleet_size > 0);

  repl::ItemStore::Config store_config;
  store_config.relay_capacity = config_.relay_capacity;
  nodes_.reserve(mobility_.fleet_size);
  for (std::size_t bus = 0; bus < mobility_.fleet_size; ++bus) {
    // Replica ids start at 1; 0 would collide with StrongId semantics
    // for "self" sentinels in policies.
    auto node = std::make_unique<dtn::DtnNode>(ReplicaId(bus + 1),
                                               store_config);
    node->set_policy(
        dtn::make_policy(config_.policy, config_.policy_params));
    nodes_.push_back(std::move(node));
  }

  build_assignment();
  build_encounter_counts();
  // The multi-address filter strategies operate over bus addresses:
  // "the k other hosts that a given host will encounter most".
  std::vector<HostId> bus_addresses;
  bus_addresses.reserve(mobility_.fleet_size);
  for (std::size_t bus = 0; bus < mobility_.fleet_size; ++bus)
    bus_addresses.push_back(bus_address(static_cast<trace::BusIndex>(bus)));
  Rng filter_rng(config_.assignment_seed ^ 0xF11753ULL);
  filter_plan_ =
      dtn::FilterPlan::build(config_.strategy, config_.filter_k,
                             bus_addresses, encounter_counts_, filter_rng);
  configure_nodes();
}

void Emulation::build_assignment() {
  Rng rng(config_.assignment_seed);
  const std::size_t days = mobility_.days();
  assignment_.assign(days, {});

  // Each user has a home bus, assigned uniformly over the fleet; on a
  // day when the home bus is scheduled the user rides it (commuters
  // keep their route), otherwise the user is distributed uniformly
  // over that day's scheduled buses. This matches the paper's setup —
  // users are (re)distributed over each day's scheduled buses — while
  // keeping destinations stable enough that unmodified Cimbiosys
  // stores ~2 copies per delivered message (Figure 8).
  std::vector<trace::BusIndex> home(email_.users.size());
  for (auto& bus : home)
    bus = static_cast<trace::BusIndex>(rng.below(mobility_.fleet_size));

  for (std::size_t day = 0; day < days; ++day) {
    const auto& active = mobility_.active_buses[day];
    PFRDTN_REQUIRE(!active.empty());
    std::vector<bool> is_active(mobility_.fleet_size, false);
    for (const trace::BusIndex bus : active) is_active[bus] = true;
    assignment_[day].assign(email_.users.size(), 0);
    for (std::size_t user = 0; user < email_.users.size(); ++user) {
      const bool at_home = is_active[home[user]] &&
                           !rng.chance(config_.user_errand_prob);
      assignment_[day][user] =
          at_home ? home[user] : active[rng.below(active.size())];
    }
  }
}

void Emulation::build_encounter_counts() {
  // Bus-level meeting counts over the whole schedule — the oracle the
  // Selected strategy uses ("will encounter most in the trace").
  for (const trace::Encounter& encounter : mobility_.encounters) {
    const HostId a = bus_address(encounter.bus_a);
    const HostId b = bus_address(encounter.bus_b);
    ++encounter_counts_[a][b];
    ++encounter_counts_[b][a];
  }
}

void Emulation::configure_nodes() {
  // Each bus permanently hosts its own address; the filter strategies
  // add k other buses' addresses as relay interests. Filters are
  // static for the whole run.
  for (std::size_t bus = 0; bus < nodes_.size(); ++bus) {
    const HostId self = bus_address(static_cast<trace::BusIndex>(bus));
    std::set<HostId> extras = filter_plan_.extras_for(self);
    extras.erase(self);
    nodes_[bus]->set_addresses({self}, std::move(extras), SimTime(0));
  }
}

void Emulation::inject(const trace::MessageEvent& event) {
  const auto day = static_cast<std::size_t>(event.time.day_index());
  PFRDTN_REQUIRE(day < assignment_.size());
  const auto index_of = [&](HostId user) {
    const auto it =
        std::find(email_.users.begin(), email_.users.end(), user);
    PFRDTN_REQUIRE(it != email_.users.end());
    return static_cast<std::size_t>(it - email_.users.begin());
  };
  // The user-to-bus assignment of the injection day decides which node
  // sends and which node the message is addressed to.
  const trace::BusIndex sender_bus =
      assignment_[day][index_of(event.sender)];
  const trace::BusIndex recipient_bus =
      assignment_[day][index_of(event.recipient)];
  dtn::DtnNode& node = *nodes_[sender_bus];

  const dtn::MessageId id = node.send(
      event.sender, {bus_address(recipient_bus)},
      "m" + std::to_string(metrics_.injected_count()), event.time);
  metrics_.on_injected(id, event.sender, event.recipient, event.time);
  // Degenerate case: sender and recipient ride the same bus today.
  if (node.has_delivered(id)) {
    metrics_.on_delivered(id, event.time, count_copies(id));
    if (config_.delete_after_delivery) node.expunge(id);
  }
}

void Emulation::record_deliveries(
    const std::vector<dtn::Message>& delivered, dtn::DtnNode& node,
    SimTime now) {
  for (const dtn::Message& message : delivered) {
    if (metrics_.on_delivered(message.id, now,
                              count_copies(message.id))) {
      PFRDTN_LOG(Debug) << "delivered " << message.id.str() << " at "
                        << now.str();
    }
    if (config_.delete_after_delivery) node.expunge(message.id);
  }
}

void Emulation::handle_encounter(const trace::Encounter& encounter) {
  dtn::DtnNode& a = *nodes_[encounter.bus_a];
  dtn::DtnNode& b = *nodes_[encounter.bus_b];
  dtn::EncounterOptions options;
  options.encounter_budget = config_.encounter_budget;
  options.learn_knowledge = config_.learn_knowledge;

  if (config_.single_sync_per_encounter) {
    repl::SyncOptions sync_options;
    sync_options.learn_knowledge = options.learn_knowledge;
    sync_options.max_items = options.encounter_budget;
    const auto result =
        repl::run_sync(b.replica(), a.replica(), b.policy(), a.policy(),
                       encounter.time, sync_options);
    metrics_.on_sync(result.stats);
    record_deliveries(a.on_sync_delivered(result.delivered,
                                          encounter.time),
                      a, encounter.time);
    if (a.policy()) a.policy()->encounter_complete(b.id(), encounter.time);
    if (b.policy()) b.policy()->encounter_complete(a.id(), encounter.time);
  } else {
    const auto outcome = run_encounter(a, b, encounter.time, options);
    metrics_.on_sync(outcome.stats);
    // run_encounter already performed app-level delivery bookkeeping
    // inside the nodes; record globally here.
    record_deliveries(outcome.delivered_a, a, encounter.time);
    record_deliveries(outcome.delivered_b, b, encounter.time);
  }
  metrics_.on_encounter();
  metrics_.sample_knowledge_bytes(
      static_cast<double>(a.replica().knowledge().size_bytes()));

  if (config_.invariant_check_every != 0 &&
      metrics_.encounter_count() % config_.invariant_check_every == 0) {
    check_invariants();
  }
}

std::size_t Emulation::count_copies(dtn::MessageId id) const {
  std::size_t copies = 0;
  for (const auto& node : nodes_) {
    const auto* entry = node->replica().store().find(id);
    if (entry != nullptr && !entry->item.deleted()) ++copies;
  }
  return copies;
}

void Emulation::check_invariants() const {
  for (const auto& node : nodes_) {
    const std::string violation = node->replica().check_invariants();
    if (!violation.empty()) throw ContractViolation(violation);
  }
}

EmulationResult Emulation::run() {
  EventQueue queue;
  for (const trace::MessageEvent& event : email_.messages) {
    queue.schedule(event.time,
                   [this, event](SimTime) { inject(event); });
  }
  for (const trace::Encounter& encounter : mobility_.encounters) {
    queue.schedule(encounter.time, [this, encounter](SimTime) {
      handle_encounter(encounter);
    });
  }
  queue.run();

  // Final bookkeeping: copies stored at the end of the experiment.
  for (const auto& [id, record] : metrics_.records())
    metrics_.set_copies_at_end(id, count_copies(id));
  if (config_.invariant_check_every != 0) check_invariants();

  EmulationResult result;
  result.metrics = std::move(metrics_);
  result.days = mobility_.days();
  result.users = email_.users.size();
  result.fleet_size = mobility_.fleet_size;
  return result;
}

}  // namespace pfrdtn::sim
