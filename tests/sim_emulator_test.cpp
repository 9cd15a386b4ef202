#include "sim/emulator.hpp"

#include <gtest/gtest.h>

#include "sim/experiment.hpp"

namespace pfrdtn::sim {
namespace {

EmulationConfig tiny_config(const std::string& policy = "cimbiosys") {
  EmulationConfig config = small_config(0.15);
  config.policy = policy;
  config.invariant_check_every = 50;
  return config;
}

TEST(Emulation, RunsAndInjectsAllMessages) {
  Emulation emulation(tiny_config());
  const auto result = emulation.run();
  EXPECT_EQ(result.metrics.injected_count(),
            tiny_config().email.total_messages);
  EXPECT_GT(result.metrics.encounter_count(), 0u);
  EXPECT_EQ(result.days, tiny_config().mobility.days);
}

TEST(Emulation, DeterministicAcrossRuns) {
  const auto a = Emulation(tiny_config("epidemic")).run();
  const auto b = Emulation(tiny_config("epidemic")).run();
  EXPECT_EQ(a.metrics.delivered_count(), b.metrics.delivered_count());
  EXPECT_EQ(a.metrics.traffic().items_sent,
            b.metrics.traffic().items_sent);
  ASSERT_EQ(a.metrics.records().size(), b.metrics.records().size());
  auto it_b = b.metrics.records().begin();
  for (const auto& [id, record] : a.metrics.records()) {
    EXPECT_EQ(record.delivered, it_b->second.delivered);
    ++it_b;
  }
}

TEST(Emulation, EpidemicDeliversMoreThanDirect) {
  const auto direct = Emulation(tiny_config("cimbiosys")).run();
  const auto epidemic = Emulation(tiny_config("epidemic")).run();
  EXPECT_GE(epidemic.metrics.delivered_count(),
            direct.metrics.delivered_count());
  if (direct.metrics.delivered_count() > 0 &&
      epidemic.metrics.delivered_count() > 0) {
    EXPECT_LE(epidemic.metrics.delay_distribution().mean(),
              direct.metrics.delay_distribution().mean());
  }
}

TEST(Emulation, AssignmentCoversAllUsersEveryDay) {
  EmulationConfig config = tiny_config();
  Emulation emulation(config);
  const auto& assignment = emulation.assignment();
  ASSERT_EQ(assignment.size(), config.mobility.days);
  const auto mobility = trace::generate_mobility(config.mobility);
  for (std::size_t day = 0; day < assignment.size(); ++day) {
    ASSERT_EQ(assignment[day].size(), config.email.users);
    const auto& active = mobility.active_buses[day];
    for (const auto bus : assignment[day]) {
      EXPECT_NE(std::find(active.begin(), active.end(), bus),
                active.end())
          << "user assigned to unscheduled bus";
    }
  }
}

TEST(Emulation, EncounterCountsAreSymmetric) {
  Emulation emulation(tiny_config());
  const auto& counts = emulation.encounter_counts();
  for (const auto& [a, row] : counts) {
    for (const auto& [b, n] : row) {
      const auto it = counts.find(b);
      ASSERT_NE(it, counts.end());
      const auto cell = it->second.find(a);
      ASSERT_NE(cell, it->second.end());
      EXPECT_EQ(cell->second, n);
    }
  }
}

TEST(Emulation, StorageConstraintRespected) {
  EmulationConfig config = tiny_config("epidemic");
  config.relay_capacity = 2;
  Emulation emulation(config);
  emulation.run();
  // The invariant oracle ran during the emulation; additionally the
  // final stores must respect the cap.
  // (Store state is internal; the invariant_check_every oracle plus
  // the absence of throws is the primary assertion here.)
  SUCCEED();
}

TEST(Emulation, BandwidthConstraintLimitsTraffic) {
  EmulationConfig unconstrained = tiny_config("epidemic");
  EmulationConfig constrained = tiny_config("epidemic");
  constrained.encounter_budget = 1;
  const auto full = Emulation(unconstrained).run();
  const auto limited = Emulation(constrained).run();
  EXPECT_LE(limited.metrics.traffic().items_sent,
            limited.metrics.encounter_count());
  EXPECT_LT(limited.metrics.traffic().items_sent,
            full.metrics.traffic().items_sent);
  EXPECT_LE(limited.metrics.delivered_count(),
            full.metrics.delivered_count());
}

TEST(Emulation, DeleteAfterDeliveryReducesEndCopies) {
  EmulationConfig keep = tiny_config("epidemic");
  EmulationConfig del = tiny_config("epidemic");
  del.delete_after_delivery = true;
  const auto kept = Emulation(keep).run();
  const auto deleted = Emulation(del).run();
  EXPECT_LT(deleted.metrics.mean_copies_at_end(),
            kept.metrics.mean_copies_at_end());
}

TEST(Emulation, SingleSyncModeStillDelivers) {
  EmulationConfig config = tiny_config("epidemic");
  config.single_sync_per_encounter = true;
  const auto result = Emulation(config).run();
  EXPECT_GT(result.metrics.delivered_count(), 0u);
}

TEST(Emulation, CopiesAtDeliveryForDirectIsTwo) {
  // With the null policy only sender and receiver ever hold a copy at
  // delivery time (Figure 8's observation).
  EmulationConfig config = tiny_config("cimbiosys");
  const auto result = Emulation(config).run();
  for (const auto& [id, record] : result.metrics.records()) {
    if (record.delivered && record.copies_at_delivery > 0) {
      EXPECT_LE(record.copies_at_delivery, 2u);
    }
  }
}

TEST(Emulation, AllPoliciesRunCleanly) {
  for (const char* policy :
       {"cimbiosys", "epidemic", "spray", "prophet", "maxprop"}) {
    EmulationConfig config = tiny_config(policy);
    EXPECT_NO_THROW(Emulation(config).run()) << policy;
  }
}

TEST(Emulation, SelectedStrategyBuildsFilters) {
  EmulationConfig config = tiny_config("cimbiosys");
  config.strategy = dtn::FilterStrategy::Selected;
  config.filter_k = 2;
  const auto with_extras = Emulation(config).run();
  config.strategy = dtn::FilterStrategy::SelfOnly;
  config.filter_k = 0;
  const auto self_only = Emulation(config).run();
  EXPECT_GE(with_extras.metrics.delivered_count(),
            self_only.metrics.delivered_count());
}

TEST(Emulation, TrafficIsPinned) {
  // Exact traffic of the tiny configurations. Every sync runs the
  // session machines over a loopback link, so these counts pin the
  // framed bytes of the whole Figure-4 exchange, summaries aside.
  struct Expected {
    const char* name;
    EmulationConfig config;
    std::size_t delivered;
    std::size_t items_sent;
    std::size_t request_bytes;
    std::size_t batch_bytes;
  };
  EmulationConfig budget = tiny_config("epidemic");
  budget.encounter_budget = 1;
  EmulationConfig relay = tiny_config("epidemic");
  relay.relay_capacity = 2;
  EmulationConfig single = tiny_config("epidemic");
  single.single_sync_per_encounter = true;
  const Expected cases[] = {
      {"cimbiosys", tiny_config("cimbiosys"), 73, 51, 2954, 6596},
      {"epidemic", tiny_config("epidemic"), 73, 365, 4801, 30733},
      {"spray", tiny_config("spray"), 73, 365, 5170, 32106},
      {"prophet", tiny_config("prophet"), 73, 322, 7560, 25874},
      {"maxprop", tiny_config("maxprop"), 73, 365, 6571, 31037},
      {"epidemic budget=1", budget, 29, 24, 1867, 3833},
      {"epidemic relay_capacity=2", relay, 73, 754, 3300, 56317},
      {"epidemic single sync", single, 37, 276, 2091, 20759},
  };
  for (const Expected& expected : cases) {
    const auto result = Emulation(expected.config).run();
    const auto& traffic = result.metrics.traffic();
    EXPECT_EQ(result.metrics.delivered_count(), expected.delivered)
        << expected.name;
    EXPECT_EQ(traffic.items_sent, expected.items_sent) << expected.name;
    EXPECT_EQ(traffic.request_bytes, expected.request_bytes)
        << expected.name;
    EXPECT_EQ(traffic.batch_bytes, expected.batch_bytes) << expected.name;
  }
}

}  // namespace
}  // namespace pfrdtn::sim
