/// The check harness checking itself: schedules and runs are
/// bit-deterministic from (config, seed), clean seeds satisfy every
/// substrate invariant, and the intentionally injected knowledge
/// corruption (learning from truncated syncs — the bug the PR 1
/// truncation guard exists to prevent) is caught and shrunk to a
/// handful of events.

#include <gtest/gtest.h>

#include "check/harness.hpp"

namespace pfrdtn::check {
namespace {

TEST(CheckScenario, SchedulesAreDeterministic) {
  ScenarioConfig config;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Scenario one = make_scenario(config, seed);
    const Scenario two = make_scenario(config, seed);
    ASSERT_EQ(one.events.size(), two.events.size());
    ASSERT_EQ(one.initial_filter_bits, two.initial_filter_bits);
    for (std::size_t i = 0; i < one.events.size(); ++i) {
      ASSERT_EQ(format_event(i, one.events[i]),
                format_event(i, two.events[i]))
          << "seed " << seed;
    }
  }
}

TEST(CheckScenario, RunsAreDeterministic) {
  ScenarioConfig config;
  config.steps = 60;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Scenario scenario = make_scenario(config, seed);
    const RunResult one = run_scenario(scenario, /*keep_log=*/true);
    const RunResult two = run_scenario(scenario, /*keep_log=*/true);
    // Identical event logs (which embed every stat) and verdicts.
    EXPECT_EQ(one.log, two.log) << "seed " << seed;
    ASSERT_EQ(one.violation.has_value(), two.violation.has_value());
    if (one.violation) {
      EXPECT_EQ(one.violation->message, two.violation->message);
      EXPECT_EQ(one.violation->event_index, two.violation->event_index);
    }
  }
}

TEST(CheckScenario, CleanSeedsSatisfyAllInvariants) {
  ScenarioConfig config;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult result =
        run_scenario(make_scenario(config, seed));
    EXPECT_FALSE(result.violation.has_value())
        << "seed " << seed << ": [" << result.violation->probe << "] "
        << result.violation->message;
    EXPECT_GT(result.stats.syncs, 0u) << "seed " << seed;
  }
}

TEST(CheckScenario, FaultMixActuallyBites) {
  // The schedules must really exercise the fault space, or the clean
  // runs above prove nothing: across a few seeds we expect cut
  // contacts, incomplete syncs, and relay evictions to all occur.
  ScenarioConfig config;
  RunStats total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RunResult result =
        run_scenario(make_scenario(config, seed));
    ASSERT_FALSE(result.violation.has_value());
    total.syncs += result.stats.syncs;
    total.cuts += result.stats.cuts;
    total.incomplete += result.stats.incomplete;
    total.evictions += result.stats.evictions;
    total.items_moved += result.stats.items_moved;
  }
  EXPECT_GT(total.cuts, 0u);
  EXPECT_GT(total.incomplete, total.cuts);  // caps truncate too
  EXPECT_GT(total.evictions, 0u);
  EXPECT_GT(total.items_moved, 0u);
}

TEST(CheckScenario, InjectedKnowledgeCorruptionIsCaughtAndShrunk) {
  CheckOptions options;
  options.config.inject_learn_truncated = true;
  options.seed = 1;
  options.runs = 10;
  const CheckReport report = run_check(options);
  ASSERT_FALSE(report.passed) << "the reverted truncation guard must "
                                 "trip an invariant within 10 seeds";
  ASSERT_TRUE(report.violation.has_value());
  // The shrinker reduces the failure to a near-minimal reproduction.
  EXPECT_LE(report.shrunk.events.size(), 20u);
  EXPECT_FALSE(report.failing_log.empty());
  // The shrunk scenario is self-contained: re-running it re-fails
  // identically.
  const RunResult replay = run_scenario(report.shrunk);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, report.violation->message);
}

TEST(CheckScenario, CrashEventsRecoverCleanly) {
  // With the real (fsync-per-record) durability config, crash-restart
  // events must be invisible: every seed recovers the exact acknowledged
  // state and the run satisfies all invariants.
  ScenarioConfig config;
  config.crash_rate = 0.25;
  std::size_t crashes = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Scenario scenario = make_scenario(config, seed);
    for (const Event& event : scenario.events)
      crashes += event.kind == EventKind::CrashRestart ? 1 : 0;
    const RunResult result = run_scenario(scenario);
    EXPECT_FALSE(result.violation.has_value())
        << "seed " << seed << ": [" << result.violation->probe << "] "
        << result.violation->message;
  }
  // The schedules must actually exercise all torn-tail modes.
  EXPECT_GT(crashes, 20u);
}

TEST(CheckScenario, CrashRunsAreDeterministic) {
  ScenarioConfig config;
  config.crash_rate = 0.3;
  config.steps = 80;
  const Scenario scenario = make_scenario(config, 11);
  const RunResult one = run_scenario(scenario, /*keep_log=*/true);
  const RunResult two = run_scenario(scenario, /*keep_log=*/true);
  EXPECT_EQ(one.log, two.log);
}

TEST(CheckScenario, ZeroCrashRateKeepsLegacySchedules) {
  // crash_rate defaults to 0 and must consume no RNG draws there:
  // schedules generated before the crash band existed stay
  // bit-identical, so old replay seeds still reproduce.
  ScenarioConfig config;
  const Scenario scenario = make_scenario(config, 1);
  for (const Event& event : scenario.events)
    EXPECT_NE(event.kind, EventKind::CrashRestart);
}

TEST(CheckScenario, SkipFsyncBugIsCaughtAndShrunk) {
  // The durability oracle: a forgotten fsync must surface as a
  // digest-mismatch violation within a few seeds, and the shrinker
  // must reduce it to a near-minimal mutate-then-crash schedule.
  CheckOptions options;
  options.config.crash_rate = 0.3;
  options.config.inject_skip_fsync = true;
  options.seed = 1;
  options.runs = 10;
  const CheckReport report = run_check(options);
  ASSERT_FALSE(report.passed)
      << "skipping fsync must lose acknowledged state within 10 seeds";
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_TRUE(report.violation->probe == "durability" ||
              report.violation->probe == "crash-recovery")
      << report.violation->probe;
  EXPECT_LE(report.shrunk.events.size(), 20u);
  // The shrunk scenario re-fails identically on a fresh engine.
  const RunResult replay = run_scenario(report.shrunk);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, report.violation->message);
}

TEST(CheckScenario, CleanSeedsWithSummariesSatisfyAllInvariants) {
  // With summary syncs (and forced digest collisions) in the mix,
  // clean seeds must still satisfy every invariant — collisions may
  // defer items within one sync but quiescence proves nothing is lost.
  ScenarioConfig config;
  config.summary_rate = 0.5;
  config.summary_collision_rate = 0.3;
  std::size_t summaries = 0;
  std::size_t collisions = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Scenario scenario = make_scenario(config, seed);
    for (const Event& event : scenario.events) {
      summaries += event.summary ? 1 : 0;
      collisions += event.summary_collide ? 1 : 0;
    }
    const RunResult result = run_scenario(scenario);
    EXPECT_FALSE(result.violation.has_value())
        << "seed " << seed << ": [" << result.violation->probe << "] "
        << result.violation->message;
  }
  // The schedules must actually exercise the summary band.
  EXPECT_GT(summaries, 20u);
  EXPECT_GT(collisions, 0u);
}

TEST(CheckScenario, SummaryRunsAreDeterministic) {
  ScenarioConfig config;
  config.summary_rate = 0.6;
  config.summary_collision_rate = 0.2;
  config.steps = 80;
  const Scenario scenario = make_scenario(config, 13);
  const RunResult one = run_scenario(scenario, /*keep_log=*/true);
  const RunResult two = run_scenario(scenario, /*keep_log=*/true);
  EXPECT_EQ(one.log, two.log);
}

TEST(CheckScenario, ZeroSummaryRateKeepsLegacySchedules) {
  // summary_rate defaults to 0 and must consume no RNG draws there:
  // schedules generated before the summary band existed stay
  // bit-identical, so old replay seeds still reproduce.
  ScenarioConfig config;
  const Scenario scenario = make_scenario(config, 1);
  for (const Event& event : scenario.events) {
    EXPECT_FALSE(event.summary);
    EXPECT_FALSE(event.summary_collide);
  }
}

TEST(CheckScenario, SummarySkipFallbackBugIsCaughtAndShrunk) {
  // The summary-protocol oracle: skipping the exact fallback after a
  // digest miss silently drops the transfer, which the quiescence /
  // equivalence probes must surface within a few seeds — and the
  // shrinker must reduce it to a near-minimal schedule.
  CheckOptions options;
  options.config.summary_rate = 0.6;
  options.config.inject_summary_skip_fallback = true;
  options.seed = 1;
  options.runs = 10;
  const CheckReport report = run_check(options);
  ASSERT_FALSE(report.passed)
      << "skipping the miss fallback must trip an invariant within 10 seeds";
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_TRUE(report.violation->probe == "knowledge-soundness" ||
              report.violation->probe == "summary-equivalence" ||
              report.violation->probe == "quiescence")
      << report.violation->probe;
  EXPECT_LE(report.shrunk.events.size(), 20u);
  // The shrunk scenario re-fails identically on a fresh engine.
  const RunResult replay = run_scenario(report.shrunk);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, report.violation->message);
}

TEST(CheckScenario, CleanSeedsWithDiskFaultsSatisfyAllInvariants) {
  // Under injected storage faults the correct stack degrades to
  // read-only, refuses what it can no longer acknowledge, and after
  // the heal-and-restart phase still converges on exactly the oracle's
  // ground truth — no clean seed may trip any probe.
  ScenarioConfig config;
  config.disk_fault_rate = 0.02;
  config.crash_rate = 0.15;
  RunStats total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult result = run_scenario(make_scenario(config, seed));
    EXPECT_FALSE(result.violation.has_value())
        << "seed " << seed << ": [" << result.violation->probe << "] "
        << result.violation->message;
    total.disk_faults += result.stats.disk_faults;
    total.refused += result.stats.refused;
  }
  // The fault plan must actually bite, and bitten replicas must have
  // refused follow-up work — otherwise the clean runs prove nothing.
  EXPECT_GT(total.disk_faults, 0u);
  EXPECT_GT(total.refused, 0u);
}

TEST(CheckScenario, DiskFaultRunsAreDeterministic) {
  ScenarioConfig config;
  config.disk_fault_rate = 0.03;
  config.crash_rate = 0.2;
  config.steps = 80;
  const Scenario scenario = make_scenario(config, 17);
  const RunResult one = run_scenario(scenario, /*keep_log=*/true);
  const RunResult two = run_scenario(scenario, /*keep_log=*/true);
  EXPECT_EQ(one.log, two.log);
}

TEST(CheckScenario, DiskFaultRateConsumesNoScheduleDraws) {
  // Fault draws happen at run time inside FaultInjectingEnv, never at
  // generation time: a disk-fault config must produce bit-identical
  // schedules to the default config, so old replay seeds still
  // reproduce.
  ScenarioConfig with_faults;
  with_faults.disk_fault_rate = 0.5;
  const Scenario faulty = make_scenario(with_faults, 1);
  const Scenario baseline = make_scenario(ScenarioConfig{}, 1);
  ASSERT_EQ(faulty.events.size(), baseline.events.size());
  for (std::size_t i = 0; i < faulty.events.size(); ++i) {
    EXPECT_EQ(format_event(i, faulty.events[i]),
              format_event(i, baseline.events[i]));
  }
}

TEST(CheckScenario, TornTailsLandOnTheGenerationWal) {
  // Regression: the torn-tail injector used to append to the legacy
  // "wal.log", which the generation layout never reads — every torn
  // mode was a silent no-op. The crash notes report the truncated
  // bytes, so some crash across these seeds must observe a nonzero
  // torn tail.
  ScenarioConfig config;
  config.crash_rate = 0.3;
  bool torn_observed = false;
  for (std::uint64_t seed = 1; seed <= 6 && !torn_observed; ++seed) {
    const RunResult result =
        run_scenario(make_scenario(config, seed), /*keep_log=*/true);
    ASSERT_FALSE(result.violation.has_value());
    for (const std::string& line : result.log) {
      const auto pos = line.find("torn_bytes=");
      if (pos != std::string::npos && line[pos + 11] != '0') {
        torn_observed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(torn_observed)
      << "no crash recovery ever truncated injected torn bytes";
}

TEST(CheckScenario, AckBeforeFsyncBugIsCaughtAndShrunk) {
  // The fsyncgate oracle: a stack that swallows fsync failures and
  // acknowledges anyway never degrades, so it faces the exact-digest
  // crash probe with records a failed fsync silently dropped — the
  // harness must catch the loss within a few seeds and shrink it to a
  // near-minimal mutate/fault/crash schedule.
  CheckOptions options;
  options.config.disk_fault_rate = 0.05;
  options.config.crash_rate = 0.3;
  options.config.inject_ack_before_fsync = true;
  options.seed = 1;
  options.runs = 10;
  const CheckReport report = run_check(options);
  ASSERT_FALSE(report.passed)
      << "acking before fsync must lose acknowledged state within 10 seeds";
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_TRUE(report.violation->probe == "durability" ||
              report.violation->probe == "crash-recovery")
      << report.violation->probe;
  EXPECT_LE(report.shrunk.events.size(), 20u);
  // The shrunk scenario re-fails identically on a fresh engine.
  const RunResult replay = run_scenario(report.shrunk);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, report.violation->message);
}

TEST(CheckScenario, RetryBandConvergesAndActuallyRetries) {
  // The retrying contact discipline under a hostile cut mix: every
  // seed must satisfy every invariant (retries re-deliver nothing
  // twice, knowledge stays sound, progress is monotone), and the
  // schedules must actually exercise re-dials or the clean runs prove
  // nothing.
  ScenarioConfig config;
  config.sync_retry_max = 3;
  config.cut_rate = 0.5;
  RunStats total;
  std::size_t redials = 0;  // log lines with a re-dial
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RunResult result =
        run_scenario(make_scenario(config, seed), /*keep_log=*/true);
    EXPECT_FALSE(result.violation.has_value())
        << "seed " << seed << ": [" << result.violation->probe << "] "
        << result.violation->message;
    total.cuts += result.stats.cuts;
    total.syncs += result.stats.syncs;
    // Each re-dial notes "retry#N" on its event's log line.
    for (const std::string& line : result.log)
      redials += line.find("retry#") != std::string::npos ? 1 : 0;
  }
  EXPECT_GT(total.cuts, 0u);
  EXPECT_GT(redials, 0u) << "no contact was ever re-dialed";
}

TEST(CheckScenario, RetryRunsAreDeterministic) {
  ScenarioConfig config;
  config.sync_retry_max = 3;
  config.cut_rate = 0.6;
  config.steps = 80;
  const Scenario scenario = make_scenario(config, 19);
  const RunResult one = run_scenario(scenario, /*keep_log=*/true);
  const RunResult two = run_scenario(scenario, /*keep_log=*/true);
  EXPECT_EQ(one.log, two.log);
}

TEST(CheckScenario, ZeroRetryMaxKeepsLegacySchedules) {
  // sync_retry_max defaults to 0 and must consume no RNG draws there:
  // schedules generated before the retry band existed stay
  // bit-identical, so old replay seeds still reproduce. With retries
  // on, budgets appear only on cut Sync events, one per re-attempt.
  ScenarioConfig config;
  const Scenario baseline = make_scenario(config, 1);
  for (const Event& event : baseline.events)
    EXPECT_TRUE(event.retry_cuts.empty());

  config.sync_retry_max = 3;
  const Scenario retrying = make_scenario(config, 1);
  std::size_t with_budgets = 0;
  for (const Event& event : retrying.events) {
    if (event.retry_cuts.empty()) continue;
    EXPECT_EQ(event.kind, EventKind::Sync);
    EXPECT_TRUE(event.fault.cut_after_bytes.has_value());
    EXPECT_EQ(event.retry_cuts.size(), 3u);
    with_budgets += 1;
  }
  EXPECT_GT(with_budgets, 0u);
}

TEST(CheckScenario, RetryForgetsProgressBugIsCaughtAndShrunk) {
  // The retry oracle: a client that rolls its partial work back
  // between attempts re-receives versions it already applied, which
  // the monotone-progress probe must catch — and the shrinker must
  // reduce it to a near-minimal create-then-cut-sync schedule.
  CheckOptions options;
  options.config.sync_retry_max = 3;
  options.config.inject_retry_forgets_progress = true;
  options.seed = 1876;
  options.runs = 10;
  const CheckReport report = run_check(options);
  ASSERT_FALSE(report.passed)
      << "forgetting retry progress must trip a probe within 10 seeds";
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_TRUE(report.violation->probe == "monotone-progress" ||
              report.violation->probe == "at-most-once")
      << report.violation->probe;
  EXPECT_LE(report.shrunk.events.size(), 20u);
  // The shrunk scenario re-fails identically on a fresh engine.
  const RunResult replay = run_scenario(report.shrunk);
  ASSERT_TRUE(replay.violation.has_value());
  EXPECT_EQ(replay.violation->message, report.violation->message);
}

TEST(CheckScenario, ShrinkingIsDeterministic) {
  CheckOptions options;
  options.config.inject_learn_truncated = true;
  options.seed = 1;
  options.runs = 1;
  const CheckReport one = run_check(options);
  const CheckReport two = run_check(options);
  ASSERT_FALSE(one.passed);
  ASSERT_FALSE(two.passed);
  ASSERT_EQ(one.shrunk.events.size(), two.shrunk.events.size());
  EXPECT_EQ(one.shrink_runs, two.shrink_runs);
  EXPECT_EQ(one.failing_log, two.failing_log);
  EXPECT_EQ(one.violation->message, two.violation->message);
}

}  // namespace
}  // namespace pfrdtn::check
