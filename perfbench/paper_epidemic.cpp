/// paper_epidemic: the emulator wall-time number. sim::Emulation over
/// sim::paper_config(seed) with the epidemic policy on the default
/// in-process sync path; one op is one encounter (13,928 per
/// emulation, two syncs each). Like the paper, which ran one DieselNet
/// trace, every seed runs the calibrated seed-4 bus trace; the seed
/// draws the e-mail workload and the daily user-to-bus assignment. So
/// seed 4 is exactly paper_config(4), the figure configuration.
/// One emulation runs per started 10 s of --seconds, so the op count
/// is fixed for a given --seconds. No per-encounter latency is
/// reachable from outside Emulation::run, so p50_ms, p90_ms and p99_ms
/// all report the mean encounter time.

#include <cmath>

#include "accounting.hpp"
#include "common.hpp"
#include "sim/experiment.hpp"
#include "trace/email.hpp"
#include "trace/mobility.hpp"

namespace perfbench {

using namespace pfrdtn;

namespace {

constexpr std::size_t kSetups = 9;
constexpr double kSecondsPerEmulation = 10;
constexpr std::size_t kPaperMessages = 490;

/// The bus trace every seed runs, and the seed whose figure values are
/// pinned: the parent commit's Figure 7a/8 values (EXPERIMENTS.md:
/// 72.9 % within 12 h, 12.2 / 30.0 copies), as exact counts over the
/// 490 messages.
constexpr std::uint64_t kFigureSeed = 4;
constexpr long kSeed4Within12h = 357;
constexpr std::size_t kSeed4CopiesAtDelivery = 5964;
constexpr std::size_t kSeed4CopiesAtEnd = 14700;

sim::EmulationConfig workload_config(const Args& args) {
  sim::EmulationConfig config = args.tiny
                                    ? sim::small_config(0.15, args.seed)
                                    : sim::paper_config(args.seed);
  config.mobility.seed = kFigureSeed;
  config.policy = "epidemic";
  return config;
}

/// Set-up: generate the trace and e-mail workload, construct Emulation.
std::unique_ptr<sim::Emulation> build(const sim::EmulationConfig& config,
                                      Tracer* tracer) {
  trace::MobilityTrace mobility;
  trace::EmailWorkload email;
  {
    Span span(tracer, SpanName::TraceGen);
    mobility = trace::generate_mobility(config.mobility);
    email = trace::generate_email(config.email);
  }
  Span span(tracer, SpanName::SimConstruct);
  return std::make_unique<sim::Emulation>(config, std::move(mobility),
                                          std::move(email));
}

/// Every injected message is delivered; on the figure seed at paper
/// scale, the figure values equal the parent commit's.
void check_result(const sim::Metrics& metrics, bool paper_scale,
                  std::uint64_t seed, bool undeliver) {
  std::size_t delivered = metrics.delivered_count();
  if (undeliver) --delivered;  // tampered observation
  const std::size_t injected = metrics.injected_count();
  check(delivered == injected && injected > 0 &&
            (!paper_scale || injected == kPaperMessages),
        "delivered " + std::to_string(delivered) + " of " +
            std::to_string(injected) + " messages");
  if (!paper_scale || seed != kFigureSeed) return;
  const long within_12h = std::lround(metrics.delivered_within_hours(12) *
                                      static_cast<double>(injected) / 100);
  std::size_t at_delivery = 0;
  std::size_t at_end = 0;
  for (const auto& [id, record] : metrics.records()) {
    at_delivery += record.copies_at_delivery;
    at_end += record.copies_at_end;
  }
  check(within_12h == kSeed4Within12h &&
            at_delivery == kSeed4CopiesAtDelivery &&
            at_end == kSeed4CopiesAtEnd,
        "seed 4 figure values moved: within 12 h " +
            std::to_string(within_12h) + ", copies " +
            std::to_string(at_delivery) + "/" + std::to_string(at_end));
}

struct PassResult {
  double seconds = 0;
  std::uint64_t encounters = 0;
  Usage usage;
  sim::Metrics last;  ///< the last emulation's metrics
  repl::SyncStats traffic;
};

/// Run `emulations` emulations; only Emulation::run is timed, the
/// set-up of the second and later ones is not.
PassResult run_pass(const Args& args,
                    std::unique_ptr<sim::Emulation> emulation,
                    std::size_t emulations, Tracer* tracer,
                    Outcome& outcome) {
  const sim::EmulationConfig config = workload_config(args);
  PassResult pass;
  for (std::size_t i = 0; i < emulations; ++i) {
    if (!emulation) emulation = build(config, nullptr);
    const Usage before = Usage::now();
    const std::uint64_t start = now_ns();
    sim::EmulationResult result;
    {
      const CpuRotation rotation(allowed_cpus());
      Span span(tracer, SpanName::SimRun, static_cast<std::uint32_t>(i + 1));
      result = emulation->run();
    }
    pass.seconds += seconds_between(start, now_ns());
    pass.usage.add(Usage::now().since(before));
    emulation.reset();
    outcome.attempted += result.metrics.encounter_count();
    check_result(result.metrics, !args.tiny, args.seed,
                 args.tamper == "undeliver");
    pass.encounters += result.metrics.encounter_count();
    pass.traffic.accumulate(result.metrics.traffic());
    pass.last = std::move(result.metrics);
  }
  return pass;
}

}  // namespace

void run_paper_epidemic(const Args& args, Outcome& outcome) {
  outcome.context["state_dir_fs"] = "none (in-process emulation)";
  const sim::EmulationConfig config = workload_config(args);
  const auto emulations = static_cast<std::size_t>(
      std::max(1.0, std::ceil(pass_seconds(args) / kSecondsPerEmulation)));
  std::unique_ptr<sim::Emulation> built;
  const std::vector<double> setups = time_setups(
      args.tiny ? 2 : kSetups, [&] { built = build(config, nullptr); });
  const PassResult bare =
      run_pass(args, build(config, nullptr), emulations, nullptr, outcome);
  const double ops = static_cast<double>(bare.encounters);
  // The mean encounter time stands in for every latency percentile.
  const std::vector<double> mean_ms = {bare.seconds * 1e3 / ops};
  add_end_to_end(outcome, setups, mean_ms, ops, bare.seconds, bare.usage,
                 static_cast<double>(bare.traffic.request_bytes +
                                     bare.traffic.batch_bytes));
  if (!args.trace) return;

  outcome.metrics.clear();
  Tracer tracer;
  const PassResult traced =
      run_pass(args, build(config, &tracer), emulations, &tracer, outcome);
  const double traced_ops = static_cast<double>(traced.encounters);
  const repl::SyncStats& t = traced.traffic;
  auto& m = outcome.metrics;
  m["repl.items_sent"] = static_cast<double>(t.items_sent) / traced_ops;
  m["repl.items_new"] = static_cast<double>(t.items_new) / traced_ops;
  m["repl.items_stale"] = static_cast<double>(t.items_stale) / traced_ops;
  m["repl.useful_ratio"] =
      t.items_sent == 0 ? 0.0
                        : static_cast<double>(t.items_new) /
                              static_cast<double>(t.items_sent);
  m["repl.request_bytes"] = static_cast<double>(t.request_bytes) / traced_ops;
  m["repl.batch_bytes"] = static_cast<double>(t.batch_bytes) / traced_ops;
  m["trace.gen_ms"] = span_ms(tracer, SpanName::TraceGen, 1);
  m["sim.encounters"] = static_cast<double>(traced.last.encounter_count());
  m["sim.syncs"] = static_cast<double>(traced.last.sync_count());
  m["sim.knowledge_bytes"] = traced.last.knowledge_bytes().mean();
  finish_traced(args, outcome, tracer, traced.usage, traced_ops, mean_ms,
                traced.seconds * 1e3 / traced_ops);
}

}  // namespace perfbench
