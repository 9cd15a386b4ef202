#include "accounting.hpp"

namespace perfbench {

using namespace pfrdtn;

std::uint64_t session_wire_bytes(const net::ClientSessionOutcome& outcome) {
  return outcome.overhead_bytes + outcome.pull.result.stats.request_bytes +
         outcome.pull.result.stats.batch_bytes +
         outcome.push.stats.request_bytes + outcome.push.stats.batch_bytes;
}

void ClientTotals::add(const net::ClientSessionOutcome& outcome,
                       std::uint64_t syncs_in_session) {
  ++sessions;
  syncs += syncs_in_session;
  wire_bytes += session_wire_bytes(outcome);
  if (outcome.refused || outcome.pull.refused || outcome.push.refused)
    ++refused;
  if (outcome.transport_failed) ++transport_failures;
  stats.accumulate(outcome.pull.result.stats);
  stats.accumulate(outcome.push.stats);
}

void ClientTotals::add(const ClientTotals& other) {
  sessions += other.sessions;
  syncs += other.syncs;
  wire_bytes += other.wire_bytes;
  refused += other.refused;
  transport_failures += other.transport_failures;
  stats.accumulate(other.stats);
  link.add(other.link);
}

double span_ms(const Tracer& tracer, SpanName name, double per) {
  return static_cast<double>(tracer.totals(name).total_ns) / 1e6 / per;
}

void add_client_layers(std::map<std::string, double>& metrics,
                       const ClientTotals& totals, const Tracer& tracer,
                       double ops) {
  const auto per_op = [ops](double value) { return value / ops; };
  const auto share = [&totals](std::uint64_t count) {
    return totals.syncs == 0 ? 0.0
                             : static_cast<double>(count) /
                                   static_cast<double>(totals.syncs);
  };
  metrics["net.connect_ms"] = span_ms(tracer, SpanName::NetConnect, ops);
  metrics["net.wait_ms"] = span_ms(tracer, SpanName::NetWait, ops);
  metrics["net.write_ms"] = span_ms(tracer, SpanName::NetWrite, ops);
  metrics["net.round_trips"] =
      per_op(static_cast<double>(totals.link.round_trips));
  metrics["net.bytes"] = per_op(static_cast<double>(totals.link.bytes));
  metrics["net.refused"] = per_op(static_cast<double>(totals.refused));
  metrics["net.transport_failures"] =
      per_op(static_cast<double>(totals.transport_failures));
  const repl::SyncStats& stats = totals.stats;
  metrics["repl.items_sent"] = per_op(static_cast<double>(stats.items_sent));
  metrics["repl.items_new"] = per_op(static_cast<double>(stats.items_new));
  metrics["repl.items_stale"] =
      per_op(static_cast<double>(stats.items_stale));
  // Base: every item copy sent over the pass.
  metrics["repl.useful_ratio"] =
      stats.items_sent == 0 ? 0.0
                            : static_cast<double>(stats.items_new) /
                                  static_cast<double>(stats.items_sent);
  metrics["repl.request_bytes"] =
      per_op(static_cast<double>(stats.request_bytes));
  metrics["repl.batch_bytes"] =
      per_op(static_cast<double>(stats.batch_bytes));
  metrics["repl.summary_match"] = share(totals.link.summary_match);
  metrics["repl.summary_direct"] = share(totals.link.summary_direct);
  metrics["repl.summary_miss"] = share(totals.link.summary_miss);
  metrics["repl.client_self_ms"] =
      static_cast<double>(tracer.totals(SpanName::Op).self_ns) / 1e6 / ops;
}

void PersistCounters::add(const TracedEnv& env) {
  syncs += env.syncs.load();
  append_bytes += env.append_bytes.load();
  checkpoints += env.checkpoints.load();
}

void add_persist_layers(std::map<std::string, double>& metrics,
                        const Tracer& tracer, const PersistCounters& counts,
                        double ops, double recoveries) {
  metrics["persist.records"] = counts.wal_records / ops;
  metrics["persist.fsyncs"] = static_cast<double>(counts.syncs) / ops;
  metrics["persist.sync_ms"] = span_ms(tracer, SpanName::PersistSync, ops);
  metrics["persist.append_bytes"] =
      static_cast<double>(counts.append_bytes) / ops;
  metrics["persist.sink_ms"] = span_ms(tracer, SpanName::PersistSink, ops) +
                               span_ms(tracer, SpanName::PersistLedger, ops);
  metrics["persist.checkpoints"] = static_cast<double>(counts.checkpoints);
  metrics["persist.checkpoint_ms"] =
      span_ms(tracer, SpanName::PersistWriteDurable, 1);
  metrics["persist.recover_ms"] =
      span_ms(tracer, SpanName::PersistRecover, recoveries) +
      span_ms(tracer, SpanName::PersistAttach, recoveries);
}

void add_end_to_end(Outcome& outcome, const std::vector<double>& setups,
                    const std::vector<double>& latencies, double ops,
                    double seconds, const Usage& usage, double wire_bytes) {
  auto& m = outcome.metrics;
  m["setup_s"] = median(setups);
  m["p50_ms"] = median(latencies);
  m["ops_per_s"] = ops / seconds;
  m["cpu_ms_per_op"] = (usage.user_ms + usage.sys_ms) / ops;
  m["wire_bytes_per_op"] = wire_bytes / ops;
  m["peak_rss_mb"] = Usage::now().max_rss_mb;
  m["ok_ratio"] = static_cast<double>(outcome.attempted - outcome.failed) /
                  static_cast<double>(outcome.attempted);
  print_quantiles("set-up s", setups);
  print_quantiles("op latency ms", latencies);
}

void finish_traced(const Args& args, Outcome& outcome, const Tracer& tracer,
                   const Usage& usage, double ops,
                   const std::vector<double>& untraced_latencies,
                   double traced_p50) {
  auto& m = outcome.metrics;
  m["proc.user_ms"] = usage.user_ms / ops;
  m["proc.sys_ms"] = usage.sys_ms / ops;
  m["proc.minflt"] = usage.minflt / ops;
  m["proc.vcsw"] = usage.vcsw / ops;
  m["proc.ivcsw"] = usage.ivcsw / ops;
  m["p90_ms"] = percentile(untraced_latencies, 0.9);
  m["p99_ms"] = percentile(untraced_latencies, 0.99);
  m["bench.tracing_overhead_pct"] =
      (traced_p50 / median(untraced_latencies) - 1.0) * 100.0;
  // Layers the workload leaves idle read 0.
  for (const MetricSpec& spec : kPerLayer) m.try_emplace(spec.name, 0.0);
  if (args.spans_path.empty()) return;
  outcome.context["spans"] =
      tracer.write_csv(args.spans_path)
          ? args.spans_path + " (" + std::to_string(tracer.dropped()) +
                " layer spans not kept)"
          : "could not write " + args.spans_path;
}

double pass_seconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

}  // namespace perfbench
