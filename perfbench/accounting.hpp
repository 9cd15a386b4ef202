#pragma once

/// \file accounting.hpp
/// Turning what a pass observed into per-layer metrics: client session
/// outcomes (repl::SyncStats, refusals), the client-side link
/// decorator, and the persist decorators' spans and counters.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "decorators.hpp"
#include "net/session.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Framed bytes one client session put on the link, both directions:
/// the hellos and BatchAck plus each sync's request and batch frames.
[[nodiscard]] std::uint64_t session_wire_bytes(
    const pfrdtn::net::ClientSessionOutcome& outcome);

/// Sums over the client sessions of one pass.
struct ClientTotals {
  std::uint64_t sessions = 0;
  std::uint64_t syncs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t refused = 0;
  std::uint64_t transport_failures = 0;
  /// Both legs; items_new/items_stale of a push leg are counted where
  /// it is applied, so callers add the server's side separately.
  pfrdtn::repl::SyncStats stats;
  LinkCounters link;

  void add(const pfrdtn::net::ClientSessionOutcome& outcome,
           std::uint64_t syncs_in_session);
  void add(const ClientTotals& other);
};

/// net.* and repl.* per op, from client totals and the pass's spans.
void add_client_layers(std::map<std::string, double>& metrics,
                       const ClientTotals& totals, const Tracer& tracer,
                       double ops);

/// Persist-side counts of one pass, summed over its durable nodes.
struct PersistCounters {
  double wal_records = 0;  ///< DurabilityCounters::wal_records_logged
  std::uint64_t syncs = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t checkpoints = 0;

  void add(const TracedEnv& env);
};

/// persist.* per op, except checkpoints and checkpoint_ms (per run)
/// and recover_ms (per recovery: recover + attach).
void add_persist_layers(std::map<std::string, double>& metrics,
                        const Tracer& tracer, const PersistCounters& counts,
                        double ops, double recoveries);

/// The end-to-end metrics of the untraced pass. `latencies` are per-op
/// milliseconds; `ops` completed in `seconds` of timed phase that used
/// `usage`. Also prints the set-up and latency deciles to stderr.
void add_end_to_end(Outcome& outcome, const std::vector<double>& setups,
                    const std::vector<double>& latencies, double ops,
                    double seconds, const Usage& usage, double wire_bytes);

/// What every traced run reports the same way: proc.* per op from the
/// traced pass's `usage`, the untraced pass's tail (p90_ms, p99_ms),
/// the tracing overhead (traced over untraced median latency), and 0
/// for idle layers; then the spans are written out.
void finish_traced(const Args& args, Outcome& outcome, const Tracer& tracer,
                   const Usage& usage, double ops,
                   const std::vector<double>& untraced_latencies,
                   double traced_p50);

/// The seconds each pass of a run measures: a traced run splits its
/// --seconds between the untraced pass it compares against and the
/// traced pass, so it takes as long as an untraced run.
[[nodiscard]] double pass_seconds(const Args& args);

/// Milliseconds of span `name` per `per`.
[[nodiscard]] double span_ms(const Tracer& tracer, SpanName name,
                             double per);

}  // namespace perfbench
