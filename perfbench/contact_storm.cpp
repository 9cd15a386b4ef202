/// contact_storm: the headline serve number. An in-process durable
/// SyncServer (2 workers, summary mode auto), recovered from a state
/// dir preloaded with a few thousand messages and wired as
/// `pfrdtn serve --state-dir` wires it, takes Encounter sessions (pull
/// then push) from two peers. The load is an open loop: sessions are
/// due at a fixed total rate whether or not earlier ones finished, and
/// each is timed from its due time. Every 4th session of a peer pushes
/// 4 fresh messages of ~256 B; the rest carry nothing new, so reads run
/// beside writes. The total session count is rate x seconds, fixed for
/// a given --seconds, because the server's end state grows with every
/// push.
///
/// The state dir is persist::MemEnv: concurrent fsync on a shared VM
/// disk is too unsteady to gate on (see README.md).

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "accounting.hpp"
#include "common.hpp"
#include "node.hpp"
#include "persist/checkpoint.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pfrdtn;

namespace {

constexpr HostId kServerAddress{42};
constexpr ReplicaId kServerId{1};
constexpr std::size_t kPeers = 2;
constexpr std::size_t kPushEvery = 4;
constexpr std::size_t kPushMessages = 4;
constexpr std::size_t kPreloadAuthors = 8;
constexpr std::size_t kSetups = 9;
/// Half the saturation rate measured on a 4-vCPU VM (~1,000 sessions/s
/// while neighbours were busy); see README.md for the probe.
constexpr double kRate = 500;

std::string random_body(Rng& rng, std::size_t min_size, std::size_t span) {
  std::string body(min_size + rng.below(span), ' ');
  for (char& c : body) c = static_cast<char>('a' + rng.below(26));
  return body;
}

/// The preloaded state dir: `messages` messages for the server's
/// address, synced in from several authors and reported delivered.
persist::MemEnv preload(std::size_t messages, std::uint64_t seed) {
  persist::MemEnv env;
  DurableNode server(env, kServerId, nullptr);
  server.node().set_addresses({kServerAddress}, {}, SimTime(0));
  Rng rng(seed ^ 0x9E1A0ADULL);
  for (std::size_t a = 0; a < kPreloadAuthors; ++a) {
    const HostId address(1000 + a);
    dtn::DtnNode author{ReplicaId(1000 + a)};
    author.set_addresses({address}, {}, SimTime(0));
    for (std::size_t i = a; i < messages; i += kPreloadAuthors)
      author.send(address, {kServerAddress}, random_body(rng, 128, 256),
                  SimTime(0));
    const repl::SyncResult result =
        repl::run_sync(author.replica(), server.node().replica(),
                       author.policy(), server.node().policy(), SimTime(0));
    server.node().on_sync_delivered(result.delivered, SimTime(0));
  }
  server.durability().flush();
  return env;
}

/// What the server saw, written by its callbacks under its state mutex
/// and read once it has stopped.
struct ServerLog {
  std::mutex mutex;
  repl::SyncStats applied;
  std::vector<ItemId> delivered;
  std::size_t failed_sessions = 0;
  std::size_t violations = 0;
  std::size_t rejected = 0;
};

/// The durable server over a copy of the preloaded state dir.
struct Server {
  Server(persist::MemEnv& state_dir, Tracer* tracer, ServerLog& log,
         const std::vector<int>& cpus)
      : state(state_dir), durable(state_dir, kServerId, tracer) {
    dtn::DtnNode& node = durable.node();
    node.set_addresses({kServerAddress}, {}, SimTime(0));
    net::SyncServerOptions options;
    options.workers = 2;
    options.tcp.session_deadline_ms = 30000;
    options.sync.summary_mode = repl::SummaryMode::Auto;
    net::SyncServerCallbacks callbacks;
    callbacks.on_session = [&node, &log](std::size_t, const std::string&,
                                         const net::ServerSessionOutcome&
                                             outcome) {
      std::lock_guard<std::mutex> lock(log.mutex);
      log.applied.accumulate(outcome.applied.result.stats);
      for (const dtn::Message& message : node.on_sync_delivered(
               outcome.applied.result.delivered, SimTime(0)))
        log.delivered.push_back(message.id);
      if (outcome.transport_failed) ++log.failed_sessions;
    };
    callbacks.on_violation = [&log](std::size_t, const std::string&, bool,
                                    const std::string&, std::size_t,
                                    std::uint64_t) {
      std::lock_guard<std::mutex> lock(log.mutex);
      ++log.violations;
    };
    callbacks.on_reject = [&log](const std::string&,
                                 const net::AdmitDecision&) {
      std::lock_guard<std::mutex> lock(log.mutex);
      ++log.rejected;
    };
    serving = std::make_unique<ServingThread>(node.replica(), node.policy(),
                                              options, callbacks, cpus);
  }

  persist::MemEnv& state;
  DurableNode durable;
  std::unique_ptr<ServingThread> serving;
};

/// One generator thread: one peer running its share of the schedule.
struct Peer {
  Peer(std::size_t index, std::uint64_t seed)
      : index(index),
        address(7 + index),
        node(ReplicaId(100 + index)),
        rng(seed ^ (0xC0FFEEULL + index)) {
    node.set_addresses({address}, {}, SimTime(0));
    push_phase = rng.below(kPushEvery);
  }

  std::size_t index;
  HostId address;
  dtn::DtnNode node;
  Rng rng;
  std::uint64_t push_phase = 0;
  std::vector<ItemId> pushed;
  std::vector<double> latencies;
  std::vector<double> lateness;
  ClientTotals client;
  std::uint64_t last_end_ns = 0;
  /// Sessions begun; those not in `client` failed, and the peer stopped.
  std::uint64_t started = 0;
  std::string error;
};

void run_peer(Peer& peer, std::uint16_t port, std::uint64_t start_ns,
              double period_ns, std::size_t total, Tracer* tracer,
              std::vector<int> cpus) {
  // Timer slack would add up to 50 us of lateness to every wake-up.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  repl::SyncOptions sync;
  sync.summary_mode = repl::SummaryMode::Auto;
  try {
    pin_thread(cpus);
    for (std::size_t j = peer.index, k = 0; j < total; j += kPeers, ++k) {
      const std::uint64_t due =
          start_ns +
          static_cast<std::uint64_t>(period_ns * static_cast<double>(j));
      const std::uint64_t now = now_ns();
      if (now < due)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      peer.lateness.push_back(ms_between(due, std::max(due, now_ns())));
      ++peer.started;
      net::ClientSessionOutcome outcome;
      LinkCounters link;
      {
        Span span(tracer, SpanName::Op, static_cast<std::uint32_t>(j + 1));
        if (k % kPushEvery == peer.push_phase) {
          for (std::size_t m = 0; m < kPushMessages; ++m)
            peer.pushed.push_back(peer.node.send(
                peer.address, {kServerAddress},
                random_body(peer.rng, 192, 128), SimTime(0)));
        }
        net::ConnectionPtr connection;
        {
          Span connect(tracer, SpanName::NetConnect);
          connection = net::tcp_connect("127.0.0.1", port);
        }
        TracedConnection* traced = nullptr;
        if (tracer != nullptr) {
          auto wrapped = std::make_unique<TracedConnection>(
              std::move(connection), *tracer);
          traced = wrapped.get();
          connection = std::move(wrapped);
        }
        outcome = net::run_client_session(
            *connection, peer.node.replica(), peer.node.policy(),
            net::SyncMode::Encounter, SimTime(0), sync);
        if (traced != nullptr) link = traced->counters();
      }
      peer.last_end_ns = now_ns();
      if (outcome.refused || outcome.transport_failed ||
          outcome.pull.refused || outcome.push.refused ||
          !outcome.pull.result.stats.complete ||
          !outcome.push.stats.complete) {
        peer.error = "session " + std::to_string(j) + " failed: " +
                     (outcome.error.empty() ? "incomplete" : outcome.error);
        return;
      }
      peer.latencies.push_back(ms_between(due, peer.last_end_ns));
      peer.client.add(outcome, 2);
      peer.client.link.add(link);
    }
  } catch (const std::exception& failure) {
    peer.error = failure.what();
  }
}

struct PassResult {
  std::vector<double> latencies;
  std::vector<double> lateness;
  std::uint64_t sessions = 0;
  double seconds = 0;
  Usage usage;
  ClientTotals client;
  repl::SyncStats applied;
  PersistCounters persist;
};

/// Each pushed message is stored, and was reported delivered, exactly
/// once at the server; the drained server's state dir recovers to the
/// live replica's exact state.
void check_server(Server& server, const ServerLog& log,
                  const std::vector<ItemId>& pushed,
                  const std::string& tamper) {
  check(log.failed_sessions == 0 && log.violations == 0 &&
            log.rejected == 0 && server.serving->server().sessions_shed() == 0,
        "server failed, rejected or shed sessions");
  const repl::ItemStore& store = server.durable.node().replica().store();
  std::size_t stored = 0;
  for (const ItemId id : pushed) stored += store.contains(id) ? 1 : 0;
  if (tamper == "drop-message") --stored;  // tampered observation
  check(stored == pushed.size(),
        "server stores " + std::to_string(stored) + " of " +
            std::to_string(pushed.size()) + " pushed messages");
  std::vector<ItemId> delivered = log.delivered;
  std::sort(delivered.begin(), delivered.end());
  std::vector<ItemId> expected = pushed;
  std::sort(expected.begin(), expected.end());
  check(delivered == expected,
        "server reported " + std::to_string(delivered.size()) +
            " deliveries for " + std::to_string(expected.size()) +
            " pushed messages");
  const auto& ledger = server.durable.durability().delivered();
  check(std::all_of(expected.begin(), expected.end(),
                    [&ledger](ItemId id) { return ledger.count(id) > 0; }),
        "server ledger misses a pushed message");

  persist::MemEnv crashed = server.state;
  crashed.crash();
  const auto recovered = persist::recover(crashed);
  check(recovered.has_value(), "server state dir recovered nothing");
  std::uint64_t restored = persist::state_digest(recovered->replica);
  if (tamper == "flip-digest") restored ^= 1;  // tampered observation
  check(restored ==
            persist::state_digest(server.durable.node().replica()),
        "recovered server digest differs from the live replica's");
  check(recovered->delivered == ledger, "recovered ledger differs");
}

PassResult run_pass(const persist::MemEnv& preloaded, double rate,
                    double seconds, Tracer* tracer, const std::string& tamper,
                    std::uint64_t seed, const CpuSplit& cpus,
                    Outcome& outcome) {
  PassResult pass;
  ServerLog log;
  persist::MemEnv state = preloaded;
  Server server(state, tracer, log, cpus.server);
  const std::size_t records_before =
      server.durable.durability().counters().wal_records_logged;

  const auto total = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<std::unique_ptr<Peer>> peers;
  for (std::size_t p = 0; p < kPeers; ++p)
    peers.push_back(std::make_unique<Peer>(p, seed));
  const Usage before = Usage::now();
  // A short lead so both generator threads are up before the first
  // session falls due.
  const std::uint64_t start = now_ns() + 20'000'000;
  {
    std::vector<std::jthread> threads;  // joined at the end of the block
    for (auto& peer : peers)
      threads.emplace_back(
          run_peer, std::ref(*peer), server.serving->port(), start,
          1e9 / rate, total, tracer,
          cpus.clients.empty() ? std::vector<int>{}
                               : std::vector<int>{cpus.clients[peer->index]});
  }
  std::uint64_t end = start;
  for (const auto& peer : peers) end = std::max(end, peer->last_end_ns);
  pass.seconds = seconds_between(start, end);
  pass.usage = Usage::now().since(before);
  server.serving->stop();

  for (const auto& peer : peers) {
    outcome.attempted += peer->started;
    outcome.failed += peer->started - peer->client.sessions;
  }
  std::vector<ItemId> pushed;
  for (const auto& peer : peers) {
    check(peer->error.empty(), "peer " + std::to_string(peer->index) +
                                   ": " + peer->error);
    pass.latencies.insert(pass.latencies.end(), peer->latencies.begin(),
                          peer->latencies.end());
    pass.lateness.insert(pass.lateness.end(), peer->lateness.begin(),
                         peer->lateness.end());
    pass.client.add(peer->client);
    pushed.insert(pushed.end(), peer->pushed.begin(), peer->pushed.end());
  }
  pass.sessions = pass.client.sessions;
  check(pass.sessions == total &&
            server.serving->server().sessions_completed() == total,
        "not every scheduled session completed");
  check_server(server, log, pushed, tamper);
  pass.applied = log.applied;
  pass.persist.wal_records = static_cast<double>(
      server.durable.durability().counters().wal_records_logged -
      records_before);
  if (const TracedEnv* env = server.durable.traced_env())
    pass.persist.add(*env);
  return pass;
}

}  // namespace

void run_contact_storm(const Args& args, Outcome& outcome) {
  outcome.context["state_dir_fs"] = "in-process memory (persist::MemEnv)";
  const double rate = args.tiny ? 200 : kRate;
  const CpuSplit cpus = split_cpus(kPeers);
  outcome.context["cpu_pinning"] = cpus.describe();
  pin_thread(cpus.clients);  // set-up runs beside the generators
  const persist::MemEnv preloaded = preload(args.tiny ? 200 : 3000, args.seed);
  // Set-up: recover the preloaded state dir and start serving. Copying
  // the state dir in is not timed.
  std::vector<double> setups;
  {
    persist::MemEnv state = preloaded;
    ServerLog log;
    std::unique_ptr<Server> server;
    setups = time_setups(args.tiny ? 2 : kSetups, [&] {
      server = std::make_unique<Server>(state, nullptr, log, cpus.server);
    });
  }
  const PassResult bare = run_pass(preloaded, rate, pass_seconds(args),
                                   nullptr, args.tamper, args.seed, cpus,
                                   outcome);
  add_end_to_end(outcome, setups, bare.latencies,
                 static_cast<double>(bare.sessions), bare.seconds,
                 bare.usage, static_cast<double>(bare.client.wire_bytes));
  const double late_p90 = percentile(bare.lateness, 0.9);
  if (late_p90 >= outcome.metrics["p50_ms"])
    std::fprintf(stderr,
                 "perfbench: warning: generator lateness p90 %.3f ms is "
                 "not below p50 %.3f ms; the open loop fell behind\n",
                 late_p90, outcome.metrics["p50_ms"]);
  if (!args.trace) return;

  outcome.metrics.clear();
  Tracer tracer;
  const PassResult traced =
      run_pass(preloaded, rate, pass_seconds(args), &tracer, args.tamper,
               args.seed, cpus, outcome);
  const double ops = static_cast<double>(traced.sessions);
  check(traced.client.link.bytes == traced.client.wire_bytes,
        "link decorator bytes differ from the sessions' wire bytes");
  // The push legs' outcomes are known where they are applied.
  ClientTotals totals = traced.client;
  totals.stats.items_new += traced.applied.items_new;
  totals.stats.items_stale += traced.applied.items_stale;
  auto& m = outcome.metrics;
  add_client_layers(m, totals, tracer, ops);
  add_persist_layers(m, tracer, traced.persist, ops, 1);
  m["gen.offered_per_s"] = rate;
  m["gen.late_p90_ms"] = late_p90;
  finish_traced(args, outcome, tracer, traced.usage, ops, bare.latencies,
                median(traced.latencies));
}

}  // namespace perfbench
