/// durable_pull: a node rejoining after a long disconnection. A fresh
/// durable node pulls N messages from an in-process SyncServer, as
/// `pfrdtn sync-with --state-dir D --mode pull` does for an empty D.
/// Closed loop over one connection at a time, a fresh state dir per op.
/// The timed state dirs are persist::MemEnv: the WAL and checkpoint code
/// runs through the StorageEnv interface, but no storage syscall is
/// made, and MemEnv::sync only moves a watermark. The traced run adds an
/// informational pass that repeats a few ops with FsEnv on the
/// checkout's own filesystem, to put the syscalls' and the device's
/// share on record.

#include <filesystem>
#include <set>

#include "accounting.hpp"
#include "common.hpp"
#include "node.hpp"
#include "persist/checkpoint.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pfrdtn;

namespace {

constexpr HostId kSourceAddress{9};
constexpr HostId kNodeAddress{7};
constexpr ReplicaId kSourceId{1};
constexpr ReplicaId kNodeId{2};
constexpr std::size_t kSetups = 15;
constexpr std::size_t kDiskOps = 5;

/// The node pulled from: N messages of 200-399 bytes for kNodeAddress,
/// served by one worker.
struct Source {
  Source(std::size_t messages, std::uint64_t seed,
         const std::vector<int>& server_cpus)
      : node(kSourceId) {
    node.set_addresses({kSourceAddress}, {}, SimTime(0));
    Rng rng(seed);
    for (std::size_t i = 0; i < messages; ++i) {
      std::string body(200 + rng.below(200), ' ');
      for (char& c : body) c = static_cast<char>('a' + rng.below(26));
      ids.insert(node.send(kSourceAddress, {kNodeAddress}, std::move(body),
                           SimTime(0)));
    }
    net::SyncServerOptions options;
    options.workers = 1;
    serving = std::make_unique<ServingThread>(
        node.replica(), node.policy(), options,
        net::SyncServerCallbacks{}, server_cpus);
  }

  dtn::DtnNode node;
  std::set<ItemId> ids;
  std::unique_ptr<ServingThread> serving;
};

/// One op's state dir and the node over it (destroyed first).
struct PullState {
  explicit PullState(std::unique_ptr<persist::StorageEnv> storage)
      : env(std::move(storage)) {}
  std::unique_ptr<persist::StorageEnv> env;
  std::unique_ptr<DurableNode> durable;
};

struct OpResult {
  double ms = 0;
  net::ClientSessionOutcome outcome;
  std::size_t delivered_now = 0;
  LinkCounters link;
};

/// One op: open a durable node over the fresh `state` and pull.
OpResult pull_once(PullState& state, std::uint16_t port, Tracer* tracer,
                   std::uint32_t op) {
  OpResult result;
  const std::uint64_t start = now_ns();
  {
    Span span(tracer, SpanName::Op, op);
    state.durable = std::make_unique<DurableNode>(*state.env, kNodeId, tracer);
    dtn::DtnNode& node = state.durable->node();
    node.set_addresses({kNodeAddress}, {}, SimTime(0));
    net::ConnectionPtr connection;
    {
      Span connect(tracer, SpanName::NetConnect);
      connection = net::tcp_connect("127.0.0.1", port);
    }
    TracedConnection* traced = nullptr;
    if (tracer != nullptr) {
      auto wrapped =
          std::make_unique<TracedConnection>(std::move(connection), *tracer);
      traced = wrapped.get();
      connection = std::move(wrapped);
    }
    result.outcome = net::run_client_session(
        *connection, node.replica(), node.policy(), net::SyncMode::Pull,
        SimTime(0));
    result.delivered_now =
        node.on_sync_delivered(result.outcome.pull.result.delivered,
                               SimTime(0))
            .size();
    if (traced != nullptr) result.link = traced->counters();
  }
  result.ms = ms_between(start, now_ns());
  return result;
}

/// The op's output check: the sync completed, and the node stores and
/// has reported exactly the source's messages.
void check_op(const OpResult& result, DurableNode& durable,
              const std::set<ItemId>& expected, bool drop_one) {
  const net::ClientSessionOutcome& outcome = result.outcome;
  check(!outcome.transport_failed && !outcome.refused &&
            !outcome.pull.refused && outcome.pull.result.stats.complete,
        "pull did not complete: " + outcome.error);
  const repl::ItemStore& store = durable.node().replica().store();
  std::size_t present = 0;
  for (const ItemId id : expected) present += store.contains(id) ? 1 : 0;
  if (drop_one) --present;  // tampered observation: one message missing
  check(present == expected.size() && store.size() == expected.size(),
        "node holds " + std::to_string(present) + " of " +
            std::to_string(expected.size()) + " messages (store size " +
            std::to_string(store.size()) + ")");
  check(result.delivered_now == expected.size() &&
            durable.durability().delivered().size() == expected.size(),
        "ledger shows " +
            std::to_string(durable.durability().delivered().size()) +
            " deliveries, want " + std::to_string(expected.size()));
}

/// After the last op: the state dir, cut at its durable prefix,
/// recovers to the live replica's exact state.
void check_recovery(PullState& state, const std::set<ItemId>& expected,
                    bool flip_digest) {
  auto* mem = dynamic_cast<persist::MemEnv*>(state.env.get());
  check(mem != nullptr, "recovery check needs the in-memory state dir");
  persist::MemEnv crashed = *mem;
  crashed.crash();
  const auto recovered = persist::recover(crashed);
  check(recovered.has_value(), "state dir recovered nothing");
  const std::uint64_t live =
      persist::state_digest(state.durable->node().replica());
  std::uint64_t restored = persist::state_digest(recovered->replica);
  if (flip_digest) restored ^= 1;  // tampered observation
  check(restored == live, "recovered state digest differs from the live "
                          "replica's");
  const std::string violation = recovered->replica.check_invariants();
  check(violation.empty(), "recovered replica: " + violation);
  check(recovered->delivered.size() == expected.size(),
        "recovered ledger lost deliveries");
}

struct PassResult {
  std::vector<double> latencies;
  std::uint64_t ops = 0;
  double seconds = 0;  ///< summed over the ops alone
  Usage usage;         ///< summed over the ops alone
  ClientTotals client;
  PersistCounters persist;
};

/// Pull for `seconds`. Only the ops are timed, for CPU as for latency:
/// dropping the previous state dir and the output checks between ops
/// are not.
PassResult run_pass(const Source& source, double seconds, Tracer* tracer,
                    const std::string& tamper, Outcome& outcome) {
  PassResult pass;
  std::unique_ptr<PullState> state;
  const std::uint16_t port = source.serving->port();
  const auto deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint32_t op = 1; op == 1 || now_ns() < deadline; ++op) {
    state.reset();
    state = std::make_unique<PullState>(std::make_unique<persist::MemEnv>());
    ++outcome.attempted;
    OpResult result;
    try {
      const Usage before = Usage::now();
      result = pull_once(*state, port, tracer, op);
      pass.usage.add(Usage::now().since(before));
      check_op(result, *state->durable, source.ids,
               tamper == "drop-message" && op == 1);
    } catch (...) {
      ++outcome.failed;  // and with it the run
      throw;
    }
    pass.latencies.push_back(result.ms);
    pass.seconds += result.ms / 1e3;
    pass.client.add(result.outcome, 1);
    pass.client.link.add(result.link);
    pass.persist.wal_records += static_cast<double>(
        state->durable->durability().counters().wal_records_logged);
    if (const TracedEnv* env = state->durable->traced_env())
      pass.persist.add(*env);
    ++pass.ops;
  }
  check_recovery(*state, source.ids, tamper == "flip-digest");
  return pass;
}

/// The informational device pass: a few ops with FsEnv state dirs on
/// the checkout's filesystem. Ungated; reported per op.
void disk_pass(const Source& source, const std::string& dir,
               std::map<std::string, double>& metrics) {
  Tracer tracer;
  std::vector<double> latencies;
  for (std::uint32_t op = 1; op <= kDiskOps; ++op) {
    const std::string path = dir + "/op-" + std::to_string(op);
    std::filesystem::remove_all(path);
    {
      PullState state(std::make_unique<persist::FsEnv>(path));
      const OpResult result =
          pull_once(state, source.serving->port(), &tracer, op);
      check_op(result, *state.durable, source.ids, false);
      latencies.push_back(result.ms);
    }
    std::filesystem::remove_all(path);
  }
  metrics["persist.disk_sync_ms"] =
      span_ms(tracer, SpanName::PersistSync, kDiskOps);
  metrics["persist.disk_op_ms"] = median(latencies);
}

}  // namespace

void run_durable_pull(const Args& args, Outcome& outcome) {
  outcome.context["state_dir_fs"] = "in-process memory (persist::MemEnv)";
  const std::size_t messages = args.tiny ? 40 : 1000;
  const CpuSplit cpus = split_cpus(1);
  outcome.context["cpu_pinning"] = cpus.describe();
  // Set-up: build the source and start serving.
  pin_thread(cpus.clients);
  std::unique_ptr<Source> source;
  const std::vector<double> setups =
      time_setups(args.tiny ? 2 : kSetups, [&] {
        source = std::make_unique<Source>(messages, args.seed, cpus.server);
      });
  source = std::make_unique<Source>(messages, args.seed, cpus.server);

  const PassResult bare =
      run_pass(*source, pass_seconds(args), nullptr, args.tamper, outcome);
  add_end_to_end(outcome, setups, bare.latencies,
                 static_cast<double>(bare.ops), bare.seconds, bare.usage,
                 static_cast<double>(bare.client.wire_bytes));
  if (!args.trace) return;

  outcome.metrics.clear();
  Tracer tracer;
  const PassResult traced =
      run_pass(*source, pass_seconds(args), &tracer, args.tamper, outcome);
  const double ops = static_cast<double>(traced.ops);
  check(traced.client.link.bytes == traced.client.wire_bytes,
        "link decorator bytes differ from the sessions' wire bytes");
  add_client_layers(outcome.metrics, traced.client, tracer, ops);
  add_persist_layers(outcome.metrics, tracer, traced.persist, ops, ops);
  if (!args.disk_dir.empty()) {
    std::filesystem::create_directories(args.disk_dir);
    outcome.context["disk_pass_fs"] = filesystem_type(args.disk_dir);
    disk_pass(*source, args.disk_dir, outcome.metrics);
  }
  finish_traced(args, outcome, tracer, traced.usage, ops, bare.latencies,
                median(traced.latencies));
}

}  // namespace perfbench
