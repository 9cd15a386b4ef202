/// pfrdtn — command-line front end for the library; `pfrdtn --help`
/// lists every subcommand and flag.
///
/// Every flag is declared once — name, metavar, help line and a typed
/// setter — in a table per subcommand, composed from shared groups
/// (Endpoint, Dial, Node). The parse loop, its `unknown flag` /
/// `needs a value` / malformed-value errors (exit 2) and the usage text
/// are all generated from those declarations.
///
/// Examples:
///   pfrdtn gen-mobility --days 17 --seed 4 --out mob.txt
///   pfrdtn gen-email --out mail.txt
///   pfrdtn run --policy maxprop --param ack_flooding=1
///              --mobility mob.txt --email mail.txt --csv out.csv
///   pfrdtn run --policy cimbiosys --strategy selected --k 8
///   pfrdtn serve --port 9944 --addr 42
///   pfrdtn sync-with --host 10.0.0.2 --port 9944 --addr 7
///              --send 42=hello --mode encounter
///   pfrdtn chaos --host 10.0.0.2 --port 9944 --all
///   pfrdtn check --seed 1 --runs 20 --adversary-rate 0.3
///   pfrdtn check --replay 7    # reproduce + shrink seed 7's failure
///
/// All stochastic inputs are seeded; identical invocations produce
/// identical results (the TCP subcommands excepted — they talk to
/// real peers).

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/harness.hpp"
#include "dtn/registry.hpp"
#include "net/chaos.hpp"
#include "net/fault_link.hpp"
#include "net/quarantine.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/tcp.hpp"
#include "persist/durability.hpp"
#include "persist/fault_env.hpp"
#include "sim/experiment.hpp"
#include "trace/trace_io.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"
#include "util/storage_error.hpp"

namespace {

using namespace pfrdtn;

/// Print the generated usage text and exit. A plain help request
/// prints it to stdout and exits 0; a usage error prints `error` and
/// the text to stderr and exits 2.
[[noreturn]] void usage(const std::string& error = "");

/// One command-line flag, declared once.
struct Flag {
  std::string name;
  /// Placeholder in usage(); empty for a switch, which takes no value.
  std::string metavar;
  std::string help;
  /// Applies the flag: gets the value text (nullptr for a switch) and
  /// throws std::invalid_argument when it does not parse or fit.
  std::function<void(const char*)> set;
  /// The "schedule" mark (check only): the flag changes schedule
  /// generation, so the parse loop re-quotes it here as typed and the
  /// replay hint regenerates the same schedules.
  std::string* replay = nullptr;
};
using Flags = std::vector<Flag>;

Flags join(std::initializer_list<Flags> groups) {
  Flags out;
  for (const Flags& group : groups)
    out.insert(out.end(), group.begin(), group.end());
  return out;
}

/// The whole of `text` as a T: a finite number for double, a
/// non-negative integer within T's range for integers.
template <typename T>
T parse(const char* text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_floating_point_v<T>) {
    const char* end = text + std::strlen(text);
    T value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
      throw std::invalid_argument(std::string("'") + text +
                                  "' is not a number");
    return value;
  } else {
    const char* end = text + std::strlen(text);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end ||
        value > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
      throw std::invalid_argument(
          std::string("'") + text + "' is not an integer in [0, " +
          std::to_string(std::numeric_limits<T>::max()) + "]");
    return static_cast<T>(value);
  }
}

template <typename T>
std::function<void(const char*)> set(T& field) {
  return [&field](const char* text) { field = parse<T>(text); };
}

template <typename T>
std::function<void(const char*)> set(std::optional<T>& field) {
  return [&field](const char* text) { field = parse<T>(text); };
}

std::function<void(const char*)> set_rate(double& field) {
  return [&field](const char* text) {
    field = parse<double>(text);
    if (field < 0.0 || field > 1.0)
      throw std::invalid_argument("rates must be in [0, 1]");
  };
}

template <typename T>
std::function<void(const char*)> set_positive(T& field) {
  return [&field](const char* text) {
    field = parse<T>(text);
    if (field < 1) throw std::invalid_argument("must be >= 1");
  };
}

Flag toggle(std::string name, std::string help, bool& field,
            bool value = true) {
  return {std::move(name), "", std::move(help),
          [&field, value](const char*) { field = value; }};
}

/// A name → value table: parser and metavar read the same entries.
template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

template <typename T>
std::string names_of(const Choices<T>& choices) {
  std::string names;
  for (const auto& [name, value] : choices)
    names += (names.empty() ? "" : "|") + name;
  return names;
}

template <typename T>
T pick(const Choices<T>& choices, const char* text) {
  for (const auto& [name, value] : choices)
    if (name == text) return value;
  throw std::invalid_argument(std::string("unknown value '") + text +
                              "' (want " + names_of(choices) + ")");
}

/// `text` split at its first '=' (`form` names the expected shape).
std::pair<std::string, std::string> split_pair(const char* text,
                                               const char* form) {
  const std::string pair = text;
  const auto eq = pair.find('=');
  if (eq == std::string::npos)
    throw std::invalid_argument(std::string("expects ") + form);
  return {pair.substr(0, eq), pair.substr(eq + 1)};
}

template <typename T>
Flag choice(std::string name, std::string help, T& field,
            Choices<T> choices) {
  std::string metavar = names_of(choices);
  return {std::move(name), std::move(metavar), std::move(help),
          [&field, choices = std::move(choices)](const char* text) {
            field = pick(choices, text);
          }};
}

/// Apply argv's flags. Unknown flags, missing values and malformed
/// values are usage errors.
void parse_flags(int argc, char** argv, const Flags& flags) {
  for (int i = 0; i < argc; ++i) {
    const std::string name = argv[i];
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == flags.end()) usage("unknown flag " + name);
    const char* value = nullptr;
    if (!flag->metavar.empty()) {
      if (++i == argc) usage(name + " needs a value");
      value = argv[i];
    }
    try {
      flag->set(value);
    } catch (const std::invalid_argument& bad) {
      usage(name + ": " + bad.what());
    }
    if (flag->replay != nullptr) *flag->replay += " " + name + " " + value;
  }
}

/// `text` padded with spaces to `width`, and at least one space.
std::string pad(std::string text, std::size_t width) {
  text.resize(std::max(width, text.size() + 1), ' ');
  return text;
}

void describe(const Flags& flags, std::string& out) {
  for (const Flag& flag : flags) {
    const std::string metavar = flag.metavar.empty() ? "" : " " + flag.metavar;
    out += pad("      " + flag.name + metavar, 36) + flag.help + "\n";
  }
}

/// --port / --port-file, shared by serve, sync-with and chaos. serve
/// listens on the port (0 = ephemeral) and writes the bound port to
/// the file; the clients dial it, reading it from the file if given.
struct Endpoint {
  std::optional<std::uint16_t> port;
  std::string file;

  Flags flags();
};

Flags Endpoint::flags() {
  return {{"--port", "N", "TCP port (serve: 0 = ephemeral)", set(port)},
          {"--port-file", "FILE",
           "serve writes its port here; clients read it", set(file)}};
}

/// How sync-with and chaos reach a serving replica.
struct Dial {
  std::string host = "127.0.0.1";
  Endpoint endpoint;
  net::TcpOptions tcp;

  Flags flags();

  /// The server's port: from --port-file when given, else --port.
  [[nodiscard]] std::uint16_t port(const std::string& command) const {
    unsigned port = endpoint.port.value_or(0);
    if (!endpoint.file.empty()) {
      std::ifstream in(endpoint.file);
      if (!(in >> port) || port > std::numeric_limits<std::uint16_t>::max())
        throw ContractViolation("cannot read port from " + endpoint.file);
    }
    if (port == 0) usage(command + " requires --port or --port-file");
    return static_cast<std::uint16_t>(port);
  }
};

Flags Dial::flags() {
  return join({{{"--host", "H", "server host (default 127.0.0.1)",
                 set(host)}},
               endpoint.flags(),
               {{"--timeout-ms", "N", "connect and per-operation timeout",
                 [this](const char* text) {
                   tcp.connect_timeout_ms = tcp.io_timeout_ms =
                       parse<int>(text);
                 }}}});
}

/// The replica serve and sync-with host: its addresses, identity and
/// state directory, and the faults and summary mode its sessions run
/// under. serve hosts every --addr; sync-with takes one (the last).
struct Node {
  std::vector<std::uint64_t> addrs;
  std::optional<std::uint64_t> id;
  std::string state_dir;
  repl::SyncOptions sync;
  persist::FaultPlan disk;
  net::LinkFaultPlan link;

  Flags flags();
};

Flags Node::flags() {
  return {
      {"--addr", "A", "hosted address (serve: repeatable)",
       [this](const char* text) {
         addrs.push_back(parse<std::uint64_t>(text));
       }},
      {"--id", "N", "replica id unless --state-dir recovers one", set(id)},
      {"--state-dir", "DIR", "crash-durable replica state", set(state_dir)},
      {"--bandwidth", "N", "items per sync", set(sync.max_items)},
      {"--disk-fault-rate", "X", "per-operation disk fault rate",
       set_rate(disk.fault_rate)},
      {"--disk-fault-seed", "S", "disk fault stream seed", set(disk.seed)},
      {"--disk-fault-after-bytes", "N", "ENOSPC after N bytes written",
       set(disk.enospc_after_bytes)},
      {"--link-fault-rate", "X", "share of connections faulted",
       set_rate(link.fault_rate)},
      {"--link-fault-seed", "S", "link fault stream seed", set(link.seed)},
      {"--link-fault-max-bytes", "N", "latest byte offset of a fault",
       set(link.max_fault_bytes)},
      choice("--summary-mode", "knowledge summary exchange",
             sync.summary_mode,
             Choices<repl::SummaryMode>{{"on", repl::SummaryMode::On},
                                        {"off", repl::SummaryMode::Off},
                                        {"auto", repl::SummaryMode::Auto}}),
  };
}

struct GenMobility {
  trace::MobilityConfig config;
  std::string out;

  Flags flags();
  int run() const;
};

Flags GenMobility::flags() {
  return {{"--out", "FILE", "trace file to write (required)", set(out)},
          {"--days", "N", "days to generate", set(config.days)},
          {"--fleet", "N", "bus pool size", set(config.fleet_size)},
          {"--buses", "N", "buses on the road per day",
           set(config.buses_per_day)},
          {"--seed", "S", "generator seed", set(config.seed)}};
}

int GenMobility::run() const {
  if (out.empty()) usage("gen-mobility requires --out");
  const auto trace = trace::generate_mobility(config);
  trace::save_mobility(out, trace);
  std::printf("wrote %s: %zu days, fleet %zu, %zu encounters\n",
              out.c_str(), trace.days(), trace.fleet_size,
              trace.encounters.size());
  return 0;
}

struct GenEmail {
  trace::EmailConfig config;
  std::string out;

  Flags flags();
  int run() const;
};

Flags GenEmail::flags() {
  return {{"--out", "FILE", "workload file to write (required)", set(out)},
          {"--users", "N", "mail users", set(config.users)},
          {"--messages", "N", "messages to inject", set(config.total_messages)},
          {"--seed", "S", "generator seed", set(config.seed)}};
}

int GenEmail::run() const {
  if (out.empty()) usage("gen-email requires --out");
  const auto workload = trace::generate_email(config);
  trace::save_email(out, workload);
  std::printf("wrote %s: %zu users, %zu messages\n", out.c_str(),
              workload.users.size(), workload.messages.size());
  return 0;
}

void write_csv(const std::string& path, const sim::Metrics& metrics) {
  std::ofstream out(path);
  if (!out) throw ContractViolation("cannot open " + path);
  out << "message_id,sender,recipient,injected_s,delivered_s,"
         "delay_h,copies_at_delivery,copies_at_end\n";
  for (const auto& [id, record] : metrics.records()) {
    out << id.value() << ',' << record.sender.value() << ','
        << record.recipient.value() << ',' << record.injected.seconds()
        << ',';
    if (record.delivered) {
      out << record.delivered->seconds() << ',' << record.delay_hours();
    } else {
      out << ",";
    }
    out << ',' << record.copies_at_delivery << ','
        << record.copies_at_end << '\n';
  }
}

struct RunEmulation {
  sim::EmulationConfig config = sim::paper_config();
  std::optional<std::string> mobility_file;
  std::optional<std::string> email_file;
  std::optional<std::string> csv_file;
  double scale = 1.0;
  std::uint64_t seed = 4;

  Flags flags();
  int run();
};

Flags RunEmulation::flags() {
  return {
      {"--policy", "NAME", "forwarding policy (see below)", set(config.policy)},
      {"--param", "KEY=VALUE", "policy parameter (repeatable)",
       [this](const char* text) {
         const auto [key, value] = split_pair(text, "KEY=VALUE");
         config.policy_params[key] = parse<double>(value.c_str());
       }},
      choice("--strategy", "filter strategy", config.strategy,
             Choices<dtn::FilterStrategy>{
                 {"self", dtn::FilterStrategy::SelfOnly},
                 {"random", dtn::FilterStrategy::Random},
                 {"selected", dtn::FilterStrategy::Selected}}),
      {"--k", "N", "filter size for random|selected", set(config.filter_k)},
      {"--bandwidth", "N", "items per encounter", set(config.encounter_budget)},
      {"--storage", "N", "relay store capacity", set(config.relay_capacity)},
      {"--seed", "S", "experiment seed", set(seed)},
      {"--mobility", "FILE", "encounter trace to replay", set(mobility_file)},
      {"--email", "FILE", "message workload to inject", set(email_file)},
      {"--csv", "FILE", "write per-message records here", set(csv_file)},
      {"--scale", "X", "shrink the generated world (< 1)", set(scale)},
  };
}

int RunEmulation::run() {
  // Rebuild the config around the chosen seed/scale, preserving the
  // experiment knobs gathered above.
  {
    auto fresh = scale < 1.0 ? sim::small_config(scale, seed)
                             : sim::paper_config(seed);
    fresh.policy = config.policy;
    fresh.policy_params = config.policy_params;
    fresh.strategy = config.strategy;
    fresh.filter_k = config.filter_k;
    fresh.encounter_budget = config.encounter_budget;
    fresh.relay_capacity = config.relay_capacity;
    config = fresh;
  }

  sim::EmulationResult result;
  if (mobility_file || email_file) {
    auto mobility = mobility_file
                        ? trace::load_mobility(*mobility_file)
                        : trace::generate_mobility(config.mobility);
    auto email = email_file ? trace::load_email(*email_file)
                            : trace::generate_email(config.email);
    sim::Emulation emulation(config, std::move(mobility),
                             std::move(email));
    result = emulation.run();
  } else {
    result = sim::run_experiment(config);
  }

  const auto& metrics = result.metrics;
  const auto delays = metrics.delay_distribution();
  std::printf("policy=%s fleet=%zu users=%zu days=%zu\n",
              config.policy.c_str(), result.fleet_size, result.users,
              result.days);
  std::printf("delivered %zu/%zu", metrics.delivered_count(),
              metrics.injected_count());
  if (delays.count() > 0) {
    std::printf("  mean %.1fh  median %.1fh  max %.1fd",
                delays.mean(), delays.quantile(0.5),
                metrics.max_delay_hours() / 24.0);
  }
  std::printf("\ncopies %.2f@delivery %.2f@end  traffic %zu items\n",
              metrics.mean_copies_at_delivery(),
              metrics.mean_copies_at_end(),
              metrics.traffic().items_sent);
  if (csv_file) {
    write_csv(*csv_file, metrics);
    std::printf("per-message records written to %s\n",
                csv_file->c_str());
  }
  return 0;
}

/// Print the messages a session delivered to this node's hosted
/// addresses, in a grep-friendly form (the e2e smoke test keys on it).
void report_delivered(const std::vector<dtn::Message>& delivered) {
  for (const dtn::Message& message : delivered) {
    std::string dests;
    for (const HostId dest : message.destinations) {
      if (!dests.empty()) dests += '+';
      dests += std::to_string(dest.value());
    }
    std::printf("delivered from=%llu to=%s body=%s\n",
                static_cast<unsigned long long>(message.source.value()),
                dests.c_str(), message.body.c_str());
  }
}

void report_sync(const char* label, const repl::SyncStats& stats) {
  std::printf(
      "%s: items=%zu new=%zu stale=%zu complete=%d "
      "request_bytes=%zu batch_bytes=%zu\n",
      label, stats.items_sent, stats.items_new, stats.items_stale,
      stats.complete ? 1 : 0, stats.request_bytes, stats.batch_bytes);
}

/// A DtnNode plus its (optional) crash-durable state. When `state_dir`
/// is non-empty: recover the replica if a checkpoint exists, else start
/// fresh, and attach the WAL sink either way — every later mutation is
/// durable before the funnel returns.
struct DurableNode {
  std::unique_ptr<persist::FsEnv> env;
  /// Non-null when disk faults are requested; wraps *env.
  std::unique_ptr<persist::FaultInjectingEnv> fault_env;
  std::unique_ptr<persist::Durability> durability;
  std::optional<dtn::DtnNode> node;

  [[nodiscard]] persist::StorageEnv& storage() {
    if (fault_env) return *fault_env;
    return *env;
  }
};

/// Seeded disk-fault injection (tools/diskfault_e2e.sh) wraps the FsEnv
/// in a persist::FaultInjectingEnv so a node can be run against a disk
/// that fails under load without filling or breaking a real one. The
/// rate is armed *after* attach — the disk was healthy at boot — while
/// the ENOSPC byte budget counts from the first write (a disk that
/// fills, fills on everything).
DurableNode make_durable_node(const Node& local, std::uint64_t default_id,
                              persist::DurabilityOptions options = {}) {
  const std::string& state_dir = local.state_dir;
  const std::uint64_t id = local.id.value_or(default_id);
  const bool disk_faults =
      local.disk.fault_rate > 0 || local.disk.enospc_after_bytes > 0;
  if (disk_faults && state_dir.empty())
    usage("--disk-fault-* flags require --state-dir");
  DurableNode out;
  if (state_dir.empty()) {
    out.node.emplace(ReplicaId(id));
    return out;
  }
  out.env = std::make_unique<persist::FsEnv>(state_dir);
  if (disk_faults) {
    persist::FaultPlan plan = local.disk;
    plan.fault_rate = 0.0;  // armed after attach
    out.fault_env = std::make_unique<persist::FaultInjectingEnv>(
        *out.env, plan);
  }
  // One structured, grep-stable line the moment the layer gives up on
  // the acknowledgement contract; everything after it is read-only.
  if (!options.on_degrade) {
    options.on_degrade = [](const StorageError& err) {
      std::fprintf(stderr,
                   "degraded: now read-only op=%s file=%s errno=%d\n",
                   err.op().c_str(), err.file().c_str(),
                   err.error_code());
      std::fflush(stderr);
    };
  }
  if (auto recovered = persist::recover(out.storage())) {
    std::printf(
        "recovered replica %llu from %s: epoch=%llu replayed=%zu "
        "torn_bytes=%zu%s\n",
        static_cast<unsigned long long>(recovered->replica.id().value()),
        state_dir.c_str(),
        static_cast<unsigned long long>(recovered->stats.epoch),
        recovered->stats.wal_records_replayed,
        recovered->stats.wal_bytes_truncated,
        recovered->stats.wal_stale ? " (stale log ignored)" : "");
    if (local.id && recovered->replica.id().value() != id) {
      std::fprintf(stderr,
                   "warning: --id %llu ignored; state directory holds "
                   "replica %llu\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(
                       recovered->replica.id().value()));
    }
    out.node.emplace(std::move(recovered->replica));
  } else {
    out.node.emplace(ReplicaId(id));
  }
  out.durability =
      std::make_unique<persist::Durability>(out.storage(), options);
  out.durability->attach(out.node->replica());
  if (out.fault_env) out.fault_env->set_fault_rate(local.disk.fault_rate);
  // Exactly-once delivery reporting across restarts: seed the node's
  // ledger with everything already reported (attach() restored it from
  // checkpoint + WAL) and persist each new first-time delivery before
  // it is handed to the application.
  out.node->seed_delivered(out.durability->delivered());
  out.node->set_delivery_sink(
      [durability = out.durability.get()](ItemId delivered) {
        durability->note_delivered(delivered);
      });
  return out;
}

/// SIGTERM/SIGINT write one byte to this self-pipe; the serve loop's
/// acceptor watches the read end and starts a graceful drain.
volatile int g_shutdown_pipe_write = -1;

void on_shutdown_signal(int) {
  const unsigned char byte = 1;
  if (g_shutdown_pipe_write >= 0) {
    [[maybe_unused]] const ssize_t n =
        ::write(g_shutdown_pipe_write, &byte, 1);
  }
}

struct Serve {
  Endpoint endpoint;
  Node local;
  net::SyncServerOptions server_options;
  persist::DurabilityOptions durability_options;

  Serve() { server_options.tcp.session_deadline_ms = 30000; }

  Flags flags();
  int run();
};

Flags Serve::flags() {
  return join({
      endpoint.flags(),
      local.flags(),
      {
          {"--max-sessions", "N", "exit after N sessions (0 = never)",
           set(server_options.max_sessions)},
          {"--workers", "N", "event-loop worker threads",
           set_positive(server_options.workers)},
          {"--drain-ms", "N", "SIGTERM drain deadline",
           set(server_options.drain_deadline_ms)},
          {"--kill-after-records", "N",
           "SIGKILL self after the Nth WAL record",
           set(durability_options.kill_after_records)},
          {"--checkpoint-every-bytes", "N", "roll the WAL at this size",
           set(durability_options.checkpoint_every_bytes)},
          {"--checkpoint-generations", "N", "checkpoints to keep",
           set_positive(durability_options.checkpoint_generations)},
          {"--io-timeout-ms", "N", "per-operation I/O timeout",
           set(server_options.tcp.io_timeout_ms)},
          {"--session-deadline-ms", "N", "absolute session deadline",
           set(server_options.tcp.session_deadline_ms)},
          {"--quarantine-base-ms", "N", "first quarantine window",
           set(server_options.quarantine.base_backoff_ms)},
          {"--quarantine-max-ms", "N", "quarantine window cap",
           set(server_options.quarantine.max_backoff_ms)},
          {"--max-concurrent-sessions", "N",
           "shed connections beyond N (0 = no cap)",
           set(server_options.max_concurrent_sessions)},
          {"--max-request-bytes", "N", "request frame cap",
           set(server_options.limits.max_request_bytes)},
          {"--max-item-bytes", "N", "batch item frame cap",
           set(server_options.limits.max_item_bytes)},
          {"--max-batch-items", "N", "items per batch cap",
           set(server_options.limits.max_batch_items)},
      },
  });
}

int Serve::run() {
  if (!endpoint.port) usage("serve requires --port (0 = ephemeral)");
  if (local.addrs.empty()) usage("serve requires at least one --addr");
  if (durability_options.kill_after_records != 0 && local.state_dir.empty())
    usage("--kill-after-records requires --state-dir");

  DurableNode durable = make_durable_node(local, 1, durability_options);
  dtn::DtnNode& node = *durable.node;
  // With --state-dir the delivered ledger was recovered and seeded in
  // make_durable_node, so messages already reported before a crash stay
  // silent here — delivery reporting is exactly-once across restarts.
  report_delivered(node.set_addresses(
      {local.addrs.begin(), local.addrs.end()}, {}, SimTime(0)));

  // Graceful drain on SIGTERM/SIGINT: the handler writes to a
  // self-pipe whose read end the server's acceptor loop watches.
  int shutdown_pipe[2] = {-1, -1};
  if (::pipe(shutdown_pipe) != 0)
    throw ContractViolation("cannot create shutdown pipe");
  net::set_nonblocking(shutdown_pipe[1], true);
  g_shutdown_pipe_write = shutdown_pipe[1];
  struct sigaction shutdown_action = {};
  shutdown_action.sa_handler = on_shutdown_signal;
  ::sigaction(SIGTERM, &shutdown_action, nullptr);
  ::sigaction(SIGINT, &shutdown_action, nullptr);

  server_options.port = *endpoint.port;
  server_options.shutdown_fd = shutdown_pipe[0];
  server_options.sync = local.sync;
  server_options.link_faults = local.link;

  net::SyncServerCallbacks callbacks;
  // Runs on a worker thread with the server's state mutex held, so the
  // node (and stdout ordering per session) are safe to touch.
  callbacks.on_session = [&node](std::size_t session,
                                 const std::string& /*peer*/,
                                 const net::ServerSessionOutcome& outcome) {
    const std::string failure =
        outcome.transport_failed ? " transport_failed: " + outcome.error
                                 : "";
    // A session cut before its Hello has no peer and ran no sync: say
    // so instead of printing the unset replica id and empty stats.
    if (!outcome.hello.replica.valid()) {
      std::printf("session %zu: peer=none%s\nstore=%zu\n", session,
                  failure.c_str(), node.replica().store().size());
      std::fflush(stdout);
      return;
    }
    std::printf("session %zu: peer=%llu mode=%u%s\n", session,
                static_cast<unsigned long long>(
                    outcome.hello.replica.value()),
                static_cast<unsigned>(outcome.hello.mode),
                failure.c_str());
    report_sync("  served", outcome.served.stats);
    report_sync("  applied", outcome.applied.result.stats);
    report_delivered(node.on_sync_delivered(
        outcome.applied.result.delivered, SimTime(0)));
    std::printf("store=%zu\n", node.replica().store().size());
    std::fflush(stdout);
  };
  // A malformed or hostile peer must not take the server down; it
  // earns a strike and a capped exponential quarantine window.
  callbacks.on_violation = [&node](std::size_t session,
                                   const std::string& peer,
                                   bool limit_breach,
                                   const std::string& what,
                                   std::size_t strikes,
                                   std::uint64_t window_ms) {
    std::fprintf(stderr, "session %zu [%s]: %s: %s\n", session,
                 peer.c_str(),
                 limit_breach ? "resource limit" : "protocol error",
                 what.c_str());
    std::fprintf(stderr,
                 "session %zu [%s]: quarantined strikes=%zu "
                 "window_ms=%llu\n",
                 session, peer.c_str(), strikes,
                 static_cast<unsigned long long>(window_ms));
    std::printf("store=%zu\n", node.replica().store().size());
    std::fflush(stdout);
  };
  // Refused before any frame is read or buffer allocated for the
  // peer; rejected connections do not count toward --max-sessions.
  callbacks.on_reject = [](const std::string& peer,
                           const net::AdmitDecision& admitted) {
    std::fprintf(stderr,
                 "reject [%s]: quarantined strikes=%zu "
                 "rejections=%zu retry_after_ms=%llu\n",
                 peer.c_str(), admitted.strikes, admitted.rejections,
                 static_cast<unsigned long long>(
                     admitted.retry_after_ms));
  };
  // Transient accept errors (EMFILE, aborted handshakes) must not
  // take the server down; only a persistently broken listener does.
  callbacks.on_accept_error = [](const std::string& what,
                                 std::size_t consecutive,
                                 bool giving_up) {
    std::fprintf(stderr, "accept failed: %s\n", what.c_str());
    if (giving_up)
      std::fprintf(stderr,
                   "giving up after %zu consecutive accept failures\n",
                   consecutive);
  };
  callbacks.on_drain = [](std::size_t active) {
    std::fprintf(stderr, "draining: %zu sessions in flight\n", active);
  };
  // Shedding is load management, not punishment: one structured line
  // per refused connection, no strike — the client retries with
  // backoff once a slot frees up.
  callbacks.on_shed = [](const std::string& peer, std::size_t active) {
    std::fprintf(stderr, "shed [%s]: busy active=%zu\n", peer.c_str(),
                 active);
  };

  net::SyncServer server(node.replica(), node.policy(), server_options,
                         callbacks);
  std::printf("serving replica %llu on port %u\n",
              static_cast<unsigned long long>(node.id().value()),
              server.port());
  std::fflush(stdout);
  if (!endpoint.file.empty()) {
    std::ofstream out(endpoint.file);
    if (!out) throw ContractViolation("cannot open " + endpoint.file);
    out << server.port() << '\n';
  }

  const bool listener_ok = server.run();

  if (server_options.max_concurrent_sessions != 0 ||
      local.link.fault_rate > 0) {
    std::printf("flaky-link: shed=%zu link_faults_injected=%zu\n",
                server.sessions_shed(), server.link_faults_injected());
    std::fflush(stdout);
  }

  if (durable.durability) {
    const persist::DurabilityCounters counters =
        durable.durability->counters();
    std::printf(
        "durability: epoch=%llu records=%zu fsyncs=%zu checkpoints=%zu "
        "roll_failures=%zu generations=%zu pruned=%zu degraded=%d\n",
        static_cast<unsigned long long>(counters.epoch),
        counters.wal_records_logged, counters.wal_fsyncs,
        counters.checkpoints_written, counters.checkpoint_failures,
        counters.generations_retained, counters.generations_pruned,
        counters.degraded ? 1 : 0);
    if (durable.fault_env) {
      std::printf("disk-faults: injected=%zu bytes_written=%zu\n",
                  durable.fault_env->faults_injected(),
                  durable.fault_env->bytes_written());
    }
    std::fflush(stdout);
  }

  shutdown_action.sa_handler = SIG_DFL;
  ::sigaction(SIGTERM, &shutdown_action, nullptr);
  ::sigaction(SIGINT, &shutdown_action, nullptr);
  g_shutdown_pipe_write = -1;
  ::close(shutdown_pipe[0]);
  ::close(shutdown_pipe[1]);
  // FsEnv's state-dir lock (and the WAL) are released by the DurableNode
  // destructors on this return path — a drained shutdown exits clean.
  return listener_ok ? 0 : 1;
}

/// Connect with a bounded retry budget and jittered exponential
/// backoff: in a DTN encounter the peer's listener may come up moments
/// after we notice the contact, so ECONNREFUSED must not abort the
/// whole encounter. The backoff schedule is the caller's — sync-with
/// shares one JitteredBackoff between connect retries and session
/// re-dials so every failure in the encounter escalates together, and
/// its jitter desynchronizes nodes retrying after the same contact
/// event.
net::ConnectionPtr connect_with_retries(const std::string& host,
                                        std::uint16_t port,
                                        const net::TcpOptions& options,
                                        std::size_t retries,
                                        JitteredBackoff& backoff) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      return net::tcp_connect(host, port, options);
    } catch (const net::TransportError& failure) {
      if (attempt >= retries) throw;
      const std::uint64_t sleep_ms = backoff.next_delay_ms();
      std::fprintf(stderr,
                   "connect attempt %zu failed: %s; retrying in %llums\n",
                   attempt + 1, failure.what(),
                   static_cast<unsigned long long>(sleep_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
}

struct SyncWith {
  Dial dial;
  Node local;
  std::vector<std::pair<std::uint64_t, std::string>> sends;
  net::SyncMode mode = net::SyncMode::Encounter;
  std::size_t retries = 4;
  std::uint64_t retry_base_ms = 100;
  std::size_t retry_max = 0;
  std::uint64_t retry_budget_ms = 0;

  Flags flags();
  int run();
};

Flags SyncWith::flags() {
  return join({
      dial.flags(),
      local.flags(),
      {
          {"--send", "DEST=BODY", "author a message (repeatable)",
           [this](const char* text) {
             const auto [dest, body] = split_pair(text, "DEST=BODY");
             sends.emplace_back(parse<std::uint64_t>(dest.c_str()), body);
           }},
          choice("--mode", "sync direction", mode,
                 Choices<net::SyncMode>{
                     {"pull", net::SyncMode::Pull},
                     {"push", net::SyncMode::Push},
                     {"encounter", net::SyncMode::Encounter}}),
          {"--retries", "N", "connect retries", set(retries)},
          {"--retry-base-ms", "N", "first retry backoff", set(retry_base_ms)},
          {"--retry-max", "N", "re-dials after a failed session",
           set(retry_max)},
          {"--retry-budget-ms", "N", "stop re-dialing after this long",
           set(retry_budget_ms)},
      },
  });
}

int SyncWith::run() {
  if (local.addrs.empty()) usage("sync-with requires --addr");
  const HostId addr(local.addrs.back());
  const std::uint16_t port = dial.port("sync-with");

  DurableNode durable = make_durable_node(local, 2);
  dtn::DtnNode& node = *durable.node;
  node.set_addresses({addr}, {}, SimTime(0));
  for (const auto& [dest, body] : sends)
    node.send(addr, {HostId(dest)}, body, SimTime(0));

  // Link-fault injection (tools/flakylink_e2e.sh): one seeded injector
  // shared across every retry attempt, so re-dials walk one
  // deterministic schedule stream. Rate 0 = passthrough, no RNG draws.
  net::LinkFaultInjector link_faults(local.link);

  // One jittered-exponential schedule for the whole encounter: connect
  // retries and session re-dials escalate it together.
  JitteredBackoff backoff(
      BackoffOptions{retry_base_ms == 0 ? 1 : retry_base_ms, 10000},
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()));
  const auto contact_started = std::chrono::steady_clock::now();
  const auto budget_exhausted = [&] {
    if (retry_budget_ms == 0) return false;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - contact_started);
    return static_cast<std::uint64_t>(elapsed.count()) >= retry_budget_ms;
  };

  // The retrying contact discipline: a cut or shed attempt is re-dialed
  // with backoff, up to --retry-max extra attempts within
  // --retry-budget-ms. Partial progress persists in the replica between
  // attempts (incomplete-sync semantics), so every retry resumes where
  // the cut stopped — acknowledged data is never re-sent — and the
  // delivery ledger keeps reporting exactly-once.
  for (std::size_t attempt = 0;; ++attempt) {
    std::string failure;
    bool refusal = false;
    try {
      const auto connection = link_faults.wrap(connect_with_retries(
          dial.host, port, dial.tcp, retries, backoff));
      const auto outcome = net::run_client_session(
          *connection, node.replica(), node.policy(), mode, SimTime(0),
          local.sync);
      if (outcome.refused) {
        // The server answered Hello with a transient Error (an
        // overloaded serve shedding Busy, a draining one): the session
        // never started, no strike in either direction — retry.
        failure = outcome.error;
        refusal = true;
      } else {
        report_sync("pulled", outcome.pull.result.stats);
        report_sync("pushed", outcome.push.stats);
        report_delivered(node.on_sync_delivered(
            outcome.pull.result.delivered, SimTime(0)));
        std::printf("store=%zu\n", node.replica().store().size());
        if (outcome.pull.refused || outcome.push.refused) {
          // A structured, transient refusal (e.g. the peer — or this
          // replica — is degraded read-only), not a link or protocol
          // failure: distinct exit code so scripts can retry elsewhere.
          std::fprintf(stderr, "refused: %s\n",
                       outcome.pull.refused ? outcome.pull.error.c_str()
                                            : outcome.push.error.c_str());
          return 3;
        }
        if (!outcome.transport_failed) return 0;
        failure = outcome.error;
      }
    } catch (const net::TransportError& error) {
      failure = error.what();
    }
    if (attempt >= retry_max || budget_exhausted()) {
      if (refusal) {
        std::fprintf(stderr, "refused: %s\n", failure.c_str());
        return 3;
      }
      std::fprintf(stderr, "transport failed: %s\n", failure.c_str());
      return 1;
    }
    const std::uint64_t sleep_ms = backoff.next_delay_ms();
    std::fprintf(stderr,
                 "sync attempt %zu failed (%s); retrying in %llums\n",
                 attempt + 1, failure.c_str(),
                 static_cast<unsigned long long>(sleep_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

/// Drive scripted hostile-peer attacks against a live `serve` (the
/// third leg of the chaos triad; see docs/hardening.md). Exit 0 means
/// every requested attack script ran to completion — the *server's*
/// health is judged by the caller (tools/hostile_e2e.sh), which checks
/// that serve stayed up, quarantined the attacker, and still converges
/// with an honest peer afterwards.
struct Chaos {
  Dial dial;
  std::vector<net::ChaosAttack> attacks;
  bool all = false;
  bool list = false;
  net::ChaosPeerOptions chaos_options;

  Flags flags();
  int run();
};

Flags Chaos::flags() {
  return join({
      dial.flags(),
      {
          {"--attack", "NAME", "attack to run (repeatable)",
           [this](const char* name) {
             const auto attack = net::chaos_attack_from_name(name);
             if (!attack) throw std::invalid_argument("unknown attack");
             attacks.push_back(*attack);
           }},
          toggle("--all", "run every attack", all),
          toggle("--list", "print the attack names and exit", list),
          {"--trickle-delay-ms", "N", "byte-trickle pause per byte",
           set(chaos_options.trickle_delay_ms)},
      },
  });
}

int Chaos::run() {
  if (list) {
    for (std::size_t i = 0; i < net::kChaosAttackCount; ++i)
      std::printf("%s\n", net::chaos_attack_name(
                              static_cast<net::ChaosAttack>(i)));
    return 0;
  }
  if (all) {
    attacks.clear();
    for (std::size_t i = 0; i < net::kChaosAttackCount; ++i)
      attacks.push_back(static_cast<net::ChaosAttack>(i));
  }
  if (attacks.empty()) usage("chaos requires --attack, --all, or --list");
  const std::uint16_t port = dial.port("chaos");

  for (const net::ChaosAttack attack : attacks) {
    const char* name = net::chaos_attack_name(attack);
    try {
      const auto connection = net::tcp_connect(dial.host, port, dial.tcp);
      const net::ChaosOutcome outcome =
          net::run_chaos_attack(*connection, attack, chaos_options);
      std::printf("attack=%s violation=%d bytes_sent=%zu cut=%d%s%s\n",
                  name, net::chaos_attack_is_violation(attack) ? 1 : 0,
                  outcome.bytes_sent, outcome.server_cut_us ? 1 : 0,
                  outcome.note.empty() ? "" : " note=",
                  outcome.note.c_str());
    } catch (const net::TransportError& failure) {
      // Connect refused — e.g. we are already quarantined. Still a
      // successful probe: report and move on.
      std::printf("attack=%s connect_failed=%s\n", name, failure.what());
    }
    std::fflush(stdout);
  }
  return 0;
}

struct StateDigest {
  std::string state_dir;

  Flags flags();
  int run() const;
};

Flags StateDigest::flags() {
  return {{"--state-dir", "DIR", "state directory to digest (required)",
           set(state_dir)}};
}

int StateDigest::run() const {
  if (state_dir.empty()) usage("state-digest requires --state-dir");

  persist::FsEnv env(state_dir);
  const auto recovered = persist::recover(env);
  if (!recovered) {
    std::fprintf(stderr, "no checkpoint in %s\n", state_dir.c_str());
    return 1;
  }
  const repl::Replica& replica = recovered->replica;
  // The digest line is the comparison key for crash e2e tests: two
  // state directories with equal digests hold byte-identical replica
  // state and will build byte-identical sync batches.
  std::printf("digest=%016llx\n",
              static_cast<unsigned long long>(
                  persist::state_digest(replica)));
  std::printf("replica=%llu items=%zu relay=%zu next_counter=%llu "
              "epoch=%llu replayed=%zu\n",
              static_cast<unsigned long long>(replica.id().value()),
              replica.store().size(), replica.store().relay_count(),
              static_cast<unsigned long long>(replica.next_counter()),
              static_cast<unsigned long long>(recovered->stats.epoch),
              recovered->stats.wal_records_replayed);
  // Recovery provenance: which checkpoint generation actually loaded,
  // whether newer corrupt generations were skipped, and whether the
  // previous process died degraded (read-only marker still on disk).
  std::printf("generations: recovered_epoch=%llu newest_epoch=%llu "
              "tried=%zu fallback=%d\n",
              static_cast<unsigned long long>(recovered->stats.epoch),
              static_cast<unsigned long long>(
                  recovered->stats.newest_epoch),
              recovered->stats.generations_tried,
              recovered->stats.fallback ? 1 : 0);
  std::printf("wal: segments=%zu records=%zu bytes=%zu torn_bytes=%zu "
              "stale=%d\n",
              recovered->stats.segments_replayed,
              recovered->stats.wal_records_replayed,
              recovered->stats.wal_bytes_valid,
              recovered->stats.wal_bytes_truncated,
              recovered->stats.wal_stale ? 1 : 0);
  std::printf("delivered=%zu\n", recovered->delivered.size());
  std::printf("degraded=%d\n",
              env.exists(persist::kDegradedMarkerFile) ? 1 : 0);
  return 0;
}

/// The bugs `check --inject-bug` can plant, each one ScenarioConfig
/// switch the probes must catch.
const Choices<bool check::ScenarioConfig::*> kInjectableBugs = {
    {"learn-truncated", &check::ScenarioConfig::inject_learn_truncated},
    {"skip-fsync", &check::ScenarioConfig::inject_skip_fsync},
    {"skip-limit-check", &check::ScenarioConfig::inject_skip_limit_check},
    {"no-deadline", &check::ScenarioConfig::inject_no_deadline},
    {"summary-skip-fallback",
     &check::ScenarioConfig::inject_summary_skip_fallback},
    {"ack-before-fsync", &check::ScenarioConfig::inject_ack_before_fsync},
    {"retry-forgets-progress",
     &check::ScenarioConfig::inject_retry_forgets_progress},
};

struct Check {
  check::CheckOptions options;
  /// The schedule-marked flags as typed, for the replay hint.
  std::string replay;

  Check() { options.runs = 5; }

  Flags flags();
  int run() const;
};

Flags Check::flags() {
  check::ScenarioConfig& config = options.config;
  return {
      {"--seed", "S", "first seed", set(options.seed)},
      {"--runs", "N", "seeds to run", set(options.runs)},
      {"--replay", "S", "re-run (and shrink) one seed",
       [this](const char* text) {
         options.seed = parse<std::uint64_t>(text);
         options.runs = 1;
       }},
      toggle("--log", "print every event log", options.log),
      {"--replicas", "N", "replicas per schedule", set(config.replicas),
       &replay},
      {"--steps", "N", "events per schedule", set(config.steps), &replay},
      {"--addresses", "N", "host addresses in play",
       set(config.addresses), &replay},
      {"--cut-rate", "X", "syncs cut mid-stream",
       set_rate(config.cut_rate), &replay},
      {"--cap-rate", "X", "syncs capped by item count",
       set_rate(config.cap_rate), &replay},
      {"--throttle-rate", "X", "syncs labelled throttled",
       set_rate(config.throttle_rate), &replay},
      {"--filter-rate", "X", "filter-change events",
       set_rate(config.filter_change_rate), &replay},
      {"--discard-rate", "X", "relay-discard events",
       set_rate(config.discard_rate), &replay},
      {"--storage", "N", "relay store capacity",
       set(config.relay_capacity), &replay},
      {"--crash-rate", "X", "crash-restart events",
       set_rate(config.crash_rate), &replay},
      {"--adversary-rate", "X", "chaos-peer attack events",
       set_rate(config.adversary_rate), &replay},
      {"--quiesce", "N", "gossip rounds before the final probe",
       set(config.quiescence_rounds), &replay},
      {"--summary-rate", "X", "syncs opened with a summary",
       set_rate(config.summary_rate), &replay},
      {"--summary-collision-rate", "X", "summary syncs forced to match",
       set_rate(config.summary_collision_rate), &replay},
      {"--disk-fault-rate", "X", "storage operations that fail",
       set_rate(config.disk_fault_rate), &replay},
      {"--retry-max", "N", "re-dials per cut contact",
       set(config.sync_retry_max), &replay},
      toggle("--no-shrink", "report the raw failing schedule",
             options.shrink, false),
      {"--shrink-budget", "N", "executions spent shrinking",
       set(options.shrink_budget)},
      {"--inject-bug", names_of(kInjectableBugs),
       "plant a bug the probes must catch",
       [this](const char* text) {
         options.config.*pick(kInjectableBugs, text) = true;
       },
       &replay},
  };
}

int Check::run() const {
  if (options.config.replicas < 2) usage("check needs --replicas >= 2");

  const check::CheckReport report = check::run_check(options);
  for (const std::string& line : report.run_logs)
    std::printf("%s\n", line.c_str());
  const std::string replay_hint = "pfrdtn check" + replay + " --replay " +
                                  std::to_string(report.failing_seed);
  std::fputs(check::format_report(report, replay_hint).c_str(), stdout);
  return report.passed ? 0 : 1;
}

struct Command {
  const char* name;
  const char* about;
  int (*main)(int argc, char** argv);
  void (*help)(std::string& out);
};

template <typename C>
Command command(const char* name, const char* about) {
  return {name, about,
          [](int argc, char** argv) {
            C c;
            parse_flags(argc, argv, c.flags());
            return c.run();
          },
          [](std::string& out) {
            C c;
            describe(c.flags(), out);
          }};
}

const Command kCommands[] = {
    command<GenMobility>("gen-mobility",
                         "generate a synthetic DieselNet-like trace"),
    command<GenEmail>("gen-email",
                      "generate a synthetic Enron-like workload"),
    command<RunEmulation>("run", "run one emulation"),
    command<Serve>("serve", "host a replica, serving syncs over TCP"),
    command<SyncWith>("sync-with", "sync with a serving replica"),
    command<Chaos>("chaos", "attack a serving replica (hardening.md)"),
    command<StateDigest>("state-digest",
                         "digest a crash-durable state directory"),
    command<Check>("check", "fault-schedule invariant checks (checking.md)"),
};

void usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::string text = "usage: pfrdtn <command> [options]\n\ncommands:\n";
  for (const Command& c : kCommands) {
    text += pad(std::string("  ") + c.name, 16) + c.about + "\n";
    c.help(text);
  }
  text += "\npolicies:";
  for (const auto& names :
       {dtn::known_policies(), dtn::baseline_policies()})
    for (const std::string& name : names) text += " " + name;
  std::fputs((text + "\n").c_str(), error.empty() ? stdout : stderr);
  std::exit(error.empty() ? 0 : 2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string name = argv[1];
  if (name == "--help" || name == "help") usage();
  const auto command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) usage("unknown command " + name);
  try {
    return command->main(argc - 2, argv + 2);
  } catch (const pfrdtn::StorageError& fault) {
    // Fatal persistence failure (fsync, checkpoint roll, recovery I/O):
    // one structured line, non-zero exit. Unwinding releases the state
    // directory flock so a supervisor can restart immediately.
    std::fprintf(stderr, "fatal storage error: op=%s file=%s errno=%d: %s\n",
                 fault.op().c_str(), fault.file().c_str(),
                 fault.error_code(), fault.what());
    return 1;
  } catch (const pfrdtn::ContractViolation& violation) {
    std::fprintf(stderr, "error: %s\n", violation.what());
    return 1;
  }
}
