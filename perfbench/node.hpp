#pragma once

/// \file node.hpp
/// The two program fixtures the network workloads build: a durable
/// DtnNode wired as `pfrdtn serve|sync-with --state-dir` wires one, and
/// a net::SyncServer serving on its own thread.

#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "decorators.hpp"
#include "dtn/messaging.hpp"
#include "net/server.hpp"
#include "persist/durability.hpp"

namespace perfbench {

/// A DtnNode with crash-durable state over `env`: recover if the env
/// holds a checkpoint, else start fresh as `fresh_id`; attach the WAL
/// sink; seed the delivered ledger and persist every new delivery.
/// With a tracer, the env and the mutation sink are decorated and
/// recovery, attach and each ledger write run inside spans.
class DurableNode {
 public:
  DurableNode(pfrdtn::persist::StorageEnv& env, pfrdtn::ReplicaId fresh_id,
              Tracer* tracer);
  DurableNode(const DurableNode&) = delete;
  DurableNode& operator=(const DurableNode&) = delete;

  [[nodiscard]] pfrdtn::dtn::DtnNode& node() { return *node_; }
  [[nodiscard]] pfrdtn::persist::Durability& durability() {
    return *durability_;
  }
  /// The decorated env, or null when untraced.
  [[nodiscard]] const TracedEnv* traced_env() const {
    return traced_env_.get();
  }

 private:
  std::unique_ptr<TracedEnv> traced_env_;
  std::optional<pfrdtn::dtn::DtnNode> node_;
  // Declared before durability_ so the Durability detaches from the
  // replica before the decorator over it is destroyed.
  std::unique_ptr<TracedSink> sink_;
  std::unique_ptr<pfrdtn::persist::Durability> durability_;
};

/// A SyncServer whose run() loop is on its own thread from construction
/// until stop() (or destruction) drains it. The loop and the workers it
/// starts run on `cpus` (wherever the caller may run, when empty).
class ServingThread {
 public:
  ServingThread(pfrdtn::repl::Replica& replica,
                pfrdtn::repl::ForwardingPolicy* policy,
                pfrdtn::net::SyncServerOptions options,
                pfrdtn::net::SyncServerCallbacks callbacks,
                const std::vector<int>& cpus);
  ~ServingThread();
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] pfrdtn::net::SyncServer& server() { return server_; }

  /// Drain in-flight sessions and join the loop; rethrows anything
  /// run() threw. Returns run()'s result. Idempotent.
  bool stop();

 private:
  pfrdtn::net::SyncServer server_;
  bool listener_ok_ = false;
  std::exception_ptr error_;
  std::thread thread_;  // last: runs against the members above
};

}  // namespace perfbench
