#include "node.hpp"

#include "common.hpp"

namespace perfbench {

using namespace pfrdtn;

DurableNode::DurableNode(persist::StorageEnv& env, ReplicaId fresh_id,
                         Tracer* tracer) {
  persist::StorageEnv* storage = &env;
  if (tracer != nullptr) {
    traced_env_ = std::make_unique<TracedEnv>(env, *tracer);
    storage = traced_env_.get();
  }
  std::optional<persist::RecoveredReplica> recovered;
  {
    Span span(tracer, SpanName::PersistRecover);
    recovered = persist::recover(*storage);
  }
  if (recovered) {
    node_.emplace(std::move(recovered->replica));
  } else {
    node_.emplace(fresh_id);
  }
  durability_ = std::make_unique<persist::Durability>(*storage);
  {
    Span span(tracer, SpanName::PersistAttach);
    durability_->attach(node_->replica());
  }
  if (tracer != nullptr) {
    sink_ = std::make_unique<TracedSink>(*durability_, *tracer);
    node_->replica().set_mutation_sink(sink_.get());
  }
  node_->seed_delivered(durability_->delivered());
  node_->set_delivery_sink(
      [durability = durability_.get(), tracer](ItemId delivered) {
        Span span(tracer, SpanName::PersistLedger);
        durability->note_delivered(delivered);
      });
}

ServingThread::ServingThread(repl::Replica& replica,
                             repl::ForwardingPolicy* policy,
                             net::SyncServerOptions options,
                             net::SyncServerCallbacks callbacks,
                             const std::vector<int>& cpus)
    : server_(replica, policy, std::move(options), std::move(callbacks)) {
  const ScopedPin pin(cpus);  // the new thread inherits the pin
  thread_ = std::thread([this] {
    try {
      listener_ok_ = server_.run();
    } catch (...) {
      error_ = std::current_exception();
    }
  });
}

ServingThread::~ServingThread() {
  try {
    stop();
  } catch (...) {
    // The failure was already reported by an explicit stop(), or the
    // run is being abandoned for another error.
  }
}

bool ServingThread::stop() {
  if (thread_.joinable()) {
    server_.shutdown();
    thread_.join();
  }
  if (error_) std::rethrow_exception(error_);
  return listener_ok_;
}

}  // namespace perfbench
