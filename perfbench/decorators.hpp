#pragma once

/// \file decorators.hpp
/// Decorators over the public interfaces the benchmark constructs. Each
/// forwards every call unchanged and wraps it in a span; the counters
/// record work done at the same boundary. Installed only in the traced
/// pass, so the untraced pass runs the program's own objects bare.

#include <array>
#include <atomic>
#include <cstdint>

#include "net/transport.hpp"
#include "persist/env.hpp"
#include "repl/replica.hpp"
#include "tracer.hpp"

namespace perfbench {

/// StorageEnv decorator: times append, sync and write_file_durable.
/// Counters are atomic because a durable server calls it from several
/// worker threads (serialized by the server's state mutex).
class TracedEnv final : public pfrdtn::persist::StorageEnv {
 public:
  TracedEnv(pfrdtn::persist::StorageEnv& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_->exists(name);
  }
  [[nodiscard]] std::size_t file_size(
      const std::string& name) const override {
    return inner_->file_size(name);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_file(
      const std::string& name) const override {
    return inner_->read_file(name);
  }
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override;
  void sync(const std::string& name) override;
  void write_file_durable(
      const std::string& name,
      const std::vector<std::uint8_t>& bytes) override;
  void truncate(const std::string& name, std::size_t size) override {
    inner_->truncate(name, size);
  }
  void remove(const std::string& name) override { inner_->remove(name); }

  std::atomic<std::uint64_t> append_bytes{0};
  std::atomic<std::uint64_t> syncs{0};
  /// write_file_durable calls that wrote a checkpoint.<epoch>.bin.
  std::atomic<std::uint64_t> checkpoints{0};

 private:
  pfrdtn::persist::StorageEnv* inner_;
  Tracer* tracer_;
};

/// ReplicaMutationSink decorator, installed over the Durability sink
/// after attach(): each hook runs inside a persist.sink span.
class TracedSink final : public pfrdtn::repl::ReplicaMutationSink {
 public:
  TracedSink(pfrdtn::repl::ReplicaMutationSink& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  void on_local_put(const pfrdtn::repl::Item& stored) override;
  void on_apply_remote(const pfrdtn::repl::Item& incoming) override;
  void on_set_filter(const pfrdtn::repl::Filter& filter) override;
  void on_discard_relay(pfrdtn::ItemId id) override;
  void on_learn(const pfrdtn::repl::Knowledge& knowledge) override;
  void on_policy_state(
      pfrdtn::ItemId id,
      const std::map<std::string, std::string>& all) override;

 private:
  pfrdtn::repl::ReplicaMutationSink* inner_;
  Tracer* tracer_;
};

/// What a client-side TracedConnection saw over one session.
struct LinkCounters {
  std::uint64_t bytes = 0;
  /// Replies waited for: reads that follow a write.
  std::uint64_t round_trips = 0;
  /// How each summary-opened sync was answered.
  std::uint64_t summary_match = 0;
  std::uint64_t summary_direct = 0;
  std::uint64_t summary_miss = 0;

  void add(const LinkCounters& other);
};

/// net::Connection decorator on the client end of a session. Besides
/// timing reads and writes it follows the frame headers in both
/// directions, so it can tell how the peer answered a SummaryRequest.
class TracedConnection final : public pfrdtn::net::Connection {
 public:
  TracedConnection(pfrdtn::net::ConnectionPtr inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  void write(const std::uint8_t* data, std::size_t size) override;
  void read(std::uint8_t* data, std::size_t size) override;
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_description() const override {
    return inner_->peer_description();
  }

  [[nodiscard]] const LinkCounters& counters() const { return counters_; }

 private:
  /// Follows frame boundaries in one direction of the byte stream.
  struct FrameScanner {
    std::array<std::uint8_t, 8> header{};
    std::size_t have = 0;
    std::uint64_t payload_left = 0;
  };
  enum Direction { kOut = 0, kIn = 1 };

  void scan(Direction direction, const std::uint8_t* data,
            std::size_t size);
  void on_frame_type(Direction direction, std::uint8_t type);

  pfrdtn::net::ConnectionPtr inner_;
  Tracer* tracer_;
  LinkCounters counters_;
  std::array<FrameScanner, 2> scanners_{};
  bool last_was_write_ = false;
  /// Direction that carried a SummaryRequest still awaiting its answer.
  int summary_pending_ = -1;
};

}  // namespace perfbench
