#pragma once

/// \file mutant_env.hpp
/// The two durability mutants behind `pfrdtn check --inject-bug`, as a
/// StorageEnv decorator instead of flags inside the persistence layer:
/// the harness slots it between a replica's Durability and its env
/// (above any FaultInjectingEnv), so production code carries neither
/// bug.
///
///   - SkipFsync (`skip-fsync`): sync() of a WAL segment does nothing,
///     so appended records are acknowledged without ever becoming
///     durable and a crash forgets them.
///   - AckBeforeFsync (`ack-before-fsync`): sync() of a WAL segment is
///     attempted, but a StorageError from the env below is swallowed
///     and the records are acknowledged anyway — retry-fsync-and-
///     assume-durable, the fsyncgate bug. Only observable under
///     injected disk faults.
///
/// Every other operation, and sync() of any other file (checkpoints,
/// the manifest), passes straight through.

#include <cstdint>
#include <string>
#include <vector>

#include "persist/env.hpp"
#include "util/storage_error.hpp"

namespace pfrdtn::check {

enum class DurabilityMutant { SkipFsync, AckBeforeFsync };

class MutantEnv final : public persist::StorageEnv {
 public:
  MutantEnv(persist::StorageEnv& inner, DurabilityMutant mutant)
      : inner_(inner), mutant_(mutant) {}

  [[nodiscard]] bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  [[nodiscard]] std::size_t file_size(
      const std::string& name) const override {
    return inner_.file_size(name);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_file(
      const std::string& name) const override {
    return inner_.read_file(name);
  }
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override {
    inner_.append(name, data, size);
  }
  void sync(const std::string& name) override {
    // WAL segments are wal.log and wal.<epoch>.log.
    if (name.rfind("wal", 0) != 0) return inner_.sync(name);
    if (mutant_ == DurabilityMutant::SkipFsync) return;
    try {
      inner_.sync(name);
    } catch (const StorageError&) {
      // acknowledged anyway — the bug under test
    }
  }
  void write_file_durable(
      const std::string& name,
      const std::vector<std::uint8_t>& bytes) override {
    inner_.write_file_durable(name, bytes);
  }
  void truncate(const std::string& name, std::size_t size) override {
    inner_.truncate(name, size);
  }
  void remove(const std::string& name) override { inner_.remove(name); }

 private:
  persist::StorageEnv& inner_;
  DurabilityMutant mutant_;
};

}  // namespace pfrdtn::check
