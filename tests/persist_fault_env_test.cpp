// FaultInjectingEnv semantics (determinism, the ENOSPC budget, short
// writes, zero-rate passthrough) and the degraded read-only mode it
// triggers in Durability: a hard storage fault refuses the mutation,
// flips the replica read-only, and never loses acknowledged state —
// while the ack-before-fsync mutant observably breaks that contract.

#include "persist/fault_env.hpp"

#include <gtest/gtest.h>

#include "persist/durability.hpp"
#include "util/storage_error.hpp"

namespace pfrdtn::persist {
namespace {

using repl::Filter;
using repl::Item;
using repl::Replica;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

Replica make_replica(std::uint64_t id, std::uint64_t addr) {
  return Replica(ReplicaId(id), Filter::addresses({HostId(addr)}));
}

/// A MemEnv whose next append to a non-empty file fails with ENOSPC
/// once armed: the first record after a fresh WAL segment's header.
class FailNextRecordEnv final : public StorageEnv {
 public:
  explicit FailNextRecordEnv(MemEnv& inner) : inner_(inner) {}
  void arm() { armed_ = true; }

  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  std::size_t file_size(const std::string& name) const override {
    return inner_.file_size(name);
  }
  std::vector<std::uint8_t> read_file(
      const std::string& name) const override {
    return inner_.read_file(name);
  }
  void append(const std::string& name, const std::uint8_t* data,
              std::size_t size) override {
    if (armed_ && inner_.file_size(name) > 0) {
      armed_ = false;
      throw StorageError("write", name, ENOSPC);
    }
    inner_.append(name, data, size);
  }
  void sync(const std::string& name) override { inner_.sync(name); }
  void write_file_durable(const std::string& name,
                          const std::vector<std::uint8_t>& bytes) override {
    inner_.write_file_durable(name, bytes);
  }
  void truncate(const std::string& name, std::size_t size) override {
    inner_.truncate(name, size);
  }
  void remove(const std::string& name) override { inner_.remove(name); }

 private:
  MemEnv& inner_;
  bool armed_ = false;
};

TEST(FaultEnv, ZeroRateIsExactPassthrough) {
  MemEnv plain;
  MemEnv inner;
  FaultInjectingEnv wrapped(inner, FaultPlan{.seed = 42});
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  for (StorageEnv* env : {static_cast<StorageEnv*>(&plain),
                          static_cast<StorageEnv*>(&wrapped)}) {
    env->append("log", bytes, sizeof(bytes));
    env->sync("log");
    env->write_file_durable("blob", {9, 9});
    env->truncate("log", 2);
  }
  EXPECT_EQ(wrapped.faults_injected(), 0u);
  EXPECT_EQ(inner.read_file("log"), plain.read_file("log"));
  EXPECT_EQ(inner.read_file("blob"), plain.read_file("blob"));
}

TEST(FaultEnv, FaultsAreSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    MemEnv inner;
    FaultInjectingEnv env(inner,
                          FaultPlan{.seed = seed, .fault_rate = 0.5});
    std::size_t caught = 0;
    const std::uint8_t bytes[] = {7, 7, 7, 7, 7, 7, 7, 7};
    for (int i = 0; i < 64; ++i) {
      try {
        env.append("log", bytes, sizeof(bytes));
        env.sync("log");
      } catch (const StorageError&) {
        ++caught;
      }
    }
    return std::make_pair(caught, env.faults_injected());
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_GT(run(7).second, 0u);
}

TEST(FaultEnv, ShortWriteLeavesOnlyAPrefix) {
  MemEnv inner;
  FaultPlan plan{.seed = 3, .fault_rate = 1.0};
  plan.fail_syncs = false;
  plan.fail_durable_writes = false;
  plan.fail_truncates = false;
  FaultInjectingEnv env(inner, plan);
  const std::uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 16; ++i) {
    const std::size_t before = inner.file_size("log");
    try {
      env.append("log", bytes, sizeof(bytes));
      FAIL() << "rate-1.0 append must fault";
    } catch (const StorageError& err) {
      EXPECT_EQ(err.op(), "write");
      EXPECT_TRUE(err.error_code() == EIO || err.error_code() == ENOSPC);
      // Full failure or a short write: never more than a proper prefix.
      EXPECT_LT(inner.file_size("log") - before, sizeof(bytes));
    }
  }
}

TEST(FaultEnv, EnospcBudgetTripsAndClears) {
  MemEnv inner;
  FaultInjectingEnv env(inner,
                        FaultPlan{.seed = 1, .enospc_after_bytes = 10});
  const std::uint8_t bytes[] = {0, 1, 2, 3};
  env.append("log", bytes, sizeof(bytes));  // 4 bytes
  env.append("log", bytes, sizeof(bytes));  // 8 bytes
  env.sync("log");
  try {
    env.append("log", bytes, sizeof(bytes));  // would cross 10
    FAIL() << "budget crossing must fault";
  } catch (const StorageError& err) {
    EXPECT_EQ(err.error_code(), ENOSPC);
  }
  EXPECT_EQ(inner.read_file("log").size(), 8u);  // nothing partial
  // The operator clears space: writes flow again.
  env.clear_enospc_budget();
  env.append("log", bytes, sizeof(bytes));
  env.sync("log");
  EXPECT_EQ(inner.read_file("log").size(), 12u);
}

TEST(FaultEnv, HardFaultDegradesToReadOnlyWithoutLosingAckedState) {
  MemEnv inner;
  FaultPlan plan{.seed = 11};
  plan.fail_syncs = false;
  plan.fail_durable_writes = false;
  plan.fail_truncates = false;
  FaultInjectingEnv fault_env(inner, plan);

  Replica replica = make_replica(1, 5);
  int degrade_calls = 0;
  DurabilityOptions options;
  options.on_degrade = [&](const StorageError&) { ++degrade_calls; };
  Durability durability(fault_env, options);
  durability.attach(replica);

  replica.create(to(5), {'a'});
  replica.create(to(5), {'b'});
  const std::uint64_t acked = state_digest(replica);

  // The disk turns hostile: the next WAL append faults.
  fault_env.set_fault_rate(1.0);
  EXPECT_THROW(replica.create(to(5), {'c'}), StorageError);
  EXPECT_TRUE(durability.degraded());
  EXPECT_TRUE(durability.counters().degraded);
  EXPECT_TRUE(replica.read_only());
  EXPECT_EQ(degrade_calls, 1);
  // The marker is written through the (append-faulting) env's durable
  // path, which this plan leaves healthy.
  EXPECT_TRUE(inner.exists(kDegradedMarkerFile));

  // Every further mutation is refused as read-only — before any
  // in-memory change, and with no second degrade callback.
  EXPECT_THROW(replica.create(to(5), {'d'}), ReadOnlyError);
  EXPECT_THROW(replica.set_filter(Filter::addresses({HostId(6)})),
               ReadOnlyError);
  EXPECT_THROW(durability.note_delivered(ItemId(1)), ReadOnlyError);
  EXPECT_EQ(degrade_calls, 1);

  // Nothing a caller was told is durable may be lost: recovery lands
  // exactly on the acknowledged state.
  inner.crash();
  const auto recovered = recover(inner);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(state_digest(recovered->replica), acked);
}

TEST(FaultEnv, CleanRestartClearsDegradedMarker) {
  MemEnv inner;
  {
    FaultPlan plan{.seed = 11};
    plan.fail_syncs = false;
    plan.fail_durable_writes = false;
    plan.fail_truncates = false;
    FaultInjectingEnv fault_env(inner, plan);
    Replica replica = make_replica(1, 5);
    Durability durability(fault_env);
    durability.attach(replica);
    replica.create(to(5), {'a'});
    fault_env.set_fault_rate(1.0);
    EXPECT_THROW(replica.create(to(5), {'b'}), StorageError);
    ASSERT_TRUE(inner.exists(kDegradedMarkerFile));
  }
  // Restart on a healthy disk: recover + attach clears the marker.
  inner.crash();
  auto recovered = recover(inner);
  ASSERT_TRUE(recovered.has_value());
  Durability reborn(inner);
  reborn.attach(recovered->replica);
  EXPECT_FALSE(inner.exists(kDegradedMarkerFile));
  EXPECT_FALSE(reborn.degraded());
  recovered->replica.create(to(5), {'c'});  // writable again
}

TEST(FaultEnv, AckBeforeFsyncMutantLosesAcknowledgedState) {
  // The fsyncgate mutant: with unsafe_ack_before_fsync the failed
  // fsync is swallowed and the mutation acknowledged anyway — no
  // throw, no degrade — so a crash loses state a caller was promised.
  // This is the bug `check --inject-bug ack-before-fsync` must catch.
  MemEnv inner;
  FaultPlan plan{.seed = 5, .fault_rate = 1.0};
  plan.fail_appends = false;
  plan.fail_durable_writes = false;
  plan.fail_truncates = false;
  FaultInjectingEnv fault_env(inner, plan);

  Replica replica = make_replica(1, 5);
  DurabilityOptions options;
  options.unsafe_ack_before_fsync = true;
  Durability durability(fault_env, options);
  durability.attach(replica);
  const std::uint64_t before = state_digest(replica);

  replica.create(to(5), {'a'});  // "acknowledged" — fsync failed
  EXPECT_FALSE(durability.degraded());
  EXPECT_FALSE(replica.read_only());

  inner.crash();
  const auto recovered = recover(inner);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(state_digest(recovered->replica), before);  // lost
  EXPECT_NE(state_digest(replica), before);
}

TEST(FaultEnv, CorrectCodeDegradesOnFsyncFault) {
  // Control for the mutant: without the bug the same fsync fault is
  // fail-stop — the mutation is refused and the layer degrades.
  MemEnv inner;
  FaultPlan plan{.seed = 5};
  plan.fail_appends = false;
  plan.fail_durable_writes = false;
  plan.fail_truncates = false;
  FaultInjectingEnv fault_env(inner, plan);

  Replica replica = make_replica(1, 5);
  Durability durability(fault_env);
  durability.attach(replica);
  fault_env.set_fault_rate(1.0);  // every fsync from here on faults
  EXPECT_THROW(replica.create(to(5), {'a'}), StorageError);
  EXPECT_TRUE(durability.degraded());
  EXPECT_TRUE(replica.read_only());
}

TEST(FaultEnv, SoftCheckpointFailureKeepsLogging) {
  // A failing checkpoint write must not degrade anything: logging
  // continues against the current segment and the roll is retried
  // once another checkpoint_every_bytes accumulates.
  MemEnv inner;
  FaultPlan plan{.seed = 9};
  plan.fail_appends = false;
  plan.fail_syncs = false;
  plan.fail_truncates = false;
  FaultInjectingEnv fault_env(inner, plan);

  Replica replica = make_replica(1, 5);
  DurabilityOptions options;
  options.checkpoint_every_bytes = 1;  // roll after every mutation
  Durability durability(fault_env, options);
  durability.attach(replica);

  fault_env.set_fault_rate(1.0);  // every durable write now faults
  replica.create(to(5), {'a'});
  replica.create(to(5), {'b'});
  EXPECT_FALSE(durability.degraded());
  EXPECT_FALSE(replica.read_only());
  EXPECT_EQ(durability.epoch(), 1u);  // no roll succeeded
  EXPECT_GE(durability.counters().checkpoint_failures, 1u);

  // The disk heals: the next mutation's roll succeeds and recovery
  // sees the full state.
  fault_env.set_fault_rate(0.0);
  replica.create(to(5), {'c'});
  EXPECT_GT(durability.epoch(), 1u);
  inner.crash();
  const auto recovered = recover(inner);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(state_digest(recovered->replica), state_digest(replica));
}

TEST(FaultEnv, FailedDeliveredRecordLeavesNoLedgerEntry) {
  // Regression: note_delivered added the id to the in-memory ledger
  // before logging it. With a checkpoint roll pending, log() first
  // wrote checkpoint E+1 from that ledger; then the Delivered append
  // failed and the hook threw, so DtnNode withdrew the delivery to
  // re-report it later — yet the durable checkpoint already listed the
  // id, and after a restart the message was never reported.
  MemEnv inner;
  FailNextRecordEnv env(inner);
  Replica replica = make_replica(1, 5);
  DurabilityOptions options;
  options.checkpoint_every_bytes = 1;  // every record leaves a roll due
  Durability durability(env, options);
  durability.attach(replica);
  const ItemId id = replica.create(to(5), {'a'}).id();
  const std::uint64_t epoch = durability.epoch();

  env.arm();  // the Delivered record, first in the fresh segment, fails
  EXPECT_THROW(durability.note_delivered(id), StorageError);
  EXPECT_EQ(durability.epoch(), epoch + 1);  // the roll ran first
  EXPECT_TRUE(durability.degraded());
  EXPECT_EQ(durability.delivered().count(id), 0u);

  inner.crash();
  const auto recovered = recover(inner);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->stats.epoch, epoch + 1);
  EXPECT_EQ(recovered->delivered.count(id), 0u);
  EXPECT_EQ(state_digest(recovered->replica), state_digest(replica));
}

}  // namespace
}  // namespace pfrdtn::persist
