// The Durability sink end to end on MemEnv: the acknowledgement
// contract (crash after any fsynced record recovers exactly the state
// at that record), fsync batching semantics, checkpoint rotation with
// the epoch guard, stale-log rejection, torn-tail resume, and the
// skip-fsync injected bug actually losing acknowledged state.

#include "persist/durability.hpp"

#include <gtest/gtest.h>

#include "check/mutant_env.hpp"
#include "repl/sync.hpp"
#include "util/byte_buffer.hpp"

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

/// A batch's frame payloads, concatenated in the order a transport
/// sends them: BatchBegin, one BatchItem per item, BatchEnd.
std::vector<std::uint8_t> frame_payloads(const repl::SyncBatch& batch) {
  ByteWriter w;
  for (const std::uint8_t byte : repl::encode_batch_begin(batch))
    w.u8(byte);
  for (const repl::Item& item : batch.items) item.serialize(w);
  batch.source_knowledge.serialize(w);
  return w.take();
}

std::uint64_t recovered_digest(MemEnv env /* by value: crash a copy */) {
  env.crash();
  const auto recovered = recover(env);
  EXPECT_TRUE(recovered.has_value());
  return state_digest(recovered->replica);
}

TEST(Recovery, FreshAttachWritesInitialCheckpoint) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);
  EXPECT_EQ(durability.epoch(), 1u);
  EXPECT_TRUE(env.exists(kManifestFile));
  EXPECT_TRUE(env.exists(checkpoint_file(1)));
  EXPECT_TRUE(env.exists(wal_file(1)));

  const auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(state_digest(recovered->replica), state_digest(replica));
  EXPECT_EQ(recovered->stats.epoch, 1u);
  EXPECT_EQ(recovered->stats.wal_records_replayed, 0u);
}

TEST(Recovery, NoCheckpointMeansFreshStart) {
  MemEnv env;
  EXPECT_FALSE(recover(env).has_value());
}

TEST(Recovery, CrashAfterEveryMutationRecoversThatExactState) {
  // The acknowledgement contract, exhaustively: after each funnel
  // mutation returns (sync_every_records=1, so each record is fsynced),
  // a crash at that instant must recover the exact post-mutation state.
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Replica peer = make_replica(2, 5);
  Durability durability(env);
  durability.attach(replica);

  std::vector<Item> evicted;
  const auto check = [&](const char* what) {
    ASSERT_EQ(recovered_digest(env), state_digest(replica)) << what;
  };

  const Item& a = replica.create(to(5), {'a'});
  check("create in filter");
  const Item& b = replica.create(to(9), {'b'});
  check("create relay");
  replica.update(a.id(), to(5), {'a', '2'});
  check("update");
  replica.erase(b.id());
  check("erase");
  const Item& remote = peer.create(to(5), {'r'});
  replica.apply_remote(remote, evicted);
  check("apply_remote");
  const Item& passing = peer.create(to(7), {'p'});
  replica.apply_remote(passing, evicted);
  replica.discard_relay(passing.id());
  check("discard_relay");
  replica.set_filter(Filter::addresses({HostId(5), HostId(6)}));
  check("set_filter");
  replica.learn(peer.knowledge());
  check("learn");
}

TEST(Recovery, FsyncBatchingAcksOnlySyncedRecords) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  DurabilityOptions options;
  options.sync_every_records = 3;
  Durability durability(env, options);
  durability.attach(replica);

  replica.create(to(5), {'1'});
  replica.create(to(5), {'2'});
  const std::uint64_t digest_after_two = state_digest(replica);
  replica.create(to(5), {'3'});  // completes the batch: fsync
  const std::uint64_t digest_after_three = state_digest(replica);
  replica.create(to(5), {'4'});  // pending, not yet durable
  replica.create(to(5), {'5'});  // pending

  // A crash now forgets the two unsynced records — they were never
  // acknowledged — but keeps the full synced batch.
  EXPECT_EQ(recovered_digest(env), digest_after_three);
  EXPECT_NE(digest_after_three, digest_after_two);

  // flush() extends the contract to everything appended.
  durability.flush();
  EXPECT_EQ(recovered_digest(env), state_digest(replica));
}

TEST(Recovery, SkipFsyncBugLosesAcknowledgedState) {
  // The injectable bug behind `check --inject-bug skip-fsync`: hooks
  // acknowledge records that were never made durable, so a crash rolls
  // the replica back to the initial checkpoint.
  MemEnv env;
  check::MutantEnv skip_fsync(env, check::DurabilityMutant::SkipFsync);
  Replica replica = make_replica(1, 5);
  const std::uint64_t empty_digest = state_digest(replica);
  Durability durability(skip_fsync);
  durability.attach(replica);

  replica.create(to(5), {'a'});
  durability.flush();
  ASSERT_NE(state_digest(replica), empty_digest);
  EXPECT_EQ(recovered_digest(env), empty_digest);  // state lost
}

TEST(Recovery, CheckpointRotationAdvancesEpochAndResetsLog) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  DurabilityOptions options;
  options.checkpoint_every_bytes = 1;  // request a roll per mutation
  Durability durability(env, options);
  durability.attach(replica);
  ASSERT_EQ(durability.checkpoints_written(), 1u);

  // Hooks log write-ahead (record first, mutation second), so a roll
  // triggered by an append is deferred to the next safe point — the
  // start of the following log() or an explicit flush() — where memory
  // and log agree. Two creates therefore roll once (at the second
  // create's entry), leaving the second record in the live segment.
  replica.create(to(5), {'a'});
  replica.create(to(5), {'b'});
  EXPECT_EQ(durability.epoch(), 2u);
  EXPECT_EQ(durability.checkpoints_written(), 2u);
  {
    const auto recovered = recover(env);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->stats.epoch, 2u);
    EXPECT_EQ(recovered->stats.wal_records_replayed, 1u);
    EXPECT_EQ(state_digest(recovered->replica), state_digest(replica));
  }

  // flush() consumes the pending roll: the deferred checkpoint lands
  // and the fresh segment is empty.
  durability.flush();
  EXPECT_EQ(durability.epoch(), 3u);
  EXPECT_EQ(durability.checkpoints_written(), 3u);
  const auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->stats.epoch, 3u);
  EXPECT_EQ(recovered->stats.wal_records_replayed, 0u);
  EXPECT_EQ(state_digest(recovered->replica), state_digest(replica));
}

TEST(Recovery, ExplicitCheckpointNowIsCrashSafe) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);
  replica.create(to(5), {'a'});
  durability.checkpoint_now();
  replica.create(to(5), {'b'});

  EXPECT_EQ(recovered_digest(env), state_digest(replica));
  const auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->stats.epoch, 2u);
  EXPECT_EQ(recovered->stats.wal_records_replayed, 1u);  // only 'b'
}

TEST(Recovery, StaleEpochLogIsIgnored) {
  // Epoch guard: a log left over from before a checkpoint roll (crash
  // between checkpoint publish and WAL reset) must not replay on top
  // of the newer checkpoint.
  MemEnv env;
  Replica old_state = make_replica(1, 5);
  {
    Durability durability(env);
    durability.attach(old_state);
    old_state.create(to(5), {'a'});  // epoch-1 WAL record
    durability.detach();
  }
  Replica new_state =
      decode_replica_state(encode_replica_state(old_state));
  new_state.create(to(5), {'b'});
  // Publish the epoch-2 checkpoint and manifest but "crash" before the
  // epoch-2 WAL segment is created: wal.1.log with its record is still
  // on disk, but everything in it is already folded into checkpoint 2.
  env.write_file_durable(checkpoint_file(2),
                         encode_checkpoint(2, new_state));
  env.write_file_durable(kManifestFile, encode_manifest({1, 2}));

  const auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->stats.wal_stale);
  EXPECT_EQ(recovered->stats.wal_records_replayed, 0u);
  EXPECT_EQ(state_digest(recovered->replica), state_digest(new_state));
}

TEST(Recovery, TornTailIsTruncatedAndLoggingResumes) {
  MemEnv env;
  std::uint64_t digest_before_crash = 0;
  {
    Replica replica = make_replica(1, 5);
    Durability durability(env);
    durability.attach(replica);
    replica.create(to(5), {'a'});
    digest_before_crash = state_digest(replica);
    durability.detach();
  }
  // Power cut mid-append: garbage bytes after the valid prefix.
  env.crash();
  env.corrupt_append(wal_file(1), {0x13, 0x37, 0xFF, 0x00, 0xAB});

  auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->stats.wal_bytes_truncated, 5u);
  EXPECT_EQ(state_digest(recovered->replica), digest_before_crash);

  // attach() truncates the tail; the next record lands cleanly.
  Replica replica = std::move(recovered->replica);
  Durability durability(env);
  durability.attach(replica);
  replica.create(to(5), {'b'});
  EXPECT_EQ(recovered_digest(env), state_digest(replica));
}

TEST(Recovery, RecoveredReplicaSyncsByteIdentically) {
  // Crash + recovery must be invisible to the peer: the recovered
  // replica answers a sync request with the byte-identical batch the
  // never-crashed replica would send.
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);
  for (int i = 0; i < 4; ++i)
    replica.create(to(5), {static_cast<std::uint8_t>('a' + i)});

  env.crash();
  auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());

  Replica target = make_replica(9, 5);
  const repl::SyncRequest request =
      repl::make_request(target, nullptr, replica.id(), SimTime(0));
  EXPECT_EQ(frame_payloads(
                repl::build_batch(replica, nullptr, request, SimTime(0))),
            frame_payloads(repl::build_batch(recovered->replica, nullptr,
                                             request, SimTime(0))));
}

TEST(Recovery, DeliveredLedgerSurvivesCrash) {
  // note_delivered is acknowledged like any mutation: once it returns,
  // a crash must recover the full ledger so the application never
  // re-reports those messages (exactly-once across restarts).
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);

  const Item& a = replica.create(to(5), {'a'});
  const Item& b = replica.create(to(5), {'b'});
  durability.note_delivered(a.id());
  durability.note_delivered(b.id());
  durability.note_delivered(a.id());  // idempotent: no duplicate record

  env.crash();
  const auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->delivered,
            (std::set<ItemId>{a.id(), b.id()}));
  EXPECT_EQ(state_digest(recovered->replica), state_digest(replica));
}

TEST(Recovery, DeliveredLedgerSurvivesCheckpointRotation) {
  // Ledger entries logged before a checkpoint roll move into the
  // checkpoint; entries logged after ride the fresh WAL. Recovery and
  // a re-attach both see the union.
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);

  const Item& a = replica.create(to(5), {'a'});
  durability.note_delivered(a.id());
  durability.checkpoint_now();
  const Item& b = replica.create(to(5), {'b'});
  durability.note_delivered(b.id());
  durability.detach();

  env.crash();
  auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  const std::set<ItemId> expect{a.id(), b.id()};
  EXPECT_EQ(recovered->delivered, expect);

  // A fresh Durability restores the same ledger (checkpoint + log),
  // so its next checkpoint carries the complete set forward.
  Durability reborn(env);
  reborn.attach(recovered->replica);
  EXPECT_EQ(reborn.delivered(), expect);
}

TEST(Recovery, CorruptNewestCheckpointFallsBackAtEveryByteOffset) {
  // The generation guarantee, exhaustively: whatever single byte of
  // the newest checkpoint a hostile disk flips, recovery lands on the
  // previous generation and rebuilds the identical state by replaying
  // the full wal.1 segment plus the wal.2 prefix.
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);
  replica.create(to(5), {'a'});  // folded into checkpoint 2
  durability.checkpoint_now();
  replica.create(to(5), {'b'});  // lives in wal.2.log
  durability.detach();
  const std::uint64_t expect = state_digest(replica);

  const std::string newest = checkpoint_file(2);
  const std::vector<std::uint8_t> good = env.read_file(newest);
  for (std::size_t off = 0; off < good.size(); ++off) {
    MemEnv copy = env;
    std::vector<std::uint8_t> bad = good;
    bad[off] ^= 0xFF;
    copy.write_file_durable(newest, bad);
    const auto recovered = recover(copy);
    ASSERT_TRUE(recovered.has_value()) << "offset " << off;
    EXPECT_TRUE(recovered->stats.fallback) << "offset " << off;
    EXPECT_EQ(recovered->stats.epoch, 1u) << "offset " << off;
    EXPECT_EQ(recovered->stats.newest_epoch, 2u) << "offset " << off;
    EXPECT_EQ(recovered->stats.generations_tried, 2u) << "offset " << off;
    EXPECT_EQ(recovered->stats.segments_replayed, 2u) << "offset " << off;
    ASSERT_EQ(state_digest(recovered->replica), expect)
        << "offset " << off;
  }

  // Control: the untouched directory recovers without falling back.
  const auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_FALSE(recovered->stats.fallback);
  EXPECT_EQ(recovered->stats.epoch, 2u);
  EXPECT_EQ(state_digest(recovered->replica), expect);
}

TEST(Recovery, CorruptNewestGenerationIsRepairedOnAttach) {
  MemEnv env;
  std::set<ItemId> expect_delivered;
  std::uint64_t expect_digest = 0;
  {
    Replica replica = make_replica(1, 5);
    Durability durability(env);
    durability.attach(replica);
    const Item& a = replica.create(to(5), {'a'});
    durability.note_delivered(a.id());
    expect_delivered.insert(a.id());
    durability.checkpoint_now();
    const Item& b = replica.create(to(5), {'b'});
    durability.note_delivered(b.id());
    expect_delivered.insert(b.id());
    expect_digest = state_digest(replica);
    durability.detach();
  }
  std::vector<std::uint8_t> bad = env.read_file(checkpoint_file(2));
  bad[bad.size() / 2] ^= 0xFF;
  env.write_file_durable(checkpoint_file(2), bad);

  auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  ASSERT_TRUE(recovered->stats.fallback);
  EXPECT_EQ(state_digest(recovered->replica), expect_digest);
  EXPECT_EQ(recovered->delivered, expect_delivered);

  // attach() repairs: a fresh checkpoint one epoch past the corrupt
  // generation, the unreadable one dropped, the ledger recomputed.
  Durability reborn(env);
  reborn.attach(recovered->replica);
  EXPECT_EQ(reborn.epoch(), 3u);
  EXPECT_TRUE(env.exists(checkpoint_file(3)));
  EXPECT_FALSE(env.exists(checkpoint_file(2)));
  EXPECT_EQ(reborn.delivered(), expect_delivered);
  EXPECT_EQ(reborn.generations(),
            (std::vector<std::uint64_t>{1, 3}));

  // The repaired directory keeps its acknowledgement contract.
  recovered->replica.create(to(5), {'c'});
  EXPECT_EQ(recovered_digest(env), state_digest(recovered->replica));
}

TEST(Recovery, PruneKeepsConfiguredGenerationCount) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  DurabilityOptions options;
  options.checkpoint_generations = 2;
  Durability durability(env, options);
  durability.attach(replica);
  for (int i = 0; i < 5; ++i) {
    replica.create(to(5), {static_cast<std::uint8_t>('a' + i)});
    durability.checkpoint_now();
  }
  EXPECT_EQ(durability.epoch(), 6u);
  EXPECT_EQ(durability.generations(),
            (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(durability.counters().generations_pruned, 4u);
  EXPECT_FALSE(env.exists(checkpoint_file(4)));
  EXPECT_FALSE(env.exists(wal_file(4)));
  EXPECT_TRUE(env.exists(checkpoint_file(5)));
  EXPECT_TRUE(env.exists(checkpoint_file(6)));
  EXPECT_EQ(recovered_digest(env), state_digest(replica));
}

TEST(Recovery, LegacyLayoutMigratesOnAttach) {
  // A pre-generation state directory (checkpoint.bin + wal.log) must
  // recover unchanged and convert to the manifest layout on the first
  // attach, byte-preserving the checkpoint and the WAL's valid prefix.
  MemEnv env;
  Replica replica = make_replica(1, 5);
  env.write_file_durable(kCheckpointFile, encode_checkpoint(1, replica));
  const Item& a = replica.create(to(5), {'a'});
  std::vector<std::uint8_t> wal = encode_wal_header(1);
  const auto record = encode_wal_record(encode_local_put(a));
  wal.insert(wal.end(), record.begin(), record.end());
  env.append(kWalFile, wal.data(), wal.size());
  env.sync(kWalFile);

  auto recovered = recover(env);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->stats.wal_records_replayed, 1u);
  ASSERT_EQ(state_digest(recovered->replica), state_digest(replica));

  Durability durability(env);
  durability.attach(recovered->replica);
  EXPECT_TRUE(env.exists(kManifestFile));
  EXPECT_TRUE(env.exists(checkpoint_file(1)));
  EXPECT_TRUE(env.exists(wal_file(1)));
  EXPECT_FALSE(env.exists(kCheckpointFile));
  EXPECT_FALSE(env.exists(kWalFile));

  // Logging resumes into the migrated segment under the same contract.
  recovered->replica.create(to(5), {'b'});
  EXPECT_EQ(recovered_digest(env), state_digest(recovered->replica));
}

TEST(Recovery, CorruptManifestIsRejected) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  {
    Durability durability(env);
    durability.attach(replica);
    replica.create(to(5), {'a'});
    durability.detach();
  }
  std::vector<std::uint8_t> bad = env.read_file(kManifestFile);
  bad.back() ^= 0xFF;  // break the CRC
  env.write_file_durable(kManifestFile, bad);
  EXPECT_THROW(recover(env), ContractViolation);
}

TEST(Recovery, AllGenerationsCorruptIsRejected) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  {
    Durability durability(env);
    durability.attach(replica);
    replica.create(to(5), {'a'});
    durability.checkpoint_now();
    replica.create(to(5), {'b'});
    durability.detach();
  }
  for (const std::uint64_t epoch : {1u, 2u}) {
    std::vector<std::uint8_t> bad =
        env.read_file(checkpoint_file(epoch));
    bad[8] ^= 0xFF;
    env.write_file_durable(checkpoint_file(epoch), bad);
  }
  EXPECT_THROW(recover(env), ContractViolation);
}

TEST(Recovery, DetachStopsLogging) {
  MemEnv env;
  Replica replica = make_replica(1, 5);
  Durability durability(env);
  durability.attach(replica);
  replica.create(to(5), {'a'});
  const std::uint64_t digest_at_detach = state_digest(replica);
  durability.detach();
  EXPECT_FALSE(durability.attached());
  replica.create(to(5), {'b'});  // unobserved: not durable

  EXPECT_EQ(recovered_digest(env), digest_at_detach);
}

}  // namespace
}  // namespace pfrdtn::persist
