#include "persist/durability.hpp"

#include <algorithm>
#include <csignal>

#include "util/byte_buffer.hpp"
#include "util/require.hpp"

namespace pfrdtn::persist {

namespace {

std::vector<std::uint8_t> encode_item_record(WalRecordKind kind,
                                             const repl::Item& item) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  item.serialize(w);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_local_put(const repl::Item& item) {
  return encode_item_record(WalRecordKind::LocalPut, item);
}

std::vector<std::uint8_t> encode_apply_remote(const repl::Item& item) {
  return encode_item_record(WalRecordKind::ApplyRemote, item);
}

std::vector<std::uint8_t> encode_set_filter(const repl::Filter& filter) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WalRecordKind::SetFilter));
  filter.serialize(w);
  return w.take();
}

std::vector<std::uint8_t> encode_discard_relay(ItemId id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WalRecordKind::DiscardRelay));
  w.uvarint(id.value());
  return w.take();
}

std::vector<std::uint8_t> encode_learn(
    const repl::Knowledge& knowledge) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WalRecordKind::Learn));
  // Exact codec: replay must merge the same fragment structure the
  // live replica merged, not the wire codec's refolded approximation.
  knowledge.serialize_exact(w);
  return w.take();
}

std::vector<std::uint8_t> encode_policy_state(
    ItemId id, const std::map<std::string, std::string>& all) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WalRecordKind::PolicyState));
  w.uvarint(id.value());
  w.uvarint(all.size());
  for (const auto& [key, value] : all) {
    w.str(key);
    w.str(value);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_delivered(ItemId id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WalRecordKind::Delivered));
  w.uvarint(id.value());
  return w.take();
}

namespace {

bool is_delivered_record(const std::vector<std::uint8_t>& payload) {
  return !payload.empty() &&
         static_cast<WalRecordKind>(payload[0]) ==
             WalRecordKind::Delivered;
}

ItemId decode_delivered_record(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  r.u8();  // kind, checked by the caller
  const ItemId id(r.uvarint());
  PFRDTN_REQUIRE(r.done());
  return id;
}

/// The generation that actually loaded, plus everything the manifest
/// said. Shared by recover() (full replay) and attach() (delivered
/// ledger + repair) so both walk the exact same fallback order.
struct ChainLoad {
  std::vector<std::uint64_t> epochs;  ///< manifest, ascending
  std::uint64_t landed = 0;           ///< newest epoch that decoded
  std::size_t generations_tried = 0;
  std::optional<DecodedCheckpoint> ck;
};

/// Decode the manifest and try checkpoints newest-first until one
/// loads. Throws when the manifest itself is corrupt or no retained
/// generation is readable (total loss — corruption is rejected, never
/// guessed at).
ChainLoad load_chain(StorageEnv& env) {
  ChainLoad out;
  out.epochs = decode_manifest(env.read_file(kManifestFile));
  for (auto it = out.epochs.rbegin(); it != out.epochs.rend(); ++it) {
    ++out.generations_tried;
    try {
      DecodedCheckpoint ck =
          decode_checkpoint(env.read_file(checkpoint_file(*it)));
      // A checkpoint claiming a different epoch than its file name is
      // as corrupt as a bad CRC: fall back past it.
      PFRDTN_REQUIRE(ck.epoch == *it);
      out.landed = *it;
      out.ck.emplace(std::move(ck));
      return out;
    } catch (const ContractViolation&) {
      // Unreadable or corrupt: fall back one generation.
    }
  }
  throw ContractViolation(
      "no readable checkpoint generation (" +
      std::to_string(out.epochs.size()) +
      " listed in the manifest, all corrupt or missing)");
}

}  // namespace

void apply_wal_record(repl::Replica& replica,
                      const std::vector<std::uint8_t>& payload) {
  PFRDTN_REQUIRE(replica.mutation_sink() == nullptr);
  ByteReader r(payload);
  const std::uint8_t kind = r.u8();
  switch (static_cast<WalRecordKind>(kind)) {
    case WalRecordKind::LocalPut:
      replica.replay_local_put(repl::Item::deserialize(r));
      break;
    case WalRecordKind::ApplyRemote: {
      const repl::Item incoming = repl::Item::deserialize(r);
      std::vector<repl::Item> evicted;
      replica.apply_remote(incoming, evicted);
      break;
    }
    case WalRecordKind::SetFilter:
      replica.set_filter(repl::Filter::deserialize(r));
      break;
    case WalRecordKind::DiscardRelay:
      replica.discard_relay(ItemId(r.uvarint()));
      break;
    case WalRecordKind::Learn:
      replica.learn(repl::Knowledge::deserialize_exact(r));
      break;
    case WalRecordKind::PolicyState: {
      const ItemId id(r.uvarint());
      const std::uint64_t n = r.uvarint();
      PFRDTN_REQUIRE(n <= r.remaining());
      std::map<std::string, std::string> all;
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = r.str();
        all[std::move(key)] = r.str();
      }
      replica.replay_policy_state(id, std::move(all));
      break;
    }
    case WalRecordKind::Delivered:
      // Node-level ledger records never touch the replica; recover()
      // and attach() filter them out before replay.
      PFRDTN_REQUIRE(!"Delivered record replayed against a replica");
      break;
    default:
      PFRDTN_REQUIRE(!"unknown WAL record kind");
  }
  PFRDTN_REQUIRE(r.done());
}

Durability::Durability(StorageEnv& env, DurabilityOptions options)
    : env_(env),
      options_(std::move(options)),
      wal_(env, kWalFile, options_.sync_every_records,
           options_.unsafe_skip_fsync, options_.unsafe_ack_before_fsync) {
  if (options_.checkpoint_generations == 0)
    options_.checkpoint_generations = 1;
  next_checkpoint_at_ = options_.checkpoint_every_bytes;
}

Durability::~Durability() {
  try {
    detach();
  } catch (...) {
    // A storage fault during teardown must not std::terminate the
    // process: the pending records simply stay unacknowledged, which
    // the contract already permits.
  }
}

void Durability::attach(repl::Replica& replica) {
  PFRDTN_REQUIRE(replica_ == nullptr);
  PFRDTN_REQUIRE(replica.mutation_sink() == nullptr);
  if (env_.exists(kManifestFile)) {
    attach_generations(replica);
  } else if (env_.exists(kCheckpointFile)) {
    migrate_legacy(replica);
  } else {
    attach_fresh(replica);
  }
  // A clean attach supersedes any earlier degraded shutdown.
  try {
    env_.remove(kDegradedMarkerFile);
  } catch (const ContractViolation&) {
    // Best-effort: a stale marker costs a confusing status line, not
    // correctness.
  }
  replica_ = &replica;
  replica.set_mutation_sink(this);
}

void Durability::attach_generations(repl::Replica& replica) {
  epochs_ = decode_manifest(env_.read_file(kManifestFile));
  const std::uint64_t newest = epochs_.back();
  std::optional<DecodedCheckpoint> ck;
  try {
    ck.emplace(decode_checkpoint(env_.read_file(checkpoint_file(newest))));
    PFRDTN_REQUIRE(ck->epoch == newest);
  } catch (const ContractViolation&) {
    ck.reset();
  }
  if (ck.has_value()) {
    // Healthy newest generation: resume its WAL segment after the last
    // valid record (dropping any torn tail on disk).
    epoch_ = newest;
    delivered_ = std::move(ck->delivered);
    const WalScan scan = scan_wal_file(env_, wal_file(newest));
    wal_.set_file(wal_file(newest));
    if (scan.valid_header && scan.epoch == newest) {
      // Delivered records ride the same log; restore the ledger from
      // them so the next checkpoint carries the complete set.
      for (const auto& record : scan.records) {
        if (is_delivered_record(record))
          delivered_.insert(decode_delivered_record(record));
      }
      wal_.resume(scan);
    } else {
      wal_.reset(newest);  // stale or missing segment: start clean
    }
    return;
  }
  // The newest checkpoint is corrupt — the caller recovered `replica`
  // via generation fallback. Repair: snapshot the recovered state one
  // epoch past the corrupt one, drop the unreadable generations from
  // the manifest, and start a fresh segment. The delivered ledger is
  // recomputed by walking the same chain recover() walked.
  const ChainLoad chain = load_chain(env_);
  delivered_ = chain.ck->delivered;
  for (const std::uint64_t e : chain.epochs) {
    if (e < chain.landed) continue;
    const WalScan scan = scan_wal_file(env_, wal_file(e));
    if (!scan.valid_header || scan.epoch != e) break;
    for (const auto& record : scan.records) {
      if (is_delivered_record(record))
        delivered_.insert(decode_delivered_record(record));
    }
  }
  const std::uint64_t repair_epoch = epochs_.back() + 1;
  std::vector<std::uint64_t> kept;
  std::vector<std::uint64_t> dropped;
  for (const std::uint64_t e : epochs_) {
    (e <= chain.landed ? kept : dropped).push_back(e);
  }
  // Checkpoint before manifest: the manifest must never reference a
  // generation that is not yet durable.
  env_.write_file_durable(
      checkpoint_file(repair_epoch),
      encode_checkpoint(repair_epoch, replica, delivered_));
  kept.push_back(repair_epoch);
  env_.write_file_durable(kManifestFile, encode_manifest(kept));
  epochs_ = std::move(kept);
  epoch_ = repair_epoch;
  wal_.set_file(wal_file(repair_epoch));
  wal_.reset(repair_epoch);
  ++checkpoints_written_;
  for (const std::uint64_t e : dropped) {
    try {
      env_.remove(checkpoint_file(e));
      env_.remove(wal_file(e));
    } catch (const ContractViolation&) {
      // Orphans are dead weight, never input.
    }
  }
  prune_generations();
}

void Durability::migrate_legacy(repl::Replica& replica) {
  // Pre-generation layout: single checkpoint.bin + wal.log. Migrate in
  // place — copy the checkpoint bytes and the WAL's valid prefix into
  // generation-named files, write the first manifest, then drop the
  // legacy names. A crash before the manifest is durable leaves the
  // legacy files authoritative (recover() checks the manifest first),
  // so every window replays identically.
  (void)replica;
  const std::vector<std::uint8_t> ck_bytes =
      env_.read_file(kCheckpointFile);
  const DecodedCheckpoint ck = decode_checkpoint(ck_bytes);
  epoch_ = ck.epoch;
  delivered_ = ck.delivered;
  env_.write_file_durable(checkpoint_file(epoch_), ck_bytes);
  const WalScan scan = scan_wal_file(env_, kWalFile);
  wal_.set_file(wal_file(epoch_));
  if (scan.valid_header && scan.epoch == epoch_) {
    for (const auto& record : scan.records) {
      if (is_delivered_record(record))
        delivered_.insert(decode_delivered_record(record));
    }
    // Copy the valid prefix (header + records, torn tail dropped) into
    // the segment, durable *before* the manifest references it.
    const std::vector<std::uint8_t> old = env_.read_file(kWalFile);
    if (env_.exists(wal_file(epoch_)))
      env_.truncate(wal_file(epoch_), 0);
    env_.append(wal_file(epoch_), old.data(), scan.valid_bytes);
    env_.sync(wal_file(epoch_));
    wal_.resume(scan);
  } else {
    wal_.reset(epoch_);
  }
  env_.write_file_durable(kManifestFile, encode_manifest({epoch_}));
  epochs_ = {epoch_};
  env_.remove(kCheckpointFile);
  env_.remove(kWalFile);
}

void Durability::attach_fresh(repl::Replica& replica) {
  // Fresh state directory: the current replica state becomes the
  // initial checkpoint, durable before the first record is logged.
  epoch_ = 1;
  env_.write_file_durable(
      checkpoint_file(epoch_),
      encode_checkpoint(epoch_, replica, delivered_));
  env_.write_file_durable(kManifestFile, encode_manifest({epoch_}));
  epochs_ = {epoch_};
  wal_.set_file(wal_file(epoch_));
  wal_.reset(epoch_);
  ++checkpoints_written_;
}

void Durability::detach() {
  if (replica_ == nullptr) return;
  repl::Replica* replica = replica_;
  replica_ = nullptr;
  try {
    if (!degraded_) wal_.flush();
  } catch (const StorageError& err) {
    // Detach even when the final flush faults: the pending records
    // were never acknowledged, so losing them is within contract.
    replica->set_mutation_sink(nullptr);
    degrade(err);
    throw;
  }
  replica->set_mutation_sink(nullptr);
}

void Durability::flush() {
  if (degraded_) return;  // nothing new has been acknowledged
  // A deferred roll is safe to take here: flush() is only called
  // between complete mutations, when memory matches the log.
  if (roll_pending_ && replica_ != nullptr) {
    roll_pending_ = false;
    checkpoint_now();
  }
  try {
    wal_.flush();
  } catch (const StorageError& err) {
    degrade(err);
    throw;
  }
}

void Durability::degrade(const StorageError& err) {
  if (degraded_) return;
  degraded_ = true;
  if (replica_ != nullptr) replica_->set_read_only(true);
  try {
    const std::string note = std::string(err.what()) + "\n";
    env_.write_file_durable(
        kDegradedMarkerFile,
        std::vector<std::uint8_t>(note.begin(), note.end()));
  } catch (...) {
    // The marker is advisory; the disk that just faulted may well
    // refuse it too.
  }
  if (options_.on_degrade) options_.on_degrade(err);
}

void Durability::checkpoint_now() {
  PFRDTN_REQUIRE(replica_ != nullptr);
  if (degraded_) {
    throw ReadOnlyError("durability layer for " + wal_.file() +
                        " is degraded");
  }
  try {
    checkpoint_now_impl();
  } catch (const StorageError& err) {
    degrade(err);
    throw;
  }
}

void Durability::checkpoint_now_impl() {
  roll_pending_ = false;  // this roll satisfies any deferred request
  // (0) The segment must be durable-complete first: checkpoint E+1
  // claims to contain everything in wal.<E>, so an unfsynced tail
  // would let the checkpoint acknowledge records a crash could lose.
  wal_.flush();
  const std::uint64_t next_epoch = epoch_ + 1;
  // (1) Checkpoint write failure is soft: keep logging to the current
  // segment and retry after another checkpoint_every_bytes. A torn
  // half-checkpoint is an orphan the manifest never references.
  try {
    env_.write_file_durable(
        checkpoint_file(next_epoch),
        encode_checkpoint(next_epoch, *replica_, delivered_));
  } catch (const StorageError&) {
    ++checkpoint_failures_;
    next_checkpoint_at_ =
        wal_.log_bytes() + options_.checkpoint_every_bytes;
    return;
  }
  // (2) Manifest update failure is equally soft: the epoch has not
  // advanced, so the retry overwrites the orphaned checkpoint.
  std::vector<std::uint64_t> next_epochs = epochs_;
  next_epochs.push_back(next_epoch);
  try {
    env_.write_file_durable(kManifestFile,
                            encode_manifest(next_epochs));
  } catch (const StorageError&) {
    ++checkpoint_failures_;
    next_checkpoint_at_ =
        wal_.log_bytes() + options_.checkpoint_every_bytes;
    return;
  }
  epochs_ = std::move(next_epochs);
  // (3) Rolling the WAL is the hard step: once the manifest names the
  // new generation, future acknowledgements must land in its segment.
  // A fault here propagates to checkpoint_now(), which degrades.
  // (Crash-window note: checkpoint.<E+1> is durable before wal.<E+1>
  // exists, so a crash in between recovers to E+1 with an absent —
  // empty — segment, which is exactly the checkpointed state.)
  wal_.set_file(wal_file(next_epoch));
  wal_.reset(next_epoch);
  epoch_ = next_epoch;
  ++checkpoints_written_;
  next_checkpoint_at_ = options_.checkpoint_every_bytes;
  // (4) Pruning is soft: extra generations cost disk, not correctness.
  prune_generations();
}

void Durability::prune_generations() {
  while (epochs_.size() > options_.checkpoint_generations) {
    // Manifest first, unlink second: a crash in between leaves
    // unreferenced orphan files, never a manifest naming missing ones.
    std::vector<std::uint64_t> next(epochs_.begin() + 1, epochs_.end());
    try {
      env_.write_file_durable(kManifestFile, encode_manifest(next));
    } catch (const StorageError&) {
      return;  // keep the extra generation; retried at the next roll
    }
    const std::uint64_t victim = epochs_.front();
    epochs_ = std::move(next);
    try {
      env_.remove(checkpoint_file(victim));
      env_.remove(wal_file(victim));
    } catch (const ContractViolation&) {
      // Orphans are tolerated by recovery (the manifest is the only
      // directory listing it trusts).
    }
    ++generations_pruned_;
  }
}

void Durability::log(std::vector<std::uint8_t> payload) {
  PFRDTN_REQUIRE(replica_ != nullptr);
  if (degraded_) {
    // Nothing may be acknowledged after a hard fault: a degraded
    // replica never diverges from what it acknowledged.
    throw ReadOnlyError("durability layer for " + wal_.file() +
                        " is degraded");
  }
  // Consume a deferred roll before appending: at hook entry the
  // replica's memory matches everything logged so far (hooks run
  // write-ahead), so this is a consistent snapshot point — and the new
  // record then lands in the fresh segment.
  if (roll_pending_) {
    roll_pending_ = false;
    try {
      checkpoint_now_impl();
    } catch (const StorageError& err) {
      degrade(err);
      throw;
    }
  }
  try {
    wal_.append(payload);
  } catch (const StorageError& err) {
    degrade(err);
    throw;
  }
  ++records_logged_;
  if (options_.kill_after_records != 0 &&
      records_logged_ >= options_.kill_after_records) {
    // Deterministic crash point for e2e tests: die with the record
    // durable but the mutation's caller never told. flush() first so
    // "acknowledged" matches what recovery will find.
    wal_.flush();
    std::raise(SIGKILL);
  }
  // Never roll here: the record just appended is not yet applied in
  // memory, so a checkpoint now would retire the segment holding it
  // while snapshotting state without it. Defer to the next safe point.
  if (wal_.log_bytes() >= next_checkpoint_at_) roll_pending_ = true;
}

void Durability::note_delivered(ItemId id) {
  PFRDTN_REQUIRE(replica_ != nullptr);
  if (degraded_) {
    throw ReadOnlyError("durability layer for " + wal_.file() +
                        " is degraded");
  }
  if (delivered_.count(id) > 0) return;  // already on record
  // Write-ahead like every other hook: a roll pending in log() snapshots
  // delivered_, so the id may join it only once its record is durable.
  log(encode_delivered(id));
  delivered_.insert(id);
}

DurabilityCounters Durability::counters() const {
  DurabilityCounters c;
  c.epoch = epoch_;
  c.wal_records_logged = records_logged_;
  c.wal_bytes_appended = wal_.bytes_appended();
  c.wal_fsyncs = wal_.syncs();
  c.checkpoints_written = checkpoints_written_;
  c.checkpoint_failures = checkpoint_failures_;
  c.generations_retained = epochs_.size();
  c.generations_pruned = generations_pruned_;
  c.degraded = degraded_;
  return c;
}

void Durability::on_local_put(const repl::Item& stored) {
  log(encode_local_put(stored));
}

void Durability::on_apply_remote(const repl::Item& incoming) {
  log(encode_apply_remote(incoming));
}

void Durability::on_set_filter(const repl::Filter& filter) {
  log(encode_set_filter(filter));
}

void Durability::on_discard_relay(ItemId id) {
  log(encode_discard_relay(id));
}

void Durability::on_learn(const repl::Knowledge& source_knowledge) {
  log(encode_learn(source_knowledge));
}

void Durability::on_policy_state(
    ItemId id, const std::map<std::string, std::string>& all) {
  // Policy transients are soft state rewritten on the pull-serving
  // path, which must keep working while degraded — drop the record
  // instead of refusing (it is re-derived on the next contact).
  if (degraded_) return;
  log(encode_policy_state(id, all));
}

namespace {

std::optional<RecoveredReplica> recover_generations(StorageEnv& env) {
  ChainLoad chain = load_chain(env);
  RecoveryStats stats;
  stats.epoch = chain.landed;
  stats.newest_epoch = chain.epochs.back();
  stats.generations_tried = chain.generations_tried;
  stats.fallback = chain.landed != chain.epochs.back();
  std::set<ItemId> delivered = std::move(chain.ck->delivered);
  // Replay the segment chain from the landed generation to the newest:
  // checkpoint.<E+1> == checkpoint.<E> + full wal.<E> replay, so each
  // complete segment advances the state exactly one generation, and
  // the newest segment's valid prefix finishes the job. A gap in the
  // chain (missing or wrong-epoch segment) ends it — records beyond a
  // gap cannot be ordered against the state.
  for (const std::uint64_t e : chain.epochs) {
    if (e < chain.landed) continue;
    const WalScan scan = scan_wal_file(env, wal_file(e));
    if (!scan.valid_header || scan.epoch != e) {
      if (e == chain.landed) stats.wal_stale = true;
      break;
    }
    for (const auto& record : scan.records) {
      // Delivered records are node-level ledger entries, not replica
      // mutations; fold them into the ledger instead of replaying.
      if (is_delivered_record(record)) {
        delivered.insert(decode_delivered_record(record));
      } else {
        apply_wal_record(chain.ck->replica, record);
      }
      ++stats.wal_records_replayed;
    }
    stats.wal_bytes_valid += scan.valid_bytes;
    stats.wal_bytes_truncated += scan.torn_bytes;
    ++stats.segments_replayed;
  }
  const std::string violation = chain.ck->replica.check_invariants();
  PFRDTN_REQUIRE(violation.empty());
  return RecoveredReplica{std::move(chain.ck->replica),
                          std::move(delivered), std::move(stats)};
}

std::optional<RecoveredReplica> recover_legacy(StorageEnv& env) {
  DecodedCheckpoint ck =
      decode_checkpoint(env.read_file(kCheckpointFile));
  RecoveryStats stats;
  stats.epoch = ck.epoch;
  stats.newest_epoch = ck.epoch;
  std::set<ItemId> delivered = std::move(ck.delivered);
  const WalScan scan = scan_wal_file(env, kWalFile);
  if (scan.valid_header && scan.epoch == ck.epoch) {
    for (const auto& record : scan.records) {
      if (is_delivered_record(record)) {
        delivered.insert(decode_delivered_record(record));
      } else {
        apply_wal_record(ck.replica, record);
      }
      ++stats.wal_records_replayed;
    }
    stats.wal_bytes_valid = scan.valid_bytes;
    stats.wal_bytes_truncated = scan.torn_bytes;
    stats.segments_replayed = 1;
  } else {
    // Missing, foreign, or pre-checkpoint log: the checkpoint already
    // contains everything it recorded.
    stats.wal_stale = true;
  }
  const std::string violation = ck.replica.check_invariants();
  PFRDTN_REQUIRE(violation.empty());
  return RecoveredReplica{std::move(ck.replica), std::move(delivered),
                          std::move(stats)};
}

}  // namespace

std::optional<RecoveredReplica> recover(StorageEnv& env) {
  if (env.exists(kManifestFile)) return recover_generations(env);
  if (env.exists(kCheckpointFile)) return recover_legacy(env);
  return std::nullopt;
}

}  // namespace pfrdtn::persist
