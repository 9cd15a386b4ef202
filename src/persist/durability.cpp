#include "persist/durability.hpp"

#include <algorithm>
#include <csignal>

#include "util/byte_buffer.hpp"
#include "util/require.hpp"

namespace pfrdtn::persist {

void encode_local_put(ByteWriter& w, const repl::Item& item) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::LocalPut));
  item.serialize(w);
}

void encode_apply_remote(ByteWriter& w, const repl::Item& item) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::ApplyRemote));
  item.serialize(w);
}

void encode_set_filter(ByteWriter& w, const repl::Filter& filter) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::SetFilter));
  filter.serialize(w);
}

void encode_discard_relay(ByteWriter& w, ItemId id) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::DiscardRelay));
  w.uvarint(id.value());
}

void encode_learn(ByteWriter& w, const repl::Knowledge& knowledge) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::Learn));
  // Exact codec: replay must merge the same fragment structure the
  // live replica merged, not the wire codec's refolded approximation.
  knowledge.serialize_exact(w);
}

void encode_policy_state(ByteWriter& w, ItemId id,
                         const std::map<std::string, std::string>& all) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::PolicyState));
  w.uvarint(id.value());
  w.uvarint(all.size());
  for (const auto& [key, value] : all) {
    w.str(key);
    w.str(value);
  }
}

void encode_delivered(ByteWriter& w, ItemId id) {
  w.u8(static_cast<std::uint8_t>(WalRecordKind::Delivered));
  w.uvarint(id.value());
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

/// A pre-generation build's single checkpoint. This build does not
/// read that layout; recover() refuses a directory that holds it.
constexpr const char* kPreGenerationCheckpoint = "checkpoint.bin";

/// The generation that actually loaded, plus everything the manifest
/// said. Shared by recover() (full replay) and attach() (delivered
/// ledger + resume or repair) so both walk the exact same fallback
/// order.
struct ChainLoad {
  std::vector<std::uint64_t> epochs;  ///< manifest, ascending
  std::optional<DecodedCheckpoint> ck;  ///< the newest that decoded
  RecoveryStats stats;  ///< filled by load_chain and walk_segments
};

/// Decode the manifest and try checkpoints newest-first until one
/// loads. Throws when the manifest itself is corrupt or no retained
/// generation is readable (total loss — corruption is rejected, never
/// guessed at).
ChainLoad load_chain(StorageEnv& env) {
  ChainLoad out;
  out.epochs = decode_manifest(env.read_file(kManifestFile));
  std::size_t tried = 0;
  for (auto it = out.epochs.rbegin(); it != out.epochs.rend(); ++it) {
    ++tried;
    try {
      DecodedCheckpoint ck =
          decode_checkpoint(env.read_file(checkpoint_file(*it)));
      // A checkpoint claiming a different epoch than its file name is
      // as corrupt as a bad CRC: fall back past it.
      PFRDTN_REQUIRE(ck.epoch == *it);
      out.ck.emplace(std::move(ck));
      out.stats.epoch = *it;
      out.stats.newest_epoch = out.epochs.back();
      out.stats.generations_tried = tried;
      out.stats.fallback = *it != out.epochs.back();
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

/// The one walk of the WAL segment chain, shared by recover() and
/// attach(): from the landed generation to the newest, fold every
/// Delivered record into the checkpoint's ledger, replay every other
/// record into the checkpoint's replica when `replay` is set, and
/// count what was read into the chain's stats. checkpoint.<E+1> ==
/// checkpoint.<E> + full wal.<E> replay, so each complete segment
/// advances the state exactly one generation, and the newest segment's
/// valid prefix finishes the job. A gap in the chain (missing or
/// wrong-epoch segment) ends it — records beyond a gap cannot be
/// ordered against the state. Returns the scan of the last segment
/// read (valid_header is false when none was).
WalScan walk_segments(StorageEnv& env, ChainLoad& chain, bool replay) {
  RecoveryStats& stats = chain.stats;
  WalScan last;
  for (const std::uint64_t e : chain.epochs) {
    if (e < stats.epoch) continue;
    WalScan scan = scan_wal_file(env, wal_file(e));
    if (!scan.valid_header || scan.epoch != e) {
      if (e == stats.epoch) stats.wal_stale = true;
      break;
    }
    for (const auto& record : scan.records) {
      // Delivered records are node-level ledger entries, not replica
      // mutations; fold them into the ledger instead of replaying.
      if (is_delivered_record(record)) {
        chain.ck->delivered.insert(decode_delivered_record(record));
      } else if (replay) {
        apply_wal_record(chain.ck->replica, record);
      }
      ++stats.wal_records_replayed;
    }
    stats.wal_bytes_valid += scan.valid_bytes;
    stats.wal_bytes_truncated += scan.torn_bytes;
    ++stats.segments_replayed;
    last = std::move(scan);
  }
  return last;
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
      // No segment until attach() names one.
      wal_(env, {}) {
  if (options_.checkpoint_generations == 0)
    options_.checkpoint_generations = 1;
  next_checkpoint_at_ = options_.checkpoint_every_bytes;
}

Durability::~Durability() { detach(); }

void Durability::attach(repl::Replica& replica) {
  PFRDTN_REQUIRE(replica_ == nullptr);
  PFRDTN_REQUIRE(replica.mutation_sink() == nullptr);
  if (env_.exists(kManifestFile)) {
    attach_generations(replica);
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
  // Walk the chain recover() walked, without replay: the caller's
  // replica already holds the state, and only the delivered ledger
  // rides along in the log.
  ChainLoad chain = load_chain(env_);
  const WalScan newest = walk_segments(env_, chain, /*replay=*/false);
  delivered_ = std::move(chain.ck->delivered);
  epochs_ = std::move(chain.epochs);
  const std::uint64_t landed = chain.stats.epoch;
  if (!chain.stats.fallback) {
    // Healthy newest generation: resume its WAL segment after the last
    // valid record (dropping any torn tail on disk), or start it clean
    // when it is missing or stale.
    epoch_ = landed;
    wal_.set_file(wal_file(epoch_));
    if (newest.valid_header) {
      wal_.resume(newest);
      // A restart without power loss can find records whose fsync
      // failed still visible. Recovery replayed them and this node will
      // serve them, so they must be as durable as the rest.
      wal_.sync();
    } else {
      wal_.reset(epoch_);
    }
    return;
  }
  // The newest checkpoint is corrupt — the caller recovered `replica`
  // via generation fallback. Repair: snapshot the recovered state one
  // epoch past the corrupt one, drop the unreadable generations from
  // the manifest, and start a fresh segment.
  const std::uint64_t repair_epoch = epochs_.back() + 1;
  std::vector<std::uint64_t> kept;
  std::vector<std::uint64_t> dropped;
  for (const std::uint64_t e : epochs_) {
    (e <= landed ? kept : dropped).push_back(e);
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
  replica_->set_mutation_sink(nullptr);
  replica_ = nullptr;
}

void Durability::flush() {
  // A deferred roll is safe to take here: flush() is only called
  // between complete mutations, when memory matches the log.
  if (degraded_ || !roll_pending_ || replica_ == nullptr) return;
  roll_pending_ = false;
  checkpoint_now();
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
  // Checkpoint E+1 claims to contain everything in wal.<E>. That whole
  // segment is already durable: log() syncs every record, and attach()
  // syncs a resumed segment.
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

template <typename Encode>
void Durability::log(const Encode& encode) {
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
  record_.clear();
  encode(record_);
  try {
    wal_.append(record_.bytes());
    // The commit: the hook returns only once its record is durable.
    wal_.sync();
  } catch (const StorageError& err) {
    degrade(err);
    throw;
  }
  ++records_logged_;
  if (options_.kill_after_records != 0 &&
      records_logged_ >= options_.kill_after_records) {
    // Deterministic crash point for e2e tests: die with the record
    // durable but the mutation's caller never told.
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
  log([&](ByteWriter& w) { encode_delivered(w, id); });
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
  log([&](ByteWriter& w) { encode_local_put(w, stored); });
}

void Durability::on_apply_remote(const repl::Item& incoming) {
  log([&](ByteWriter& w) { encode_apply_remote(w, incoming); });
}

void Durability::on_set_filter(const repl::Filter& filter) {
  log([&](ByteWriter& w) { encode_set_filter(w, filter); });
}

void Durability::on_discard_relay(ItemId id) {
  log([&](ByteWriter& w) { encode_discard_relay(w, id); });
}

void Durability::on_learn(const repl::Knowledge& source_knowledge) {
  log([&](ByteWriter& w) { encode_learn(w, source_knowledge); });
}

void Durability::on_policy_state(
    ItemId id, const std::map<std::string, std::string>& all) {
  // Policy transients are soft state rewritten on the pull-serving
  // path, which must keep working while degraded — drop the record
  // instead of refusing (it is re-derived on the next contact).
  if (degraded_) return;
  log([&](ByteWriter& w) { encode_policy_state(w, id, all); });
}

std::optional<RecoveredReplica> recover(StorageEnv& env) {
  if (!env.exists(kManifestFile)) {
    // No manifest is a fresh directory, unless a pre-generation build
    // wrote it. Starting fresh over that state would lose it, so refuse.
    if (env.exists(kPreGenerationCheckpoint)) {
      throw ContractViolation(
          std::string("state directory holds a pre-generation ") +
          kPreGenerationCheckpoint + " and no " + kManifestFile +
          ": that layout is no longer read");
    }
    return std::nullopt;
  }
  ChainLoad chain = load_chain(env);
  walk_segments(env, chain, /*replay=*/true);
  const std::string violation = chain.ck->replica.check_invariants();
  PFRDTN_REQUIRE(violation.empty());
  return RecoveredReplica{std::move(chain.ck->replica),
                          std::move(chain.ck->delivered), chain.stats};
}

}  // namespace pfrdtn::persist
