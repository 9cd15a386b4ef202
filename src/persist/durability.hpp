#pragma once

/// \file durability.hpp
/// Crash-durable replica state: a `Durability` sink on the replica's
/// mutation funnel writes one WAL record per mutation (fsynced before
/// the mutation is considered acknowledged) and periodically rolls the
/// log into an atomic checkpoint; `recover()` rebuilds the replica
/// after a crash by loading a checkpoint and replaying the log.
///
/// Checkpoint generations: the state directory retains the last
/// `checkpoint_generations` checkpoints (checkpoint.<epoch>.bin), each
/// paired with the WAL segment written after it (wal.<epoch>.log), all
/// listed in a CRC'd MANIFEST (see manifest.hpp). A checkpoint at
/// epoch E+1 snapshots exactly "checkpoint E + full wal.<E> replay", so
/// recovery that finds the newest checkpoint corrupt (bit rot, a torn
/// rename the filesystem lied about) falls back one generation and
/// replays the longer WAL chain instead of declaring total loss.
///
/// Epoch guard: checkpoint.<E+1> and the manifest are made durable
/// *before* wal.<E+1> is created. A crash between the two leaves the
/// new generation without a log — recovery treats the missing segment
/// as empty, which is exactly right because everything in wal.<E> was
/// already folded into checkpoint.<E+1>.
///
/// Failure policy (see docs/persistence.md "failure model"):
///   - WAL append/fsync failure is *hard*: the acknowledgement contract
///     can no longer be met, so the layer degrades — the replica is
///     flipped read-only, a DEGRADED marker is dropped best-effort, and
///     the StorageError propagates (as a refusal, never a crash).
///     fsync is never retried: a failed fsync may have dropped the
///     dirty pages, so retry-and-assume-durable proves nothing.
///   - Checkpoint/manifest write failure is *soft*: logging continues
///     against the current segment and the roll is retried after
///     another checkpoint_every_bytes. An orphaned half-new checkpoint
///     is overwritten by the retry and never referenced by the
///     manifest.
///   - Prune failure is *soft*: an extra generation or an orphaned file
///     costs disk, not correctness.
///
/// Acknowledgement contract: every hook returns with its record
/// fsynced, so every acknowledged mutation survives any crash. What
/// recovery restores is exactly a retained checkpoint plus every
/// fsynced record after it — the check harness asserts this with state
/// digests taken at the crash point, including under injected storage
/// faults.

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "persist/checkpoint.hpp"
#include "persist/env.hpp"
#include "persist/manifest.hpp"
#include "persist/wal.hpp"
#include "repl/replica.hpp"
#include "util/byte_buffer.hpp"
#include "util/storage_error.hpp"

namespace pfrdtn::persist {

/// Best-effort marker dropped when the layer degrades (content: the
/// triggering StorageError). Removed by the next successful attach().
inline constexpr const char* kDegradedMarkerFile = "DEGRADED";

/// WAL record payloads: kind byte + the mutation's replay input.
enum class WalRecordKind : std::uint8_t {
  LocalPut = 1,     ///< Item (create/update/erase result)
  ApplyRemote = 2,  ///< Item (the incoming copy, transients included)
  SetFilter = 3,    ///< Filter
  DiscardRelay = 4, ///< ItemId
  Learn = 5,        ///< Knowledge (exact codec)
  PolicyState = 6,  ///< ItemId + full transient map
  /// Node-level ledger, not replica state: a message item was reported
  /// delivered to the application. Replayed into
  /// RecoveredReplica::delivered, never against the replica.
  Delivered = 7,    ///< ItemId
};

/// One encoder per record kind: each appends the record's payload to
/// `w`. Durability encodes every record into one writer it reuses.
void encode_local_put(ByteWriter& w, const repl::Item& item);
void encode_apply_remote(ByteWriter& w, const repl::Item& item);
void encode_set_filter(ByteWriter& w, const repl::Filter& filter);
void encode_discard_relay(ByteWriter& w, ItemId id);
void encode_learn(ByteWriter& w, const repl::Knowledge& knowledge);
void encode_policy_state(ByteWriter& w, ItemId id,
                         const std::map<std::string, std::string>& all);
void encode_delivered(ByteWriter& w, ItemId id);

/// Replay one record against `replica`. Throws ContractViolation on a
/// malformed payload (a CRC-valid record can still be foreign bytes in
/// a fuzzed log). The replica must have no mutation sink attached.
void apply_wal_record(repl::Replica& replica,
                      const std::vector<std::uint8_t>& payload);

struct DurabilityOptions {
  /// Roll the WAL into a checkpoint once it exceeds this many bytes.
  std::size_t checkpoint_every_bytes = 1 << 20;
  /// Checkpoint generations to retain (minimum 1). Older generations
  /// are the fallback when the newest checkpoint is unreadable.
  std::size_t checkpoint_generations = 3;
  /// Debug hook for crash e2e tests: raise SIGKILL immediately after
  /// the Nth WAL record is committed (0 = disabled). Gives scripts a
  /// deterministic mid-batch crash point.
  std::size_t kill_after_records = 0;
  /// Called exactly once, at the moment the layer degrades to
  /// read-only, with the triggering fault. Use it to emit a structured
  /// log line; must not throw.
  std::function<void(const StorageError&)> on_degrade;
};

/// Durability counters for operational visibility (pfrdtn
/// state-digest, the serve drain line, the check harness).
struct DurabilityCounters {
  std::uint64_t epoch = 0;
  std::size_t wal_records_logged = 0;
  std::size_t wal_bytes_appended = 0;
  std::size_t wal_fsyncs = 0;
  std::size_t checkpoints_written = 0;
  std::size_t checkpoint_failures = 0;  ///< soft roll failures, retried
  std::size_t generations_retained = 0;
  std::size_t generations_pruned = 0;
  bool degraded = false;
};

/// The WAL-writing mutation sink. Lifecycle:
///
///   FsEnv env(dir);
///   auto recovered = recover(env);          // nullopt on first boot
///   repl::Replica replica = recovered ? std::move(recovered->replica)
///                                     : make_fresh(...);
///   Durability durability(env, options);
///   durability.attach(replica);             // truncates any torn tail
///   ... mutate via the replica funnel ...
///
/// attach() assumes `replica` matches the on-disk state (it was just
/// recovered from this env, or the env is fresh). On a fresh env it
/// writes the initial checkpoint + manifest. Otherwise it walks the
/// same generation chain recover() walked, restoring the delivered
/// ledger: it resumes the newest segment after its last valid record
/// and syncs it (recovery replayed every visible record, so all of
/// them must be durable), or, when the newest generation is corrupt
/// (the caller recovered via fallback), repairs by writing a fresh
/// checkpoint one epoch past the corrupt one.
class Durability final : public repl::ReplicaMutationSink {
 public:
  Durability(StorageEnv& env, DurabilityOptions options = {});
  ~Durability() override;

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  void attach(repl::Replica& replica);
  /// Stop observing. Safe when not attached. Every record is already
  /// durable, so there is nothing to flush.
  void detach();
  [[nodiscard]] bool attached() const { return replica_ != nullptr; }

  /// Take a checkpoint roll the last record left due, now rather than
  /// at the next hook. Records need no flushing: each is durable
  /// before its hook returns.
  void flush();
  /// Snapshot the replica into a new checkpoint generation and roll
  /// the WAL. Checkpoint/manifest write failures are soft (logged into
  /// counters, retried later); a WAL-roll failure degrades and throws.
  void checkpoint_now();

  /// Record that the application reported message `id` delivered, so a
  /// restart never re-reports it (app-level exactly-once across
  /// crashes). Durable under the same acknowledgement contract as the
  /// mutation hooks; idempotent. attach() restores the ledger from the
  /// checkpoint and any Delivered records in the log, so callers only
  /// add to it.
  void note_delivered(ItemId id);
  [[nodiscard]] const std::set<ItemId>& delivered() const {
    return delivered_;
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t records_logged() const {
    return records_logged_;
  }
  [[nodiscard]] std::size_t checkpoints_written() const {
    return checkpoints_written_;
  }
  /// Retained generation epochs, oldest first (mirrors the manifest).
  [[nodiscard]] const std::vector<std::uint64_t>& generations() const {
    return epochs_;
  }
  /// True once a hard storage fault has flipped the layer (and its
  /// replica) read-only. Cleared only by restarting on a healthy disk.
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] DurabilityCounters counters() const;

  // ReplicaMutationSink
  void on_local_put(const repl::Item& stored) override;
  void on_apply_remote(const repl::Item& incoming) override;
  void on_set_filter(const repl::Filter& filter) override;
  void on_discard_relay(ItemId id) override;
  void on_learn(const repl::Knowledge& source_knowledge) override;
  void on_policy_state(
      ItemId id,
      const std::map<std::string, std::string>& all) override;

 private:
  /// Encode one record into record_ with `encode(ByteWriter&)`, append
  /// it to the WAL ahead of the mutation it describes, and fsync it:
  /// the one place that decides when a record is committed.
  template <typename Encode>
  void log(const Encode& encode);
  void checkpoint_now_impl();
  void prune_generations();
  /// Flip to degraded read-only mode (idempotent).
  void degrade(const StorageError& err);
  void attach_generations(repl::Replica& replica);
  void attach_fresh(repl::Replica& replica);

  StorageEnv& env_;
  DurabilityOptions options_;
  WalWriter wal_;
  ByteWriter record_;  ///< payload of the record log() is writing
  repl::Replica* replica_ = nullptr;
  std::set<ItemId> delivered_;
  std::vector<std::uint64_t> epochs_;  ///< manifest mirror, ascending
  std::uint64_t epoch_ = 0;
  std::size_t records_logged_ = 0;
  std::size_t checkpoints_written_ = 0;
  std::size_t checkpoint_failures_ = 0;
  std::size_t generations_pruned_ = 0;
  /// Roll the WAL once log_bytes reaches this; pushed back after a
  /// soft checkpoint failure so the retry is paced, not immediate.
  std::size_t next_checkpoint_at_ = 0;
  /// Set when the threshold is crossed; consumed at the *start* of the
  /// next log() (or flush). Mutation hooks run write-ahead — the
  /// record is logged before the replica applies it — so rolling
  /// immediately after an append would snapshot state that lacks the
  /// record while retiring the segment that holds it. At the start of
  /// the next hook, memory and log agree again.
  bool roll_pending_ = false;
  bool degraded_ = false;
};

struct RecoveryStats {
  /// Epoch of the checkpoint generation recovery landed on.
  std::uint64_t epoch = 0;
  /// Newest generation the manifest listed (== epoch unless recovery
  /// fell back past corrupt checkpoints).
  std::uint64_t newest_epoch = 0;
  /// Checkpoints opened before one decoded (1 = newest was fine).
  std::size_t generations_tried = 1;
  /// True when the newest checkpoint was unreadable and an older
  /// generation plus a longer WAL chain rebuilt the state.
  bool fallback = false;
  std::size_t wal_records_replayed = 0;
  /// WAL segments folded in (the chain from the landed generation to
  /// the newest).
  std::size_t segments_replayed = 0;
  std::size_t wal_bytes_valid = 0;
  std::size_t wal_bytes_truncated = 0;  ///< torn tail dropped
  bool wal_stale = false;  ///< log missing or from an older epoch
};

struct RecoveredReplica {
  repl::Replica replica;
  /// Delivered-message ledger: checkpoint ledger plus every Delivered
  /// WAL record. Seed the application node with this so restart
  /// re-reporting becomes exactly-once (dtn::DtnNode::seed_delivered).
  std::set<ItemId> delivered;
  RecoveryStats stats;
};

/// Rebuild replica state from `env`. Returns nullopt when no manifest
/// exists (a fresh state directory). Tries checkpoint generations
/// newest-first, falling back past corrupt ones and replaying the WAL
/// segment chain from the generation that loads. Throws
/// ContractViolation when the directory holds a pre-generation
/// `checkpoint.bin` and no manifest (a layout this build does not
/// read; starting fresh over it would lose the node's state), when
/// *every* retained generation is corrupt, a CRC-valid WAL record
/// fails to replay, or the recovered state fails
/// Replica::check_invariants — corruption is rejected, never loaded.
/// A torn WAL tail (short write at the crash point) is not corruption:
/// it is truncated at the last valid record.
std::optional<RecoveredReplica> recover(StorageEnv& env);

}  // namespace pfrdtn::persist
