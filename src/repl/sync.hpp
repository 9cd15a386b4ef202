#pragma once

/// \file sync.hpp
/// The pairwise synchronization protocol (the paper's Figure 4):
///
///   Target:  routingState = policy.generateReq()
///            send knowledge, filter, routingState to source
///   Source:  policy.processReq(routingState)
///            for each stored item unknown to the target:
///              if it matches the target's filter -> batch (highest)
///              else if policy.toSend(item)       -> batch (policy prio)
///            sort batch by priority, apply bandwidth cap
///            send batch + own knowledge
///   Target:  apply items, update knowledge;
///            merge source knowledge scoped to own filter iff the batch
///            was complete (no filter-matching item truncated).
///
/// This header holds the protocol's messages, its three steps and its
/// frame codecs. One engine drives them: the net layer's session
/// machines (src/net/session.hpp), which loopback, TCP, `serve` and the
/// check harness run. run_sync below is that engine over a fault-free
/// in-memory link, so every in-process sync crosses the real frames.

#include <optional>

#include "repl/forwarding_policy.hpp"
#include "repl/replica.hpp"
#include "repl/summary.hpp"

namespace pfrdtn::repl {

/// What the target sends to the source.
struct SyncRequest {
  ReplicaId target{};
  Filter filter;
  Knowledge knowledge;
  std::vector<std::uint8_t> routing_state;

  void serialize(ByteWriter& w) const;
  static SyncRequest deserialize(ByteReader& r);
};

/// What the source returns. It travels as BatchBegin / BatchItem /
/// BatchEnd frames, never as one message.
struct SyncBatch {
  ReplicaId source{};
  std::vector<Item> items;  ///< priority order
  Knowledge source_knowledge;
  /// True iff every filter-matching unknown item was included (policy
  /// extras may still have been truncated). Gates knowledge learning.
  bool complete = true;
};

/// Whether a sync opens with a knowledge summary instead of the exact
/// request (see summary.hpp and docs/net.md §summary exchange).
enum class SummaryMode : std::uint8_t {
  Off = 0,  ///< always the exact Figure-4 exchange
  On = 1,   ///< always open with a summary (fail if the peer cannot)
  /// Open with a summary iff the peer advertised support in its Hello;
  /// resolved to On or Off during session negotiation. A sync driven
  /// without a Hello (run_sync, the loopback drives) has no peer to
  /// ask and treats Auto as On.
  Auto = 2,
};

struct SyncOptions {
  /// Bandwidth cap for this sync: maximum number of items transferred.
  std::optional<std::size_t> max_items;
  /// When false, skip knowledge learning even on complete syncs (for
  /// the knowledge-ablation benchmark).
  bool learn_knowledge = true;
  /// TESTING ONLY — reverts the truncation guard: the target merges the
  /// source's knowledge even when the batch was incomplete. This is the
  /// exact knowledge-corruption bug the guard exists to prevent; the
  /// check harness (src/check/) injects it to prove it would be caught.
  bool unsafe_learn_truncated = false;

  /// Summary-exchange fast path (see SummaryMode).
  SummaryMode summary_mode = SummaryMode::Off;
  /// Bloom filter tuning for the summary the target offers.
  SummaryParams summary;
  /// TESTING ONLY — the source treats every summary digest as matching
  /// its own, simulating a 64-bit digest collision. Items are deferred
  /// to future exact syncs but must never be lost and knowledge must
  /// stay sound; the check harness injects this to prove both.
  bool summary_force_collision = false;
  /// TESTING ONLY — on digest mismatch the source skips the fallback
  /// and answers with an empty "complete" batch carrying its real
  /// knowledge, so the target learns knowledge for items it never
  /// received. This is the protocol bug the fallback exists to prevent;
  /// the check harness's knowledge-soundness oracle must catch it.
  bool unsafe_summary_skip_fallback = false;
};

struct SyncStats {
  std::size_t items_sent = 0;
  std::size_t items_new = 0;      ///< StoredNew or UpdatedExisting
  std::size_t items_stale = 0;    ///< duplicates suppressed at target
  std::size_t evictions = 0;
  std::size_t request_bytes = 0;
  std::size_t batch_bytes = 0;
  bool complete = true;

  void accumulate(const SyncStats& other);
};

struct SyncResult {
  SyncStats stats;
  /// Items newly present in the target's filter store (candidate
  /// message deliveries, in the DTN application).
  std::vector<Item> delivered;
  /// Relay items the target evicted while applying the batch.
  std::vector<Item> evicted;
  /// The update event of every item copy that fully arrived (new,
  /// superseding, or stale), in arrival order. The check harness's
  /// at-most-once probe audits these against what the target was ever
  /// sent before.
  std::vector<Version> received_events;
};

// ---- protocol steps --------------------------------------------------
//
// The three steps of the Figure-4 exchange as free functions. The
// net-layer session machines run each step on its own side of a
// transport; run_sync drives those machines in process.

/// Target step 1: assemble the request this replica sends to `source`.
SyncRequest make_request(Replica& target, ForwardingPolicy* target_policy,
                         ReplicaId source_id, SimTime now);

/// Source step: answer a received request. Consults the policy, orders
/// candidates by priority, applies the bandwidth cap, and charges
/// per-copy forwarding state (on_forward) for items that made the cut.
/// `process_routing_state` is false only on the post-summary-miss
/// fallback, whose routing state was already processed by
/// answer_summary — policy hooks must run exactly once per sync.
SyncBatch build_batch(Replica& source, ForwardingPolicy* source_policy,
                      const SyncRequest& request, SimTime now,
                      const SyncOptions& options = {},
                      bool process_routing_state = true);

/// Target step 2, incremental form: items are applied one at a time as
/// they arrive, so a transport can stream a batch and keep whatever
/// prefix survived a dropped connection. Exactly one of finish() /
/// abandon() terminates the application.
class BatchApplier {
 public:
  BatchApplier(Replica& target, SyncOptions options)
      : target_(&target), options_(options) {}

  /// Apply one received item copy.
  void apply(const Item& item);

  /// The whole batch arrived: record the source's completeness claim
  /// and merge its knowledge iff the sync was complete.
  SyncResult finish(bool complete, const Knowledge& source_knowledge);

  /// The link died mid-batch: keep the applied prefix, mark the sync
  /// incomplete, and never learn the source's knowledge.
  SyncResult abandon();

 private:
  Replica* target_;
  SyncOptions options_;
  SyncResult result_;
};

// ---- summary exchange (the sub-linear fast path) ---------------------
//
// With summaries on, the target opens with a SummaryRequest — its
// filter and routing state as usual, but a KnowledgeSummary in place of
// the exact knowledge. The source answers one of three ways:
//
//   Match  — the digests are equal, so the knowledge is wire-identical
//            on both sides and the pair has already converged: the sync
//            ends in O(1) wire bytes, independent of replica size.
//   Batch  — the summary carried a Bloom filter and *no* stored item's
//            event hits it. A Bloom miss is definitive, so the target
//            provably knows none of the source's items: the source
//            streams the exact batch immediately (built against empty
//            knowledge — provably the batch the exact path would have
//            built, since the target knows no stored candidate).
//   Miss   — anything else (digest mismatch with a Bloom hit, or no
//            Bloom shipped). The target falls back to the exact
//            Request/batch flow within the same session, reusing the
//            routing state the summary already carried.
//
// A Bloom false positive can therefore cost a fallback round trip but
// never loses an item; a (2^-64) digest collision defers items to a
// future exact sync but leaves knowledge sound, because a Match makes
// the target learn only knowledge wire-identical to its own.

/// What the target sends to open a summary-mode sync.
struct SummaryRequestInfo {
  ReplicaId target{};
  Filter filter;
  KnowledgeSummary summary;
  std::vector<std::uint8_t> routing_state;

  void serialize(ByteWriter& w) const;
  static SummaryRequestInfo deserialize(ByteReader& r);
};

/// The source's decision on a summary request.
struct SummaryAnswer {
  enum class Kind : std::uint8_t {
    Match,  ///< converged: answer with a SummaryMatch frame
    Miss,   ///< can't decide cheaply: ask for the exact request
    Batch,  ///< Bloom proves a cold target: stream `batch` now
  };
  Kind kind = Kind::Miss;
  SyncBatch batch;  ///< meaningful only when kind == Batch
};

/// Target summary step 1: assemble the summary request. Runs the
/// policy's generate_request exactly like make_request does.
SummaryRequestInfo make_summary_request(Replica& target,
                                        ForwardingPolicy* target_policy,
                                        ReplicaId source_id, SimTime now,
                                        const SummaryParams& params);

/// Source summary step: decide Match / Miss / Batch. Always processes
/// the request's routing state first (policy parity with build_batch);
/// a later fallback build_batch must pass process_routing_state=false.
SummaryAnswer answer_summary(Replica& source,
                             ForwardingPolicy* source_policy,
                             const SummaryRequestInfo& request, SimTime now,
                             const SyncOptions& options = {});

/// Target summary step 2 on a Match: the digest-equal source knowledge
/// is wire-identical to the target's own, so run the normal complete-
/// sync finish against decode(encode(own knowledge)) — byte-identical
/// to the state transition the exact path would have made.
SyncResult apply_summary_match(Replica& target,
                               const SyncOptions& options = {});

// ---- frames ----------------------------------------------------------
//
// On a transport (src/net/) a request travels as one frame and a batch
// travels as a begin frame, one frame per item, and an end frame
// carrying the source knowledge — so a dropped connection truncates at
// an item boundary. Reported byte counts are these framed sizes.

/// Frame types of the sync wire protocol (frame `type` byte).
enum class SyncFrame : std::uint8_t {
  Hello = 1,           ///< session opener: client replica id + mode
  Request = 2,         ///< serialized SyncRequest
  BatchBegin = 3,      ///< source id, complete flag, item count
  BatchItem = 4,       ///< one serialized Item
  BatchEnd = 5,        ///< serialized source Knowledge
  SummaryRequest = 6,  ///< serialized SummaryRequestInfo
  SummaryMatch = 7,    ///< source id: converged, session over
  SummaryMiss = 8,     ///< source id: send the exact Request
  /// Structured refusal: a peer that cannot run this sync says so
  /// instead of its opening request (a degraded read-only replica
  /// refuses anything that would mutate it). The payload carries a
  /// code byte plus a human-readable message; the receiving side ends
  /// its role as a graceful, *transient* refusal — never a protocol
  /// violation, never a quarantine strike.
  Error = 9,
  /// Push acknowledgement: the target confirms it applied the streamed
  /// batch, carrying the count of item copies that fully arrived. Sent
  /// only when both hellos advertised net::kFeatureBatchAck. Without
  /// it a source that finished writing cannot distinguish "the target
  /// applied everything" from "the link died while the target was
  /// still reading" — its last writes land in socket buffers and
  /// succeed locally either way — so the retrying contact discipline
  /// would silently drop pushes cut on the far side.
  BatchAck = 10,
};

/// Error-frame codes: the retryable refusal class. Every code names a
/// *condition of the refusing node*, not a judgement of the peer, so
/// none of them ever strikes quarantine in either direction.
///
/// kSyncErrorReadOnly — the sender is degraded read-only after a
/// storage fault; a restart on a healthy disk clears it.
/// kSyncErrorBusy — the sender is at its concurrent-session cap and is
/// shedding load; clears as soon as a session slot frees up.
/// kSyncErrorDraining — the sender is shutting down gracefully and no
/// longer admits new sessions; retry once it restarts.
inline constexpr std::uint8_t kSyncErrorReadOnly = 1;
inline constexpr std::uint8_t kSyncErrorBusy = 2;
inline constexpr std::uint8_t kSyncErrorDraining = 3;

/// Decoded payload of an Error frame.
struct SyncErrorInfo {
  std::uint8_t code = 0;
  std::string message;
  /// Whether the refusal is known-transient (retry at the next
  /// contact). Every currently assigned code is transient, and unknown
  /// codes from newer peers default to transient too: refusing
  /// politely is strictly better behaviour than anything a hostile
  /// peer could gain from the frame. The switch exists so a future
  /// permanent code has one place to land.
  [[nodiscard]] bool transient() const {
    switch (code) {
      case kSyncErrorReadOnly:
      case kSyncErrorBusy:
      case kSyncErrorDraining:
        return true;
      default:
        return true;  // unknown codes: be polite, retry later
    }
  }
};

/// Log/CLI label for an error-frame code ("read-only", "busy",
/// "draining", or "error-<n>" for codes this build does not know).
std::string sync_error_code_name(std::uint8_t code);

std::vector<std::uint8_t> encode_error_frame(std::uint8_t code,
                                             const std::string& message);
SyncErrorInfo decode_error_frame(const std::vector<std::uint8_t>& payload);

/// Header fields of a streamed batch (the BatchBegin payload).
struct BatchBeginInfo {
  ReplicaId source{};
  bool complete = true;
  std::uint64_t count = 0;
};

std::vector<std::uint8_t> encode_batch_begin(const SyncBatch& batch);
BatchBeginInfo decode_batch_begin(const std::vector<std::uint8_t>& payload);

/// Payload of a SummaryMatch / SummaryMiss frame: the source id.
std::vector<std::uint8_t> encode_summary_reply(ReplicaId source);
ReplicaId decode_summary_reply(const std::vector<std::uint8_t>& payload);

/// Payload of a BatchAck frame: how many item copies the target fully
/// received and applied (new or stale — an arrival either way).
std::vector<std::uint8_t> encode_batch_ack(std::uint64_t items_applied);
std::uint64_t decode_batch_ack(const std::vector<std::uint8_t>& payload);

/// Run one one-way synchronization in which `target` pulls from
/// `source`. Policies may be null (unmodified substrate). Defined in
/// src/net/session.cpp: the session machines run the exchange over a
/// fault-free loopback link (net::sync_over_loopback), under the
/// default ResourceLimits, and the target-side result is returned.
/// Byte counts are the framed bytes that crossed the link. A refusal
/// (a degraded read-only target) throws ReadOnlyError and a transport
/// failure throws net::TransportError; neither returns an empty result.
SyncResult run_sync(Replica& source, Replica& target,
                    ForwardingPolicy* source_policy,
                    ForwardingPolicy* target_policy, SimTime now,
                    const SyncOptions& options = {});

}  // namespace pfrdtn::repl
