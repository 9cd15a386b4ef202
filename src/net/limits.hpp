#pragma once

/// \file limits.hpp
/// Hard resource budgets for a sync session with an untrusted peer.
///
/// A frame header is eight bytes a stranger controls entirely; before
/// this layer existed its length field was trusted up to 64 MiB and the
/// payload buffer allocated before a single payload byte was validated.
/// ResourceLimits turns every quantity a peer can inflate — payload
/// bytes per frame type, items per batch, knowledge entries, policy
/// blob bytes, decoded elements, total session bytes — into an explicit
/// budget checked *before* the corresponding allocation. SessionBudget
/// carries the running per-session totals; one instance spans a whole
/// serve/client session so the byte ceiling accumulates across frames.
///
/// Breaches throw ResourceLimitError, a ContractViolation subclass:
/// like any protocol violation it means the peer is broken or hostile
/// (not that the link failed), so it propagates to the session owner,
/// which can quarantine the peer — but the two are distinguishable in
/// logs. See docs/hardening.md for the limits table and threat model.

#include <cstdint>
#include <string>

#include "repl/sync.hpp"
#include "util/byte_buffer.hpp"
#include "util/require.hpp"

namespace pfrdtn::net {

/// Thrown when a peer exceeds a configured resource budget. A subclass
/// of ContractViolation so existing containment (serve's per-session
/// catch, the check harness) treats it as peer misbehaviour, while the
/// quarantine log can still name the limit that was breached.
class ResourceLimitError : public ContractViolation {
 public:
  explicit ResourceLimitError(const std::string& what)
      : ContractViolation("resource limit exceeded: " + what) {}
};

/// Per-session budgets for untrusted input. The defaults are generous —
/// an order of magnitude above what any legitimate session in this
/// repository produces — so enabling them everywhere costs nothing;
/// `pfrdtn serve` and the tests tighten them per deployment.
struct ResourceLimits {
  // Per-frame payload caps, by frame type. A header whose length field
  // exceeds the cap for its type is rejected before the payload buffer
  // is allocated (and an unknown type byte is rejected outright).
  std::uint32_t max_hello_bytes = 64;
  std::uint32_t max_request_bytes = 1u << 20;
  std::uint32_t max_batch_begin_bytes = 64;
  std::uint32_t max_item_bytes = 4u << 20;
  std::uint32_t max_batch_end_bytes = 1u << 20;
  /// SummaryRequest: filter + digest + Bloom filter + routing blob; the
  /// Bloom filter is tiny by construction (repl::kMaxBloomBytes) but
  /// the routing blob shares the request budget, so mirror it.
  std::uint32_t max_summary_bytes = 1u << 20;
  /// SummaryMatch / SummaryMiss carry only the source id.
  std::uint32_t max_summary_reply_bytes = 64;
  /// Error: a code byte plus a short human-readable refusal message.
  std::uint32_t max_error_bytes = 512;
  /// BatchAck carries only one uvarint (the applied-copy count).
  std::uint32_t max_batch_ack_bytes = 64;

  /// Cap on BatchBegin's announced item count, checked before the item
  /// loop starts.
  std::uint64_t max_batch_items = 65536;
  /// Cap on the total weight (version entries) of a peer's knowledge,
  /// checked right after decode, before merging or storing any of it.
  std::size_t max_knowledge_entries = 65536;
  /// Cap on the opaque routing-state blob a Request may carry into the
  /// forwarding policy.
  std::size_t max_policy_blob_bytes = 64u << 10;
  /// ByteReader element budget armed per frame: bounds decode *work*
  /// (map entries, set members, filter nodes), which compact varint
  /// encodings can amplify far beyond the payload byte count.
  std::size_t max_decode_elements = 1u << 20;
  /// Total wire bytes (both directions) one session may move.
  std::uint64_t session_byte_ceiling = 64ull << 20;

  /// Payload cap for a raw frame-type byte; throws ContractViolation
  /// for a type that is not part of the sync protocol.
  [[nodiscard]] std::uint32_t frame_payload_cap(std::uint8_t type) const;

  /// All budgets effectively off (testing / bug injection only).
  [[nodiscard]] static ResourceLimits unlimited();
};

/// Printable name of a sync frame-type byte ("Hello", "Request", ...).
[[nodiscard]] const char* frame_type_name(std::uint8_t type);

/// The running totals of one session against its ResourceLimits.
/// Create one per session (accept or connect) and pass it to every
/// framed read/write so the byte ceiling spans the whole exchange.
class SessionBudget {
 public:
  SessionBudget() = default;
  explicit SessionBudget(const ResourceLimits& limits) : limits_(limits) {}

  [[nodiscard]] const ResourceLimits& limits() const { return limits_; }

  /// Admission check for a decoded frame header, called BEFORE the
  /// payload buffer is allocated: rejects unknown frame types, a
  /// length over the per-type cap, and a frame that would push the
  /// session past its byte ceiling.
  void admit_frame(std::uint8_t type, std::uint32_t payload_length) const;

  /// Account `wire_bytes` moved (either direction) against the session
  /// ceiling; throws ResourceLimitError once the ceiling is crossed.
  void charge(std::size_t wire_bytes);

  [[nodiscard]] std::uint64_t bytes_used() const { return bytes_; }

 private:
  ResourceLimits limits_;
  std::uint64_t bytes_ = 0;
};

}  // namespace pfrdtn::net
