#pragma once

/// \file summary.hpp
/// Compact knowledge summaries for the sub-linear anti-entropy fast
/// path (see docs/net.md §summary exchange).
///
/// A KnowledgeSummary stands in for a replica's full knowledge on the
/// first leg of a sync: a 64-bit digest of the wire-serialized
/// knowledge (equal digests => byte-identical wire knowledge, so the
/// peers have already converged and the exchange ends in O(1) wire
/// bytes) plus an optional Bloom filter over every known update event.
/// The Bloom filter lets a source prove "the target knows none of my
/// candidates" without ever seeing the target's exact knowledge: a
/// Bloom *miss* is definitive (no false negatives), so a zero-hit scan
/// licenses streaming the exact batch immediately. Any hit — true
/// positive or false positive — defers to the exact request/batch
/// flow, which is why a false positive can cost bytes but never lose
/// an item. Sizing follows Marandi et al. (PAPERS.md): m/n bits per
/// element with k = ln2 * m/n hash functions.

#include <optional>

#include "repl/knowledge.hpp"
#include "util/hash.hpp"

namespace pfrdtn::repl {

/// Bloom sizing, per Marandi et al.: at m/n bits per element the
/// false-positive rate is minimized by k = ln2 * m/n hash functions,
/// giving fp ~ 0.5^k. 10 bits and k = round(ln2 * 10) = 7 land near
/// 0.8 %.
inline constexpr std::uint32_t kBloomBitsPerElement = 10;
inline constexpr std::uint32_t kBloomHashCount = 7;
/// Knowledge holding more events than this never gets a Bloom filter
/// (the digest tier still applies): bounds the build cost of a cache
/// rebuild and the memory a summary can occupy.
inline constexpr std::uint64_t kMaxBloomElements = 4096;
/// A filter bigger than this many bytes is never *sent* — at that size
/// the exact codec is competitive and the digest tier already handles
/// the converged case in O(1).
inline constexpr std::size_t kMaxBloomBytes = 512;

/// Bloom filter over update events (author, counter). Double hashing:
/// the two base hashes derive from one splitmix64 chain, probe i uses
/// h1 + i*h2 mod bit_count.
class BloomFilter {
 public:
  /// Decode-time ceiling on the hash count; more hashes than this costs
  /// work without lowering the false-positive rate at any sane m/n.
  static constexpr std::uint32_t kMaxHashCount = 32;

  BloomFilter() = default;
  BloomFilter(std::uint64_t bit_count, std::uint32_t hash_count);

  /// An empty filter sized for `element_count` events at
  /// kBloomBitsPerElement with kBloomHashCount hashes.
  static BloomFilter sized_for(std::uint64_t element_count);

  void insert(ReplicaId author, std::uint64_t counter);
  /// False means definitively absent; true means present or a false
  /// positive (rate tuned by kBloomBitsPerElement).
  [[nodiscard]] bool maybe_contains(ReplicaId author,
                                    std::uint64_t counter) const;

  [[nodiscard]] std::uint64_t bit_count() const { return bit_count_; }
  [[nodiscard]] std::uint32_t hash_count() const { return hash_count_; }
  [[nodiscard]] std::size_t byte_size() const { return bits_.size(); }

  void serialize(ByteWriter& w) const;
  /// Throws ContractViolation on any structurally invalid encoding
  /// (zero/oversized hash count, bit/byte length mismatch). Allocation
  /// is bounded by the payload the caller already admitted against its
  /// resource limits: the bit array is read with ByteReader::raw(),
  /// which cannot allocate beyond the remaining payload bytes.
  static BloomFilter deserialize(ByteReader& r);

  friend bool operator==(const BloomFilter&, const BloomFilter&) = default;

 private:
  std::uint64_t bit_count_ = 0;
  std::uint32_t hash_count_ = 0;
  std::vector<std::uint8_t> bits_;
};

/// What a target offers instead of its exact knowledge on the summary
/// fast path.
struct KnowledgeSummary {
  /// Knowledge::wire_digest() of the exact knowledge.
  std::uint64_t digest = 0;
  /// Bloom filter over every known event; absent when it would break
  /// a cap above or not undercut the exact codec (Knowledge::bloom).
  std::optional<BloomFilter> bloom;

  void serialize(ByteWriter& w) const;
  static KnowledgeSummary deserialize(ByteReader& r);

  friend bool operator==(const KnowledgeSummary&,
                         const KnowledgeSummary&) = default;
};

/// Build the summary `knowledge` should offer. Cached inside the
/// Knowledge object (digest and Bloom both key on its revision), so in
/// the converged steady state this is O(1) per sync.
[[nodiscard]] KnowledgeSummary summarize(const Knowledge& knowledge);

}  // namespace pfrdtn::repl
