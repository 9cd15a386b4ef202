#pragma once

/// \file knowledge.hpp
/// Per-replica knowledge: which update events this replica has seen.
///
/// Knowledge answers "does this replica already know update (author,
/// counter) of this item?" — the question the sync protocol asks to
/// guarantee at-most-once delivery. It is kept compact the way
/// Cimbiosys keeps it compact: a *universal* version set (exact update
/// events this replica received or authored, compacting into a version
/// vector) plus *scoped fragments* — claims of the form "I know every
/// event in version-set V that applies to items matching filter S",
/// learned by merging a sync partner's knowledge after a complete sync,
/// scoped to our own filter.
///
/// Soundness invariant (checked by the emulator's oracle in debug
/// runs): whenever knows(i, v) holds at replica R, R stores item i at a
/// version that is v or dominates v, or R stores a tombstone for i, or
/// i does not match R's filter and R's copy was never required. The
/// operations below each preserve it; see DESIGN.md §2 for the
/// eviction/filter-change discipline that keeps it true.

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "repl/filter.hpp"
#include "repl/item.hpp"
#include "repl/version.hpp"

namespace pfrdtn::repl {

class BloomFilter;  // summary.hpp

class Knowledge {
 public:
  /// One scoped claim: every event in `versions` that applies to an
  /// item matching `scope` is known.
  struct Fragment {
    Filter scope;
    VersionSet versions;
  };

  /// Maximum number of scoped fragments retained; excess fragments are
  /// discarded smallest-first (forgetting knowledge is always safe —
  /// the worst case is receiving an item copy twice).
  static constexpr std::size_t kMaxFragments = 32;

  /// Does this replica know the update (v.author, v.counter) as it
  /// applies to `item`?
  [[nodiscard]] bool knows(const Item& item, const Version& v) const;

  /// Record receipt or authorship of an exact update event.
  void add_exact(const Version& v) {
    if (universal_.contains(v)) return;
    universal_.add(v);
    touch();
  }

  /// Record receipt of a relay (out-of-filter) copy's event: pinned, so
  /// a later eviction can forget it (see VersionSet).
  void add_exact_pinned(const Version& v) {
    if (universal_.contains(v)) return;
    universal_.add(v, /*pinned=*/true);
    touch();
  }

  /// Record that every event authored by `author` up to `max_counter`
  /// is known (a replica knows its own authored prefix by
  /// construction).
  void add_authored_prefix(ReplicaId author, std::uint64_t max_counter) {
    if (max_counter <= universal_.vector_part().max_counter(author))
      return;
    universal_.add_prefix(author, max_counter);
    touch();
  }

  /// Forget an exact event (relay eviction), so the copy can be
  /// re-received later. Returns false if the event has already been
  /// folded into the universal vector prefix and cannot be forgotten.
  bool forget_exact(const Version& v) {
    const bool removed = universal_.remove_extra(v.author, v.counter);
    if (removed) touch();
    return removed;
  }

  /// True if forget_exact(v) would succeed. The eviction discipline
  /// requires this of every evictable relay copy's current version —
  /// an unforgettable event would make the copy un-re-receivable and,
  /// propagated through fragment merges, break eventual filter
  /// consistency (probed by Replica::check_invariants and src/check/).
  [[nodiscard]] bool can_forget(const Version& v) const {
    return universal_.removable(v.author, v.counter);
  }

  /// Drop every scoped fragment whose scope matches `item` — required
  /// when evicting a stored copy of `item`, because fragments may claim
  /// knowledge of events for it (see DESIGN.md).
  void drop_fragments_matching(const Item& item);

  /// Merge a sync partner's knowledge, restricted to `scope` (the
  /// receiving replica's filter intersected with what the partner can
  /// vouch for). Only sound after a *complete* sync.
  void merge_scoped(const Knowledge& other, const Filter& scope);

  /// The universal (scope-free) part.
  [[nodiscard]] const VersionSet& universal() const { return universal_; }
  [[nodiscard]] const std::vector<Fragment>& fragments() const {
    return fragments_;
  }

  /// Metadata footprint in serialized bytes.
  [[nodiscard]] std::size_t size_bytes() const { return wire().size(); }
  /// Abstract weight (vector entries + extras across all parts) for
  /// compaction benchmarks.
  [[nodiscard]] std::size_t weight() const;

  // ---- derived views, cached per revision ----------------------------
  //
  // The wire encoding, its digest (the summary exchange's "equal digests
  // => byte-identical wire knowledge", summary.hpp and docs/net.md) and
  // a Bloom filter over every known event are cached against
  // `revision_`, which every mutation that actually changes the value
  // bumps. A replica's knowledge is encoded once per value however many
  // syncs send it, and in the converged steady state a summary costs
  // O(1) per sync instead of a rebuild.

  /// Change counter: a mutator bumps it exactly when it changes the
  /// value (no-op merges and duplicate adds leave it untouched, which is
  /// what keeps the caches warm across converged syncs). An assignment
  /// takes the assigned knowledge's revision, caches included, so a
  /// replica's refilter can move it backwards.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// serialize()'s output, encoded at most once per revision. Valid
  /// until this knowledge next changes.
  [[nodiscard]] const std::vector<std::uint8_t>& wire() const;

  /// FNV-1a 64 digest of wire(), cached with it.
  [[nodiscard]] std::uint64_t wire_digest() const;

  /// Total known events: universal plus fragment version sets
  /// (scope-erased; events present in both are counted twice, which
  /// only over-sizes a Bloom filter). O(entries), not O(events).
  [[nodiscard]] std::uint64_t event_count() const;

  /// Cached Bloom filter over every known event, or null when this
  /// knowledge should not ship one (too many events, filter bigger than
  /// the cap or than the exact codec; see summary.hpp). Defined in
  /// summary.cpp.
  [[nodiscard]] std::shared_ptr<const BloomFilter> bloom() const;

  /// Appends wire().
  void serialize(ByteWriter& w) const { w.append(wire()); }
  static Knowledge deserialize(ByteReader& r);

  /// Structure-preserving codec for checkpoints (src/persist/): keeps
  /// pinned extras pinned and fragments verbatim (order, structure),
  /// where the wire codec re-canonicalizes both. A recovered replica
  /// must be byte-identical to the one that crashed, including the
  /// local-only pinning that keeps evictable relay copies forgettable.
  void serialize_exact(ByteWriter& w) const;
  static Knowledge deserialize_exact(ByteReader& r);

 private:
  /// True if a claim on `versions` adds nothing whatever its scope.
  [[nodiscard]] bool covers(const VersionSet& versions) const {
    return versions.empty() || universal_.contains_all(versions);
  }
  /// Record the claim "every event in `versions` is known for items
  /// matching `scope`". Every check runs against the borrowed set; it
  /// is copied only when it is stored as a new fragment.
  void add_fragment(const Filter& scope, const VersionSet& versions);
  void enforce_fragment_cap();

  /// Invalidate the caches after a real value change.
  void touch() { ++revision_; }

  /// The wire encoding at one revision. Copying it keeps it consistent
  /// with the copied value; moving it leaves the source stale, since a
  /// moved-from knowledge keeps its revision but not its value.
  struct WireCache {
    std::uint64_t revision = 0;  ///< 0: stale (revisions start at 1)
    std::vector<std::uint8_t> bytes;
    std::optional<std::uint64_t> digest;  ///< of `bytes`, on demand

    WireCache() = default;
    WireCache(const WireCache&) = default;
    WireCache& operator=(const WireCache&) = default;
    WireCache(WireCache&& other) noexcept
        : revision(std::exchange(other.revision, 0)),
          bytes(std::move(other.bytes)),
          digest(other.digest) {}
    WireCache& operator=(WireCache&& other) noexcept {
      revision = std::exchange(other.revision, 0);
      bytes = std::move(other.bytes);
      digest = other.digest;
      return *this;
    }
  };

  VersionSet universal_;
  std::vector<Fragment> fragments_;

  std::uint64_t revision_ = 1;
  // Value-derived caches, copied along with the value (the Bloom cache
  // is shared immutably).
  mutable WireCache wire_;
  mutable std::uint64_t bloom_cache_revision_ = 0;  ///< 0: none cached
  mutable std::shared_ptr<const BloomFilter> bloom_cache_;
};

}  // namespace pfrdtn::repl
