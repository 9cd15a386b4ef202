#pragma once

/// \file store.hpp
/// Per-replica item storage. Two logical stores, as in Cimbiosys:
/// the *filter store* (items matching the replica's filter — never
/// evicted, required for eventual filter consistency) and the
/// *relay store* (out-of-filter items held for forwarding; the paper's
/// push-out store generalized to DTN relaying). Relay items are
/// evictable, except copies this replica authored ("excluding messages
/// for which the node itself is the sender"), which must survive until
/// delivered.
///
/// Sync-hot-path indexes, all maintained incrementally:
///  - relay / evictable counters (O(1) queries; eviction no longer
///    rescans the store to count),
///  - an arrival-ordered index of just the evictable entries, so
///    enforce_capacity picks each FIFO/LIFO victim in O(log n) instead
///    of walking the whole arrival order,
///  - an inverted index over parsed `dest` addresses, so batch
///    building enumerates the candidates of an address filter (the DTN
///    common case) in O(matching) via for_filter_matches() instead of
///    scanning every entry,
///  - a per-author version index (each author's entries in ascending
///    counter order), so batch building enumerates the entries a
///    target's knowledge lacks by set difference via for_each_outside()
///    instead of asking the knowledge about every entry.
/// Entries are therefore mutated only through store operations (put /
/// supersede / refilter / remove); callers get const views plus a
/// TransientView for the per-copy routing state, which no index
/// depends on.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "repl/filter.hpp"
#include "repl/item.hpp"
#include "util/require.hpp"

namespace pfrdtn::repl {

/// How the relay store picks a victim when over capacity.
enum class EvictionOrder {
  Fifo,  ///< oldest arrival first (the paper's strategy)
  Lifo,  ///< newest arrival first
};

class ItemStore {
 public:
  struct Config {
    /// Maximum number of evictable (relay, non-locally-authored) items;
    /// nullopt = unbounded (the paper's unconstrained experiments).
    std::optional<std::size_t> relay_capacity;
    EvictionOrder eviction = EvictionOrder::Fifo;
  };

  struct Entry {
    Item item;
    bool in_filter = false;     ///< matches the replica's filter
    bool local_origin = false;  ///< authored by this replica
    std::uint64_t arrival_seq = 0;

    [[nodiscard]] bool evictable() const {
      return !in_filter && !local_origin;
    }
  };

  ItemStore() = default;
  explicit ItemStore(Config config) : config_(config) {}

  /// A copy rebuilds every index over its own entries: the indexes
  /// hold entry pointers, which must never point into the source.
  /// Moves keep the entry nodes, so the indexes stay valid.
  ItemStore(const ItemStore& other);
  ItemStore& operator=(const ItemStore& other);
  ItemStore(ItemStore&&) = default;
  ItemStore& operator=(ItemStore&&) = default;

  /// Insert or replace an entry. If the relay store exceeds capacity
  /// afterwards, victims are evicted and returned (never the
  /// just-inserted entry under FIFO unless capacity is zero).
  std::vector<Item> put(Item item, bool in_filter, bool local_origin);

  [[nodiscard]] const Entry* find(ItemId id) const;

  [[nodiscard]] bool contains(ItemId id) const {
    return entries_.count(id) > 0;
  }

  /// Remove an item outright (used by tests and by garbage collection
  /// extensions; normal deletion is a tombstone supersede).
  bool remove(ItemId id);

  /// Replace the replicated content of an existing entry with `payload`
  /// (a local update, a tombstone, or an adopted remote payload — a
  /// refcount bump, never a deep copy). Per-copy transient state is
  /// dropped, the dest index follows the new payload, and the counters
  /// follow the new `in_filter` verdict. `make_local_origin` pins the
  /// copy (authorship is sticky; false keeps the current flag). Does
  /// NOT enforce capacity: the eviction points of the substrate are
  /// put() and refilter(), and a supersede that turns a copy evictable
  /// only counts against capacity at the next one.
  void supersede(ItemId id, Item::PayloadPtr payload, bool in_filter,
                 bool make_local_origin);

  /// Mutable access to a stored copy's transient (per-copy) state.
  /// Nullopt when the item is not stored.
  std::optional<TransientView> transient_mutable(ItemId id);

  /// Replace a stored copy's whole transient map (WAL replay of a
  /// policy-state snapshot). Indexes are unaffected: no index depends
  /// on transient state. Returns false when the item is not stored.
  bool replace_transients(ItemId id,
                          std::map<std::string, std::string> all);

  /// Re-evaluate in_filter flags after a filter change.
  /// `matches` is the new filter predicate. Returns the items that
  /// changed from relay to filter store (newly "delivered" locally) in
  /// arrival order; items moving the other way become evictable, which
  /// may trigger evictions returned via `evicted`.
  std::vector<Item> refilter(
      const std::function<bool(const Item&)>& matches,
      std::vector<Item>& evicted);

  /// Iterate all entries in arrival order (deterministic).
  void for_each(const std::function<void(const Entry&)>& fn) const;

  /// Visit, in arrival order, every entry whose version event `known`
  /// does not contain, with mutable access to its transient state —
  /// the sync engine's general candidate scan, where a policy may
  /// initialize per-copy routing state (e.g. a default TTL) on the
  /// stored copy. The version index is walked one author at a time
  /// against known.counters_of(author): one binary search skips the
  /// entries inside the known prefix, and a merge with the known
  /// extras and pinned counters skips the rest of the known ones. The
  /// cost follows the entries above each author's known prefix and
  /// the known counters there, not the store; only the survivors are
  /// sorted and visited.
  void for_each_outside(
      const VersionSet& known,
      const std::function<void(const Entry&, TransientView)>& fn);

  /// Visit exactly the entries whose item matches `filter`, returning
  /// false from `fn` to stop early. Address filters (and provably
  /// empty ones) are answered from the dest inverted index in
  /// O(matching); any other filter falls back to the full arrival-order
  /// scan with a per-entry filter evaluation. Visit order on the
  /// indexed path is unspecified — callers needing determinism must
  /// order by Entry::arrival_seq. Returns true iff the index served
  /// the query (exposed so benchmarks and tests can pin the fast path).
  bool for_filter_matches(
      const Filter& filter,
      const std::function<bool(const Entry&)>& fn) const;

  /// Force an entry's in_filter flag without consulting any filter —
  /// a test/diagnostic hook for exercising invariant checking; indexes
  /// and counters are kept consistent, capacity is not enforced.
  void set_in_filter_for_test(ItemId id, bool in_filter);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t relay_count() const { return relay_count_; }
  [[nodiscard]] std::size_t evictable_count() const {
    return evictable_count_;
  }
  [[nodiscard]] const Config& config() const { return config_; }
  void set_relay_capacity(std::optional<std::size_t> capacity) {
    config_.relay_capacity = capacity;
  }

  // ---- checkpoint support (src/persist/) ----
  //
  // Recovery must reproduce the pre-crash store *exactly*, including
  // each entry's arrival_seq (the deterministic tie-break that makes
  // post-recovery sync batches byte-identical) and the next sequence
  // number future arrivals will take.

  /// Re-insert a snapshotted entry verbatim: no capacity enforcement,
  /// no fresh sequence number. The id and arrival_seq must be unused.
  void restore_entry(Item item, bool in_filter, bool local_origin,
                     std::uint64_t arrival_seq);

  [[nodiscard]] std::uint64_t next_arrival_seq() const {
    return next_seq_;
  }
  /// Restore the arrival counter; must not reuse a live sequence.
  void set_next_arrival_seq(std::uint64_t seq);

 private:
  /// Add/remove `entry` to the derived indexes: the flag-derived ones
  /// (counters, evictable order) and the payload-derived ones (dest
  /// buckets, version index). Every mutation is bracketed by
  /// unindex/index so the derived state can never drift; a change of
  /// flags alone (refilter) brackets with the flag part only.
  void index(Entry& entry);
  void unindex(const Entry& entry);
  void index_flags(const Entry& entry);
  void unindex_flags(const Entry& entry);

  /// One author's entries, ascending by version counter. Two entries
  /// may share a counter: a hostile peer can send two item ids with
  /// one version, and both are stored. A removal nulls its slot rather
  /// than shifting the ones after it (a FIFO eviction takes the
  /// author's oldest, often lowest, counter); the null slots are
  /// dropped in one pass once they are half the group.
  struct AuthorEntries {
    ReplicaId author;
    std::vector<std::pair<std::uint64_t, Entry*>> by_counter;
    std::size_t removed = 0;  ///< null slots in by_counter
  };

  std::vector<Item> enforce_capacity();

  Config config_;
  std::unordered_map<ItemId, Entry> entries_;
  /// Arrival-ordered index over entries_ (FIFO order, deterministic
  /// iteration without per-call sorting). It holds stable Entry
  /// pointers (entries_ is node-based), so scans in arrival order
  /// never hash an id.
  std::map<std::uint64_t, Entry*> order_;
  /// Arrival-ordered index over just the evictable entries: victim
  /// selection reads begin()/rbegin() instead of scanning order_.
  std::map<std::uint64_t, ItemId> evictable_order_;
  /// Inverted index: dest address -> entries whose item lists it.
  /// Buckets hold stable Entry pointers (entries_ is node-based), so
  /// the indexed path dereferences candidates without a hash lookup.
  std::unordered_map<HostId, std::unordered_map<ItemId, const Entry*>>
      dest_index_;
  /// Version index: one group per author, sorted by author; a group
  /// left with no live slot is erased. Contiguous vectors of stable
  /// Entry pointers, so a walk neither hashes an id nor chases tree
  /// nodes.
  std::vector<AuthorEntries> version_index_;
  std::size_t relay_count_ = 0;
  std::size_t evictable_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace pfrdtn::repl
