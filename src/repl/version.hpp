#pragma once

/// \file version.hpp
/// Versioning primitives for the replication substrate.
///
/// Every local create/update/delete at a replica consumes the next value
/// of that replica's update counter, so the pair (author, counter)
/// uniquely identifies one update event in the whole system. Knowledge
/// (see knowledge.hpp) is a set of such pairs, stored compactly as a
/// version vector plus per-replica "extras" that compact into the vector
/// as they become contiguous — the paper's "knowledge represented in a
/// compact form, as a version vector".
///
/// A Version additionally carries a per-item revision used only for
/// deterministic last-writer-wins dominance between versions of the
/// same item (the DTN workload never updates items concurrently, so
/// this never influences the reproduced experiments; see DESIGN.md).

#include <cstdint>
#include <map>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/ids.hpp"

namespace pfrdtn::repl {

/// One update event: the `counter`-th update authored by `author`, and
/// the `revision`-th revision of its item.
struct Version {
  ReplicaId author{};
  std::uint64_t counter = 0;  ///< >= 1 for real versions
  std::uint64_t revision = 1; ///< per-item, starts at 1

  [[nodiscard]] bool valid() const {
    return author.valid() && counter >= 1;
  }

  /// True if this version supersedes `other` for the same item
  /// (deterministic last-writer-wins: higher revision wins, author id
  /// breaks ties).
  [[nodiscard]] bool dominates(const Version& other) const {
    if (revision != other.revision) return revision > other.revision;
    return author > other.author;
  }

  [[nodiscard]] bool same_event(const Version& other) const {
    return author == other.author && counter == other.counter;
  }

  friend auto operator<=>(const Version&, const Version&) = default;

  void serialize(ByteWriter& w) const;
  static Version deserialize(ByteReader& r);
};

/// Classic version vector: maps each replica to the highest contiguous
/// counter known for it ("knows (r, c) for every 1 <= c <= vv[r]").
class VersionVector {
 public:
  [[nodiscard]] bool includes(ReplicaId author,
                              std::uint64_t counter) const {
    const auto it = max_.find(author);
    return it != max_.end() && counter <= it->second;
  }

  [[nodiscard]] std::uint64_t max_counter(ReplicaId author) const {
    const auto it = max_.find(author);
    return it == max_.end() ? 0 : it->second;
  }

  /// Raise this vector's entry for `author` to at least `counter`.
  void extend(ReplicaId author, std::uint64_t counter) {
    auto& entry = max_[author];
    if (counter > entry) entry = counter;
  }

  /// Pointwise maximum.
  void merge(const VersionVector& other) {
    for (const auto& [author, counter] : other.max_)
      extend(author, counter);
  }

  /// True if every entry of `other` is covered by this vector.
  [[nodiscard]] bool covers(const VersionVector& other) const;

  [[nodiscard]] std::size_t entry_count() const { return max_.size(); }
  [[nodiscard]] const std::map<ReplicaId, std::uint64_t>& entries() const {
    return max_;
  }

  friend bool operator==(const VersionVector&,
                         const VersionVector&) = default;

  void serialize(ByteWriter& w) const;
  static VersionVector deserialize(ByteReader& r);

 private:
  std::map<ReplicaId, std::uint64_t> max_;
};

/// A set of update events (author, counter), stored as a version vector
/// plus sparse extras. Extras compact into the vector prefix as gaps
/// fill (counters are per-replica and gap-free at the author, so a
/// contiguous prefix is exactly "every update authored so far").
///
/// An extra may be added *pinned*: pinned extras are full members of
/// the set but never fold into the vector prefix and block folding past
/// them, so they remain individually removable. Replicas pin the events
/// of relay (out-of-filter) item copies, which may be evicted later and
/// must then become re-receivable (see knowledge.hpp / DESIGN.md).
///
/// Layout: the extras live in one author-sorted vector of per-author
/// groups, each holding two ascending, duplicate-free counter vectors
/// (plain and pinned, disjoint). Membership is a binary search, a copy
/// is one allocation per author, and the codecs stream each group
/// without building an intermediate container (docs/knowledge.md).
class VersionSet {
 public:
  /// Record that the update event of `v` is a member. Pinned events
  /// stay removable (never compacted into the vector prefix).
  void add(ReplicaId author, std::uint64_t counter, bool pinned = false);
  void add(const Version& v, bool pinned = false) {
    add(v.author, v.counter, pinned);
  }

  /// Convert a pinned event into a normal one (e.g. a relay copy that
  /// now matches the replica's filter and can no longer be evicted).
  void unpin(ReplicaId author, std::uint64_t counter);

  /// Convert a normal extra back into a pinned one. No effect — and
  /// false returned — if the event was already folded into the vector
  /// prefix.
  bool pin(ReplicaId author, std::uint64_t counter);

  /// Record the complete prefix 1..max_counter for `author` (used for
  /// a replica's own authored events, which are known by construction).
  void add_prefix(ReplicaId author, std::uint64_t max_counter);

  [[nodiscard]] bool contains(ReplicaId author,
                              std::uint64_t counter) const;
  [[nodiscard]] bool contains(const Version& v) const {
    return contains(v.author, v.counter);
  }

  /// Remove an event, possible only while it is still an extra —
  /// pinned or not — and not yet folded into the vector prefix.
  /// Returns whether it was removed. Used when a relay copy is evicted
  /// so the copy can be re-received.
  bool remove_extra(ReplicaId author, std::uint64_t counter);

  /// True if the event is a member that remove_extra could still take
  /// out (an extra or a pinned extra, not folded into the prefix).
  [[nodiscard]] bool removable(ReplicaId author,
                               std::uint64_t counter) const;

  /// Union with another set.
  void merge(const VersionSet& other);

  /// True if every event in `other` is contained in this set.
  [[nodiscard]] bool contains_all(const VersionSet& other) const;

  [[nodiscard]] const VersionVector& vector_part() const { return vv_; }
  [[nodiscard]] std::size_t extras_count() const;
  [[nodiscard]] bool empty() const;

  /// Number of events representable only approximately: vector entries
  /// plus extras — the metadata footprint measured in benchmarks.
  [[nodiscard]] std::size_t weight() const {
    return vv_.entry_count() + extras_count();
  }

  /// Exact number of member events (whole vector prefixes plus extras).
  /// O(entries), not O(events) — safe to call on huge sets.
  [[nodiscard]] std::uint64_t event_count() const {
    std::uint64_t n = 0;
    for (const auto& [author, counter] : vv_.entries()) n += counter;
    return n + extras_count();
  }

  /// Visit every member event as (author, counter). O(event_count()):
  /// callers must bound the set first (see SummaryParams) — this
  /// enumerates whole vector prefixes.
  template <typename Fn>
  void for_each_event(Fn&& fn) const {
    for (const auto& [author, counter] : vv_.entries()) {
      for (std::uint64_t c = 1; c <= counter; ++c) fn(author, c);
    }
    for (const Exceptions& group : exceptions_) {
      for (const std::uint64_t c : group.extras) fn(group.author, c);
      for (const std::uint64_t c : group.pinned) fn(group.author, c);
    }
  }

  friend bool operator==(const VersionSet&, const VersionSet&) = default;

  void serialize(ByteWriter& w) const;
  static VersionSet deserialize(ByteReader& r);

  /// Structure-preserving codec for checkpoints (src/persist/). The
  /// wire codec above deliberately erases pinned-ness and refolds
  /// extras on decode — fine between replicas, but a recovered replica
  /// must get back the *same* structure or its evictable relay copies
  /// would no longer be forgettable (can_forget) after a restart.
  /// deserialize_exact validates the structural invariants (ascending
  /// counters, extras strictly above the vector prefix, extras and
  /// pinned disjoint) and throws ContractViolation on anything else,
  /// so a corrupt checkpoint is rejected rather than loaded.
  void serialize_exact(ByteWriter& w) const;
  static VersionSet deserialize_exact(ByteReader& r);

 private:
  /// One author's events outside the vector prefix. Both vectors are
  /// ascending and duplicate-free, and no counter is in both; a group
  /// with both empty is erased, so equal sets compare equal.
  struct Exceptions {
    ReplicaId author;
    std::vector<std::uint64_t> extras;
    std::vector<std::uint64_t> pinned;

    friend bool operator==(const Exceptions&,
                           const Exceptions&) = default;
  };
  using Groups = std::vector<Exceptions>;

  /// The author's group, inserted in author order when absent.
  Groups::iterator group_of(ReplicaId author);
  /// Fold the group's plain extras into the vector prefix where they
  /// have become contiguous and drop those the prefix already covers;
  /// erases the group if that empties it.
  void compact(Groups::iterator group);

  VersionVector vv_;
  /// Sorted by author.
  Groups exceptions_;
};

}  // namespace pfrdtn::repl
