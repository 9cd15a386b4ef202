#include "repl/knowledge.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace pfrdtn::repl {

bool Knowledge::knows(const Item& item, const Version& v) const {
  if (universal_.contains(v.author, v.counter)) return true;
  return std::any_of(fragments_.begin(), fragments_.end(),
                     [&](const Fragment& fragment) {
                       return fragment.versions.contains(v.author,
                                                         v.counter) &&
                              fragment.scope.matches(item);
                     });
}

void Knowledge::drop_fragments_matching(const Item& item) {
  const std::size_t dropped =
      std::erase_if(fragments_, [&](const Fragment& fragment) {
        return fragment.scope.matches(item);
      });
  if (dropped > 0) touch();
}

void Knowledge::add_fragment(const Filter& scope,
                             const VersionSet& versions) {
  // Anything the universal set already covers adds nothing. (This is
  // also what keeps the caches warm across converged syncs: re-learning
  // knowledge we already hold must not bump the revision.)
  if (scope.provably_empty() || covers(versions)) return;
  for (auto& existing : fragments_) {
    if (existing.scope.equals(scope)) {
      if (existing.versions.contains_all(versions)) return;
      existing.versions.merge(versions);
      touch();
      return;
    }
    // Subsumed by a wider, richer fragment: drop the new one.
    if (existing.scope.subsumes(scope) &&
        existing.versions.contains_all(versions)) {
      return;
    }
  }
  // Drop existing fragments the new one strictly covers.
  std::erase_if(fragments_, [&](const Fragment& existing) {
    return scope.subsumes(existing.scope) &&
           versions.contains_all(existing.versions);
  });
  fragments_.push_back(Fragment{scope, versions});
  enforce_fragment_cap();
  touch();
}

void Knowledge::enforce_fragment_cap() {
  if (fragments_.size() <= kMaxFragments) return;
  // Forget the lightest fragments first; forgetting is always safe.
  std::sort(fragments_.begin(), fragments_.end(),
            [](const Fragment& a, const Fragment& b) {
              return a.versions.weight() > b.versions.weight();
            });
  fragments_.resize(kMaxFragments);
}

void Knowledge::merge_scoped(const Knowledge& other, const Filter& scope) {
  if (scope.provably_empty()) return;
  add_fragment(scope, other.universal_);
  for (const Fragment& fragment : other.fragments_) {
    // A claim the universal set covers needs no narrowed scope.
    if (covers(fragment.versions)) continue;
    add_fragment(scope.intersect(fragment.scope), fragment.versions);
  }
}

std::size_t Knowledge::weight() const {
  std::size_t total = universal_.weight();
  for (const Fragment& fragment : fragments_)
    total += fragment.versions.weight();
  return total;
}

const std::vector<std::uint8_t>& Knowledge::wire() const {
  if (wire_.revision != revision_) {
    ByteWriter w;
    universal_.serialize(w);
    w.uvarint(fragments_.size());
    for (const Fragment& fragment : fragments_) {
      fragment.scope.serialize(w);
      fragment.versions.serialize(w);
    }
    wire_.bytes = w.take();
    wire_.digest.reset();
    wire_.revision = revision_;
  }
  return wire_.bytes;
}

std::uint64_t Knowledge::wire_digest() const {
  const std::vector<std::uint8_t>& bytes = wire();
  if (!wire_.digest) wire_.digest = fnv1a64(bytes);
  return *wire_.digest;
}

std::uint64_t Knowledge::event_count() const {
  std::uint64_t total = universal_.event_count();
  for (const Fragment& fragment : fragments_)
    total += fragment.versions.event_count();
  return total;
}

Knowledge Knowledge::deserialize(ByteReader& r) {
  Knowledge k;
  k.universal_ = VersionSet::deserialize(r);
  const std::uint64_t n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) {
    r.charge_elements();
    const Filter scope = Filter::deserialize(r);
    const VersionSet versions = VersionSet::deserialize(r);
    k.add_fragment(scope, versions);
  }
  return k;
}

void Knowledge::serialize_exact(ByteWriter& w) const {
  universal_.serialize_exact(w);
  w.uvarint(fragments_.size());
  for (const Fragment& fragment : fragments_) {
    fragment.scope.serialize(w);
    fragment.versions.serialize_exact(w);
  }
}

Knowledge Knowledge::deserialize_exact(ByteReader& r) {
  Knowledge k;
  k.universal_ = VersionSet::deserialize_exact(r);
  const std::uint64_t n = r.uvarint();
  PFRDTN_REQUIRE(n <= kMaxFragments);
  k.fragments_.reserve(n);
  // Fragments are restored verbatim, bypassing add_fragment()'s
  // dedup/subsumption so the recovered vector matches the snapshotted
  // one element for element.
  for (std::uint64_t i = 0; i < n; ++i) {
    Filter scope = Filter::deserialize(r);
    VersionSet versions = VersionSet::deserialize_exact(r);
    k.fragments_.push_back(
        Fragment{std::move(scope), std::move(versions)});
  }
  return k;
}

}  // namespace pfrdtn::repl
