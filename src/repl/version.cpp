#include "repl/version.hpp"

#include <algorithm>
#include <iterator>

namespace pfrdtn::repl {

void Version::serialize(ByteWriter& w) const {
  w.uvarint(author.value());
  w.uvarint(counter);
  w.uvarint(revision);
}

Version Version::deserialize(ByteReader& r) {
  Version v;
  v.author = ReplicaId(r.uvarint());
  v.counter = r.uvarint();
  v.revision = r.uvarint();
  return v;
}

bool VersionVector::covers(const VersionVector& other) const {
  for (const auto& [author, counter] : other.max_) {
    if (max_counter(author) < counter) return false;
  }
  return true;
}

void VersionVector::serialize(ByteWriter& w) const {
  w.uvarint(max_.size());
  for (const auto& [author, counter] : max_) {
    w.uvarint(author.value());
    w.uvarint(counter);
  }
}

VersionVector VersionVector::deserialize(ByteReader& r) {
  VersionVector vv;
  const std::uint64_t n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) {
    r.charge_elements();
    const ReplicaId author(r.uvarint());
    vv.extend(author, r.uvarint());
  }
  return vv;
}

namespace {

using Counters = std::vector<std::uint64_t>;

bool has(const Counters& counters, std::uint64_t counter) {
  return std::binary_search(counters.begin(), counters.end(), counter);
}

/// Insert keeping `counters` ascending; a new maximum is appended
/// without a search.
void insert_sorted(Counters& counters, std::uint64_t counter) {
  if (counters.empty() || counters.back() < counter) {
    counters.push_back(counter);
    return;
  }
  const auto it =
      std::lower_bound(counters.begin(), counters.end(), counter);
  if (*it != counter) counters.insert(it, counter);
}

bool erase_sorted(Counters& counters, std::uint64_t counter) {
  const auto it =
      std::lower_bound(counters.begin(), counters.end(), counter);
  if (it == counters.end() || *it != counter) return false;
  counters.erase(it);
  return true;
}

/// Append `counters` as a delta-encoded ascending run.
void write_deltas(ByteWriter& w, const Counters& counters) {
  w.uvarint(counters.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t counter : counters) {
    w.uvarint(counter - prev);
    prev = counter;
  }
}

template <typename Groups>
auto lower_bound_author(Groups& groups, ReplicaId author) {
  return std::lower_bound(
      groups.begin(), groups.end(), author,
      [](const auto& group, ReplicaId a) { return group.author < a; });
}

/// The author's group, or groups.end().
template <typename Groups>
auto find_author(Groups& groups, ReplicaId author) {
  const auto it = lower_bound_author(groups, author);
  return it != groups.end() && it->author == author ? it : groups.end();
}

}  // namespace

VersionSet::Groups::iterator VersionSet::group_of(ReplicaId author) {
  const auto it = lower_bound_author(exceptions_, author);
  if (it != exceptions_.end() && it->author == author) return it;
  return exceptions_.insert(it, Exceptions{author, {}, {}});
}

void VersionSet::add(ReplicaId author, std::uint64_t counter,
                     bool pinned) {
  PFRDTN_REQUIRE(counter >= 1);
  if (contains(author, counter)) return;
  if (pinned) {
    insert_sorted(group_of(author)->pinned, counter);
    return;
  }
  // The in-order common case: nothing pending, so the event extends
  // the prefix in place.
  if (counter == vv_.max_counter(author) + 1) {
    const auto group = find_author(exceptions_, author);
    if (group == exceptions_.end() || group->extras.empty()) {
      vv_.extend(author, counter);
      return;
    }
  }
  const auto group = group_of(author);
  insert_sorted(group->extras, counter);
  compact(group);
}

void VersionSet::unpin(ReplicaId author, std::uint64_t counter) {
  const auto it = find_author(exceptions_, author);
  if (it == exceptions_.end() || !erase_sorted(it->pinned, counter))
    return;
  if (!vv_.includes(author, counter)) insert_sorted(it->extras, counter);
  compact(it);
}

void VersionSet::add_prefix(ReplicaId author, std::uint64_t max_counter) {
  if (max_counter == 0) return;
  vv_.extend(author, max_counter);
  const auto it = find_author(exceptions_, author);
  if (it == exceptions_.end()) return;
  // Absorb extras (and release pinned ones) now inside the prefix.
  Counters& pinned = it->pinned;
  pinned.erase(pinned.begin(),
               std::upper_bound(pinned.begin(), pinned.end(), max_counter));
  compact(it);
}

bool VersionSet::pin(ReplicaId author, std::uint64_t counter) {
  const auto it = find_author(exceptions_, author);
  if (it == exceptions_.end()) return false;
  if (has(it->pinned, counter)) return true;  // already pinned
  if (!erase_sorted(it->extras, counter))
    return false;  // folded into the prefix (or absent): cannot pin
  insert_sorted(it->pinned, counter);
  return true;
}

void VersionSet::compact(Groups::iterator group) {
  Counters& extras = group->extras;
  // Skip extras that fell inside the prefix (possible after merge()),
  // then fold the contiguous run above it. A pinned event would block
  // the run, but plain and pinned extras are disjoint, so a run of
  // plain extras never passes one.
  const std::uint64_t prefix = vv_.max_counter(group->author);
  auto done = std::upper_bound(extras.begin(), extras.end(), prefix);
  if (done != extras.end() && *done == prefix + 1) {
    std::uint64_t last = *done;
    while (++done != extras.end() && *done == last + 1) ++last;
    vv_.extend(group->author, last);
  }
  extras.erase(extras.begin(), done);
  if (extras.empty() && group->pinned.empty()) exceptions_.erase(group);
}

bool VersionSet::contains(ReplicaId author, std::uint64_t counter) const {
  return vv_.includes(author, counter) || removable(author, counter);
}

bool VersionSet::removable(ReplicaId author,
                           std::uint64_t counter) const {
  const auto group = find_author(exceptions_, author);
  return group != exceptions_.end() &&
         (has(group->extras, counter) || has(group->pinned, counter));
}

bool VersionSet::remove_extra(ReplicaId author, std::uint64_t counter) {
  const auto it = find_author(exceptions_, author);
  if (it == exceptions_.end()) return false;
  if (!erase_sorted(it->pinned, counter) &&
      !erase_sorted(it->extras, counter)) {
    return false;
  }
  if (it->extras.empty() && it->pinned.empty()) exceptions_.erase(it);
  return true;
}

void VersionSet::merge(const VersionSet& other) {
  vv_.merge(other.vv_);
  // One pass over both author-sorted group lists. Claims merged from a
  // peer are unpinned: pinning is a local storage concern of the
  // replica that holds the evictable copy. A claim joins the plain
  // extras unless the (merged) prefix or a local pin already holds it.
  Groups merged;
  merged.reserve(exceptions_.size() + other.exceptions_.size());
  auto mine = exceptions_.begin();
  Counters claims;
  for (const Exceptions& theirs : other.exceptions_) {
    while (mine != exceptions_.end() && mine->author < theirs.author)
      merged.push_back(std::move(*mine++));
    Exceptions group{theirs.author, {}, {}};
    if (mine != exceptions_.end() && mine->author == theirs.author)
      group = std::move(*mine++);
    claims.clear();
    std::merge(theirs.extras.begin(), theirs.extras.end(),
               theirs.pinned.begin(), theirs.pinned.end(),
               std::back_inserter(claims));
    const std::uint64_t prefix = vv_.max_counter(group.author);
    std::erase_if(claims, [&](std::uint64_t c) {
      return c <= prefix || has(group.pinned, c);
    });
    Counters extras;
    extras.reserve(group.extras.size() + claims.size());
    std::set_union(group.extras.begin(), group.extras.end(),
                   claims.begin(), claims.end(),
                   std::back_inserter(extras));
    group.extras = std::move(extras);
    if (!group.extras.empty() || !group.pinned.empty())
      merged.push_back(std::move(group));
  }
  std::move(mine, exceptions_.end(), std::back_inserter(merged));
  exceptions_ = std::move(merged);
  // Merging the vectors may have absorbed or unblocked pre-existing
  // extras. compact() erases emptied groups, so walk from the back.
  for (auto i = exceptions_.size(); i-- > 0;) {
    if (!exceptions_[i].extras.empty())
      compact(exceptions_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

bool VersionSet::contains_all(const VersionSet& other) const {
  if (!vv_.covers(other.vv_)) {
    // The vector part of `other` might still be covered via extras;
    // check entry by entry (counters are dense from 1).
    for (const auto& [author, counter] : other.vv_.entries()) {
      for (std::uint64_t c = vv_.max_counter(author) + 1; c <= counter;
           ++c) {
        if (!contains(author, c)) return false;
      }
    }
  }
  for (const Exceptions& theirs : other.exceptions_) {
    // Stored counters are >= 1, so "inside the prefix" is c <= prefix.
    const std::uint64_t prefix = vv_.max_counter(theirs.author);
    const auto mine = find_author(exceptions_, theirs.author);
    const auto known = [&](std::uint64_t c) {
      return c <= prefix ||
             (mine != exceptions_.end() &&
              (has(mine->extras, c) || has(mine->pinned, c)));
    };
    if (!std::all_of(theirs.extras.begin(), theirs.extras.end(), known) ||
        !std::all_of(theirs.pinned.begin(), theirs.pinned.end(), known)) {
      return false;
    }
  }
  return true;
}

std::size_t VersionSet::extras_count() const {
  std::size_t n = 0;
  for (const Exceptions& group : exceptions_)
    n += group.extras.size() + group.pinned.size();
  return n;
}

bool VersionSet::empty() const {
  return vv_.entry_count() == 0 && exceptions_.empty();
}

void VersionSet::serialize(ByteWriter& w) const {
  // Pinned-ness is local; on the wire both kinds are plain extras, one
  // ascending run per author streamed as a merge of the two (disjoint)
  // vectors.
  vv_.serialize(w);
  w.uvarint(exceptions_.size());
  for (const Exceptions& group : exceptions_) {
    w.uvarint(group.author.value());
    w.uvarint(group.extras.size() + group.pinned.size());
    std::uint64_t prev = 0;
    auto extra = group.extras.begin();
    auto pinned = group.pinned.begin();
    while (extra != group.extras.end() || pinned != group.pinned.end()) {
      const bool take_extra =
          pinned == group.pinned.end() ||
          (extra != group.extras.end() && *extra < *pinned);
      const std::uint64_t counter = take_extra ? *extra++ : *pinned++;
      w.uvarint(counter - prev);  // delta-encoded, counters ascending
      prev = counter;
    }
  }
}

VersionSet VersionSet::deserialize(ByteReader& r) {
  VersionSet vs;
  vs.vv_ = VersionVector::deserialize(r);
  // Groups are read as sent — an honest peer sends one ascending group
  // per author, in author order — and canonicalized afterwards, so a
  // hostile encoding (wrapping or repeated counters, descending or
  // repeated authors) costs one sort, O(n log n), never a sorted
  // insert per counter.
  struct Run {
    ReplicaId author;
    Counters counters;
    bool ascending = true;  // strictly, with no wrap-around
    bool has_zero = false;
    bool has_one = false;
  };
  std::vector<Run> runs;
  bool authors_ascending = true;
  const std::uint64_t groups = r.uvarint();
  for (std::uint64_t g = 0; g < groups; ++g) {
    r.charge_elements();
    Run run{ReplicaId(r.uvarint()), {}};
    const std::uint64_t n = r.uvarint();
    // Every delta takes at least one byte: never trust `n` further.
    run.counters.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(n, r.remaining())));
    std::uint64_t counter = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      r.charge_elements();
      const std::uint64_t delta = r.uvarint();
      run.ascending = run.ascending && delta >= 1 &&
                      counter <= ~std::uint64_t{0} - delta;
      counter += delta;  // a hostile run may wrap; sorted out below
      run.has_zero = run.has_zero || counter == 0;
      run.has_one = run.has_one || counter == 1;
      run.counters.push_back(counter);
    }
    authors_ascending = authors_ascending &&
                        (runs.empty() || runs.back().author < run.author);
    runs.push_back(std::move(run));
  }
  if (!authors_ascending) {
    std::stable_sort(runs.begin(), runs.end(),
                     [](const Run& a, const Run& b) {
                       return a.author < b.author;
                     });
  }
  for (auto first = runs.begin(); first != runs.end();) {
    const ReplicaId author = first->author;
    Counters counters = std::move(first->counters);
    bool sorted = first->ascending;
    // The codec compacts per group: a zero counter, kept only for an
    // author absent from the vector, sits below the prefix and stops
    // its group's fold. So an absent author folds only once a zero-free
    // group ends with counter 1 seen; anything else folds as usual.
    bool may_fold = vs.vv_.includes(author, 0);
    bool seen_one = false;
    auto last = first;
    do {
      if (last != first) {
        counters.insert(counters.end(), last->counters.begin(),
                        last->counters.end());
        sorted = false;
      }
      seen_one = seen_one || last->has_one;
      may_fold = may_fold || (seen_one && !last->has_zero);
    } while (++last != runs.end() && last->author == author);
    first = last;
    if (!sorted) {
      std::sort(counters.begin(), counters.end());
      counters.erase(std::unique(counters.begin(), counters.end()),
                     counters.end());
    }
    counters.erase(counters.begin(),
                   std::upper_bound(counters.begin(), counters.end(),
                                    vs.vv_.max_counter(author)));
    if (counters.empty()) continue;
    vs.exceptions_.push_back(Exceptions{author, std::move(counters), {}});
    if (may_fold) vs.compact(std::prev(vs.exceptions_.end()));
  }
  return vs;
}

void VersionSet::serialize_exact(ByteWriter& w) const {
  vv_.serialize(w);
  for (Counters Exceptions::*part :
       {&Exceptions::extras, &Exceptions::pinned}) {
    const auto present = [&](const Exceptions& group) {
      return !(group.*part).empty();
    };
    w.uvarint(static_cast<std::uint64_t>(
        std::count_if(exceptions_.begin(), exceptions_.end(), present)));
    for (const Exceptions& group : exceptions_) {
      if (!present(group)) continue;
      w.uvarint(group.author.value());
      write_deltas(w, group.*part);
    }
  }
}

VersionSet VersionSet::deserialize_exact(ByteReader& r) {
  VersionSet vs;
  vs.vv_ = VersionVector::deserialize(r);
  // The plain groups, then the pinned groups: every counter strictly
  // ascending and strictly above the prefix, no author twice per part.
  for (Counters Exceptions::*part :
       {&Exceptions::extras, &Exceptions::pinned}) {
    const std::uint64_t groups = r.uvarint();
    for (std::uint64_t g = 0; g < groups; ++g) {
      const ReplicaId author(r.uvarint());
      PFRDTN_REQUIRE(author.valid());
      const auto group = vs.group_of(author);
      Counters& counters = (*group).*part;
      PFRDTN_REQUIRE(counters.empty());
      const std::uint64_t n = r.uvarint();
      PFRDTN_REQUIRE(n <= r.remaining());  // each delta needs >= 1 byte
      counters.reserve(static_cast<std::size_t>(n));
      const std::uint64_t prefix = vs.vv_.max_counter(author);
      std::uint64_t counter = 0;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t delta = r.uvarint();
        PFRDTN_REQUIRE(delta >= 1);  // strictly ascending, >= 1
        PFRDTN_REQUIRE(counter <= ~std::uint64_t{0} - delta);
        counter += delta;
        PFRDTN_REQUIRE(counter > prefix);
        counters.push_back(counter);
      }
      if (group->extras.empty() && group->pinned.empty())
        vs.exceptions_.erase(group);
    }
  }
  // Extras and pinned must be disjoint, and the smallest unpinned
  // extra must not sit directly on the prefix (compact() would have
  // folded it) — a decoded set violating either is not one this code
  // ever wrote.
  for (const Exceptions& group : vs.exceptions_) {
    if (group.extras.empty()) continue;
    PFRDTN_REQUIRE(group.extras.front() !=
                   vs.vv_.max_counter(group.author) + 1);
    for (const std::uint64_t counter : group.extras)
      PFRDTN_REQUIRE(!has(group.pinned, counter));
  }
  return vs;
}

}  // namespace pfrdtn::repl
