#include "repl/store.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace pfrdtn::repl {

ItemStore::ItemStore(const ItemStore& other)
    : config_(other.config_),
      entries_(other.entries_),
      next_seq_(other.next_seq_) {
  for (auto& [id, entry] : entries_)
    order_.emplace(entry.arrival_seq, &entry);
  for (const auto& [seq, entry] : order_) index(*entry);
}

ItemStore& ItemStore::operator=(const ItemStore& other) {
  if (this != &other) *this = ItemStore(other);
  return *this;
}

namespace {

template <typename Groups>
auto lower_bound_author(Groups& groups, ReplicaId author) {
  return std::lower_bound(
      groups.begin(), groups.end(), author,
      [](const auto& group, ReplicaId a) { return group.author < a; });
}

/// Orders a version-index slot against a bare counter, either way.
struct ByCounter {
  template <typename Slot>
  bool operator()(const Slot& slot, std::uint64_t counter) const {
    return slot.first < counter;
  }
  template <typename Slot>
  bool operator()(std::uint64_t counter, const Slot& slot) const {
    return counter < slot.first;
  }
};

}  // namespace

void ItemStore::index_flags(const Entry& entry) {
  if (!entry.in_filter) ++relay_count_;
  if (entry.evictable())
    evictable_order_.emplace(entry.arrival_seq, entry.item.id());
  evictable_count_ = evictable_order_.size();
}

void ItemStore::unindex_flags(const Entry& entry) {
  if (!entry.in_filter) --relay_count_;
  if (entry.evictable()) evictable_order_.erase(entry.arrival_seq);
  evictable_count_ = evictable_order_.size();
}

void ItemStore::index(Entry& entry) {
  index_flags(entry);
  for (const HostId dest : entry.item.dest_addresses())
    dest_index_[dest].emplace(entry.item.id(), &entry);

  const Version& version = entry.item.version();
  auto group = lower_bound_author(version_index_, version.author);
  if (group == version_index_.end() || group->author != version.author)
    group = version_index_.insert(group, AuthorEntries{version.author, {}, 0});
  auto& by_counter = group->by_counter;
  // An author's next counter, the common arrival, appends unsearched.
  const auto at =
      by_counter.empty() || by_counter.back().first <= version.counter
          ? by_counter.end()
          : std::upper_bound(by_counter.begin(), by_counter.end(),
                             version.counter, ByCounter{});
  by_counter.emplace(at, version.counter, &entry);
}

void ItemStore::unindex(const Entry& entry) {
  unindex_flags(entry);
  for (const HostId dest : entry.item.dest_addresses()) {
    const auto bucket = dest_index_.find(dest);
    PFRDTN_ENSURE(bucket != dest_index_.end());
    bucket->second.erase(entry.item.id());
    if (bucket->second.empty()) dest_index_.erase(bucket);
  }

  const Version& version = entry.item.version();
  const auto group = lower_bound_author(version_index_, version.author);
  PFRDTN_ENSURE(group != version_index_.end() &&
                group->author == version.author);
  auto& by_counter = group->by_counter;
  auto slot = std::lower_bound(by_counter.begin(), by_counter.end(),
                               version.counter, ByCounter{});
  while (slot != by_counter.end() && slot->second != &entry) ++slot;
  PFRDTN_ENSURE(slot != by_counter.end() &&
                slot->first == version.counter);
  slot->second = nullptr;
  if (2 * ++group->removed > by_counter.size()) {
    std::erase_if(by_counter,
                  [](const auto& dead) { return dead.second == nullptr; });
    group->removed = 0;
    if (by_counter.empty()) version_index_.erase(group);
  }
}

std::vector<Item> ItemStore::put(Item item, bool in_filter,
                                 bool local_origin) {
  const ItemId id = item.id();
  auto& entry = entries_[id];
  if (entry.item.id().valid()) {
    unindex(entry);
    order_.erase(entry.arrival_seq);
  }
  entry.item = std::move(item);
  entry.in_filter = in_filter;
  entry.local_origin = entry.local_origin || local_origin;
  entry.arrival_seq = next_seq_++;
  order_.emplace(entry.arrival_seq, &entry);
  index(entry);
  return enforce_capacity();
}

const ItemStore::Entry* ItemStore::find(ItemId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

bool ItemStore::remove(ItemId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  unindex(it->second);
  order_.erase(it->second.arrival_seq);
  entries_.erase(it);
  return true;
}

void ItemStore::supersede(ItemId id, Item::PayloadPtr payload,
                          bool in_filter, bool make_local_origin) {
  const auto it = entries_.find(id);
  PFRDTN_REQUIRE(it != entries_.end());
  Entry& entry = it->second;
  unindex(entry);
  entry.item.adopt_payload(std::move(payload));
  entry.in_filter = in_filter;
  entry.local_origin = entry.local_origin || make_local_origin;
  index(entry);
}

std::optional<TransientView> ItemStore::transient_mutable(ItemId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return TransientView(it->second.item);
}

bool ItemStore::replace_transients(
    ItemId id, std::map<std::string, std::string> all) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  it->second.item.replace_transients(std::move(all));
  return true;
}

std::vector<Item> ItemStore::refilter(
    const std::function<bool(const Item&)>& matches,
    std::vector<Item>& evicted) {
  // Iterate via order_, not entries_: the output order is part of the
  // API (newly matching items surface as deliveries), and hash-map
  // order would diverge between identically-seeded replicas.
  std::vector<Item> newly_matching;
  for (const auto& [seq, stored] : order_) {
    Entry& entry = *stored;
    const bool now = matches(entry.item);
    if (now == entry.in_filter) continue;
    unindex_flags(entry);
    entry.in_filter = now;
    index_flags(entry);
    if (now) newly_matching.push_back(entry.item);
  }
  auto victims = enforce_capacity();
  evicted.insert(evicted.end(), victims.begin(), victims.end());
  return newly_matching;
}

std::vector<Item> ItemStore::enforce_capacity() {
  std::vector<Item> victims;
  if (!config_.relay_capacity) return victims;
  while (evictable_count_ > *config_.relay_capacity) {
    const auto victim_it = evictable_order_.begin();
    PFRDTN_ENSURE(victim_it != evictable_order_.end());
    const ItemId id = victim_it->second;
    victims.push_back(entries_.at(id).item);
    remove(id);
  }
  return victims;
}

void ItemStore::for_each(
    const std::function<void(const Entry&)>& fn) const {
  for (const auto& [seq, entry] : order_) fn(*entry);
}

void ItemStore::for_each_outside(
    const VersionSet& known,
    const std::function<void(const Entry&, TransientView)>& fn) {
  std::vector<Entry*> outside;
  for (const AuthorEntries& group : version_index_) {
    VersionSet::AuthorCounters members = known.counters_of(group.author);
    auto slot = group.by_counter.begin();
    const auto end = group.by_counter.end();
    // Counter 0 names no event (Version::valid), and whether the set
    // holds it depends on more than the prefix: ask the set.
    for (; slot != end && slot->first == 0; ++slot) {
      if (slot->second != nullptr && !known.contains(group.author, 0))
        outside.push_back(slot->second);
    }
    // One binary search skips the known prefix (no prefix + 1 is ever
    // formed, so a hostile prefix of 2^64 - 1 cannot wrap)...
    slot = std::upper_bound(slot, end, members.prefix, ByCounter{});
    // ...and one merge pass skips the known extras and pinned counters.
    for (; slot != end; ++slot) {
      if (slot->second != nullptr && !members.seek(slot->first))
        outside.push_back(slot->second);
    }
  }
  std::sort(outside.begin(), outside.end(),
            [](const Entry* a, const Entry* b) {
              return a->arrival_seq < b->arrival_seq;
            });
  for (Entry* entry : outside) fn(*entry, TransientView(entry->item));
}

bool ItemStore::for_filter_matches(
    const Filter& filter,
    const std::function<bool(const Entry&)>& fn) const {
  if (filter.provably_empty()) return true;  // nothing can match
  if (filter.is_address_filter()) {
    const std::set<HostId> addrs = filter.address_set();
    // An item addressed to several filter addresses sits in several
    // buckets; dedup only when that is possible.
    if (addrs.size() == 1) {
      const auto bucket = dest_index_.find(*addrs.begin());
      if (bucket == dest_index_.end()) return true;
      for (const auto& [id, entry] : bucket->second) {
        if (!fn(*entry)) return true;
      }
      return true;
    }
    std::unordered_set<std::uint64_t> seen;
    for (const HostId addr : addrs) {
      const auto bucket = dest_index_.find(addr);
      if (bucket == dest_index_.end()) continue;
      for (const auto& [id, entry] : bucket->second) {
        if (!seen.insert(id.value()).second) continue;
        if (!fn(*entry)) return true;
      }
    }
    return true;
  }
  // General filters: arrival-order scan with per-entry evaluation.
  for (const auto& [seq, entry] : order_) {
    if (filter.matches(entry->item) && !fn(*entry)) break;
  }
  return false;
}

void ItemStore::restore_entry(Item item, bool in_filter,
                              bool local_origin,
                              std::uint64_t arrival_seq) {
  const ItemId id = item.id();
  PFRDTN_REQUIRE(id.valid());
  PFRDTN_REQUIRE(entries_.count(id) == 0);
  PFRDTN_REQUIRE(order_.count(arrival_seq) == 0);
  auto& entry = entries_[id];
  entry.item = std::move(item);
  entry.in_filter = in_filter;
  entry.local_origin = local_origin;
  entry.arrival_seq = arrival_seq;
  order_.emplace(arrival_seq, &entry);
  index(entry);
  if (next_seq_ <= arrival_seq) next_seq_ = arrival_seq + 1;
}

void ItemStore::set_next_arrival_seq(std::uint64_t seq) {
  PFRDTN_REQUIRE(seq >= next_seq_);
  next_seq_ = seq;
}

void ItemStore::set_in_filter_for_test(ItemId id, bool in_filter) {
  const auto it = entries_.find(id);
  PFRDTN_REQUIRE(it != entries_.end());
  Entry& entry = it->second;
  if (entry.in_filter == in_filter) return;
  unindex_flags(entry);
  entry.in_filter = in_filter;
  index_flags(entry);
}

}  // namespace pfrdtn::repl
