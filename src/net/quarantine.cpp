#include "net/quarantine.hpp"

#include <algorithm>

#include "util/backoff.hpp"

namespace pfrdtn::net {

void QuarantineTable::decay(Entry& entry, std::uint64_t now_ms) {
  if (entry.ejections == 0 || now_ms <= entry.decay_from_ms) return;
  const std::uint64_t steps =
      (now_ms - entry.decay_from_ms) / kEjectionDecayMs;
  const std::size_t forgiven =
      std::min<std::uint64_t>(steps, entry.ejections);
  entry.ejections -= forgiven;
  entry.decay_from_ms +=
      static_cast<std::uint64_t>(forgiven) * kEjectionDecayMs;
}

AdmitDecision QuarantineTable::admit(const std::string& peer,
                                     std::uint64_t now_ms) {
  AdmitDecision decision;
  const auto it = entries_.find(peer);
  if (it == entries_.end()) return decision;
  Entry& entry = it->second;
  decay(entry, now_ms);
  decision.strikes = entry.ejections;
  if (now_ms >= entry.until_ms) {
    // Window elapsed: admit. The ejection count persists (decaying
    // with quiet time) so a repeat offender escalates instead of
    // starting over.
    decision.rejections = entry.rejections;
    if (forgiven(entry, now_ms)) entries_.erase(it);
    return decision;
  }
  entry.rejections += 1;
  total_rejections_ += 1;
  decision.rejected = true;
  decision.retry_after_ms = entry.until_ms - now_ms;
  decision.rejections = entry.rejections;
  return decision;
}

std::uint64_t QuarantineTable::punish(const std::string& peer,
                                      std::uint64_t now_ms) {
  Entry& entry = entries_[peer];
  decay(entry, now_ms);
  entry.ejections += 1;
  // An active offender earns no quiet-time forgiveness.
  entry.decay_from_ms = now_ms;
  // min(base << (ejections-1), max), without shifting past 63 bits.
  const std::size_t doublings =
      std::min<std::size_t>(entry.ejections - 1, 40);
  std::uint64_t window = options_.base_backoff_ms;
  for (std::size_t i = 0;
       i < doublings && window < options_.max_backoff_ms; ++i) {
    window *= 2;
  }
  window = std::min(window, options_.max_backoff_ms);
  // Jitter in [window/2, window] de-synchronizes retry storms from
  // many peers punished at once.
  window = jittered_delay_ms(window, jitter_);
  entry.until_ms = now_ms + window;
  return window;
}

void QuarantineTable::reward(const std::string& peer,
                             std::uint64_t now_ms) {
  const auto it = entries_.find(peer);
  if (it == entries_.end()) return;  // clean peers stay off the books
  decay(it->second, now_ms);
  if (forgiven(it->second, now_ms)) entries_.erase(it);
}

std::size_t QuarantineTable::strikes(const std::string& peer) const {
  const auto it = entries_.find(peer);
  return it == entries_.end() ? 0 : it->second.ejections;
}

}  // namespace pfrdtn::net
