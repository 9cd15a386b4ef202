#include "dtn/messaging.hpp"

#include "util/require.hpp"

namespace pfrdtn::dtn {

void DtnNode::set_policy(PolicyPtr policy) {
  policy_ = std::move(policy);
  if (policy_) {
    policy_->bind(&replica_);
    policy_->set_hosted(hosted_, SimTime(0));
  }
}

repl::Filter DtnNode::make_filter() const {
  std::set<HostId> all = hosted_;
  all.insert(extra_.begin(), extra_.end());
  return repl::Filter::addresses(std::move(all));
}

std::vector<Message> DtnNode::set_addresses(std::set<HostId> hosted,
                                            std::set<HostId> extra,
                                            SimTime now) {
  hosted_ = std::move(hosted);
  extra_ = std::move(extra);
  if (policy_) policy_->set_hosted(hosted_, now);
  replica_.set_filter(make_filter());
  // A reassignment can turn already-stored items (relay copies, or
  // in-filter copies held for an extra address) into deliveries.
  std::vector<Message> delivered;
  replica_.store().for_each([&](const repl::ItemStore::Entry& entry) {
    try_deliver(entry.item, now, delivered);
  });
  return delivered;
}

MessageId DtnNode::send(HostId from, std::vector<HostId> to,
                        std::string body, SimTime now) {
  PFRDTN_REQUIRE(!to.empty());
  const auto& item = replica_.create(
      message_metadata(from, to, now),
      std::vector<std::uint8_t>(body.begin(), body.end()));
  // A message addressed to one of our own users is delivered
  // immediately (degenerate but legal).
  std::vector<Message> self_delivered;
  try_deliver(item, now, self_delivered);
  return item.id();
}

bool DtnNode::try_deliver(const repl::Item& item, SimTime now,
                          std::vector<Message>& out) {
  if (item.deleted()) return false;
  auto message = Message::from_item(item);
  if (!message) return false;
  bool addressed_here = false;
  for (const HostId dest : message->destinations) {
    if (hosted_.count(dest)) {
      addressed_here = true;
      break;
    }
  }
  if (!addressed_here) return false;
  if (!delivered_.insert(item.id()).second) return false;
  if (delivery_sink_) {
    try {
      delivery_sink_(item.id());
    } catch (...) {
      // The ledger write failed: withdraw the delivery so the message
      // re-reports later rather than vanishing unreported.
      delivered_.erase(item.id());
      throw;
    }
  }
  if (policy_) policy_->note_delivered(item.id(), now);
  out.push_back(std::move(*message));
  return true;
}

std::vector<Message> DtnNode::on_sync_delivered(
    const std::vector<repl::Item>& items, SimTime now) {
  std::vector<Message> delivered;
  for (const repl::Item& item : items) try_deliver(item, now, delivered);
  return delivered;
}

namespace {

/// Does `source` hold an item the target's filter selects and the
/// target does not know yet? Mirrors the summary-vector exchange real
/// DTN protocols perform before committing link time: under a
/// bandwidth budget, the direction with a pending *delivery* must go
/// first or a relay copy can starve it.
bool has_pending_delivery(const DtnNode& source, const DtnNode& target) {
  bool pending = false;
  // Enumerate only the entries the target's filter selects (indexed for
  // address filters) and stop at the first unknown one.
  source.replica().store().for_filter_matches(
      target.replica().filter(),
      [&](const repl::ItemStore::Entry& entry) {
        if (!target.replica().knowledge().knows(entry.item,
                                                entry.item.version())) {
          pending = true;
          return false;  // early exit
        }
        return true;
      });
  return pending;
}

}  // namespace

EncounterOutcome run_encounter(DtnNode& a, DtnNode& b, SimTime now,
                               const EncounterOptions& options) {
  EncounterOutcome outcome;
  std::optional<std::size_t> budget = options.encounter_budget;

  const auto one_way = [&](DtnNode& source, DtnNode& target,
                           std::vector<Message>& delivered_out) {
    repl::SyncOptions sync_options;
    sync_options.learn_knowledge = options.learn_knowledge;
    if (budget) sync_options.max_items = *budget;
    const auto result =
        repl::run_sync(source.replica(), target.replica(), source.policy(),
                       target.policy(), now, sync_options);
    if (budget) {
      *budget -= std::min(*budget, result.stats.items_sent);
    }
    outcome.stats.accumulate(result.stats);
    auto delivered = target.on_sync_delivered(result.delivered, now);
    delivered_out.insert(delivered_out.end(), delivered.begin(),
                         delivered.end());
  };

  // Two syncs per encounter, roles alternating (Section VI-A). Under a
  // bandwidth budget, schedule the direction with a pending delivery
  // first so out-of-filter relaying cannot starve it.
  bool a_first = false;
  if (budget && !has_pending_delivery(b, a) &&
      has_pending_delivery(a, b)) {
    a_first = true;
  }
  if (a_first) {
    one_way(/*source=*/a, /*target=*/b, outcome.delivered_b);
    one_way(/*source=*/b, /*target=*/a, outcome.delivered_a);
  } else {
    one_way(/*source=*/b, /*target=*/a, outcome.delivered_a);
    one_way(/*source=*/a, /*target=*/b, outcome.delivered_b);
  }

  if (a.policy()) a.policy()->encounter_complete(b.id(), now);
  if (b.policy()) b.policy()->encounter_complete(a.id(), now);
  return outcome;
}

}  // namespace pfrdtn::dtn
