#include "repl/item.hpp"

#include <charconv>

namespace pfrdtn::repl {

std::string encode_hosts(const std::vector<HostId>& hosts) {
  std::string out;
  for (const HostId host : hosts) {
    if (!out.empty()) out += ',';
    out += std::to_string(host.value());
  }
  return out;
}

std::vector<HostId> decode_hosts(std::string_view value) {
  std::vector<HostId> hosts;
  std::size_t pos = 0;
  while (pos < value.size()) {
    std::size_t end = value.find(',', pos);
    if (end == std::string_view::npos) end = value.size();
    std::uint64_t id = 0;
    const auto* first = value.data() + pos;
    const auto* last = value.data() + end;
    const auto [ptr, ec] = std::from_chars(first, last, id);
    if (ec == std::errc() && ptr == last) hosts.emplace_back(id);
    pos = end + 1;
  }
  return hosts;
}

namespace {

/// The wire layout of the replicated part. Kept as the one definition
/// both Item::serialize and the payload's cached size derive from, so
/// the cache can never drift from the bytes actually written.
void serialize_replicated(const Item::Payload& payload, ByteWriter& w) {
  w.uvarint(payload.id.value());
  payload.version.serialize(w);
  w.u8(payload.deleted ? 1 : 0);
  w.uvarint(payload.metadata.size());
  for (const auto& [key, value] : payload.metadata) {
    w.str(key);
    w.str(value);
  }
  w.raw(payload.body);
}

}  // namespace

Item::PayloadPtr Item::Payload::make(
    ItemId id, Version version, std::map<std::string, std::string> metadata,
    std::vector<std::uint8_t> body, bool deleted) {
  auto payload = std::make_shared<Payload>();
  payload->id = id;
  payload->version = version;
  payload->metadata = std::move(metadata);
  payload->body = std::move(body);
  payload->deleted = deleted;
  const auto dest = payload->metadata.find(meta::kDest);
  if (dest != payload->metadata.end())
    payload->dest_addresses = decode_hosts(dest->second);
  return payload;
}

const Item::PayloadPtr& Item::empty_payload() {
  static const PayloadPtr payload = Payload::make(
      ItemId(), Version{}, {}, {}, /*deleted=*/false);
  return payload;
}

std::optional<std::string> Item::meta(std::string_view key) const {
  const auto& metadata = payload_->metadata;
  const auto it = metadata.find(std::string(key));
  if (it == metadata.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Item::transient(std::string_view key) const {
  const auto it = transient_.find(std::string(key));
  if (it == transient_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::int64_t> Item::transient_int(
    std::string_view key) const {
  const auto value = transient(key);
  if (!value) return std::nullopt;
  std::int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(
      value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc() || ptr != value->data() + value->size())
    return std::nullopt;
  return parsed;
}

void Item::supersede(Version v, std::map<std::string, std::string> md,
                     std::vector<std::uint8_t> body, bool deleted) {
  adopt_payload(
      Payload::make(payload_->id, v, std::move(md), std::move(body),
                    deleted));
}

void Item::adopt_payload(PayloadPtr payload) {
  PFRDTN_REQUIRE(payload != nullptr);
  PFRDTN_REQUIRE(payload->version.dominates(payload_->version) ||
                 !payload_->version.valid());
  payload_ = std::move(payload);
  transient_.clear();
}

void Item::serialize(ByteWriter& w) const {
  serialize_replicated(*payload_, w);
  w.uvarint(transient_.size());
  for (const auto& [key, value] : transient_) {
    w.str(key);
    w.str(value);
  }
}

Item Item::deserialize(ByteReader& r) {
  const ItemId id = ItemId(r.uvarint());
  const Version version = Version::deserialize(r);
  const bool deleted = r.u8() != 0;
  std::map<std::string, std::string> metadata;
  const std::uint64_t md_count = r.uvarint();
  for (std::uint64_t i = 0; i < md_count; ++i) {
    r.charge_elements();
    std::string key = r.str();
    metadata[std::move(key)] = r.str();
  }
  std::vector<std::uint8_t> body = r.raw();
  Item item(Payload::make(id, version, std::move(metadata),
                          std::move(body), deleted));
  const std::uint64_t tr_count = r.uvarint();
  for (std::uint64_t i = 0; i < tr_count; ++i) {
    r.charge_elements();
    std::string key = r.str();
    item.transient_[std::move(key)] = r.str();
  }
  return item;
}

}  // namespace pfrdtn::repl
