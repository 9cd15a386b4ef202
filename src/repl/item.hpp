#pragma once

/// \file item.hpp
/// Replicated data items. An item carries replicated state (metadata
/// map + opaque body, both covered by the item's version) and
/// *transient* per-copy state that is never replicated and never bumps
/// the version — the substrate feature the paper's DTN policies rely on
/// for TTLs, copy budgets and hop counts ("host-specific metadata
/// fields must be treated differently by the PFR system: updates to
/// these fields should not be replicated").
///
/// The replicated part is an immutable, refcounted Payload shared
/// between every copy of the same version: copying an Item bumps a
/// reference count instead of deep-copying the metadata map and body,
/// so the sync hot path (batch building, batch application, store
/// insertion) moves pointers, not bytes. Derived values every sync
/// consults — the parsed `dest` address list and the replicated wire
/// size — are computed once per payload and shared with it.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "repl/version.hpp"
#include "util/ids.hpp"

namespace pfrdtn::repl {

/// Well-known metadata keys shared between the substrate's address
/// filters and the DTN messaging application.
namespace meta {
inline constexpr const char* kSource = "src";
inline constexpr const char* kDest = "dest";
inline constexpr const char* kType = "type";
inline constexpr const char* kCreated = "created";
inline constexpr const char* kTags = "tags";
}  // namespace meta

/// Encode / decode a set of host ids as a metadata value ("3,17,42").
std::string encode_hosts(const std::vector<HostId>& hosts);
std::vector<HostId> decode_hosts(std::string_view value);

class Item {
 public:
  /// The immutable replicated part of an item, shared by every copy of
  /// the same version. Construct only through make(): the cached
  /// parsed dest addresses are derived from the metadata at
  /// construction and must stay in step.
  struct Payload {
    ItemId id{};
    Version version{};
    std::map<std::string, std::string> metadata;
    std::vector<std::uint8_t> body;
    bool deleted = false;

    /// Destination addresses parsed from the `dest` metadata attribute
    /// (empty for non-message items) — filters consult this on every
    /// sync candidate scan, the store keys its inverted index on it.
    std::vector<HostId> dest_addresses;

    static std::shared_ptr<const Payload> make(
        ItemId id, Version version,
        std::map<std::string, std::string> metadata,
        std::vector<std::uint8_t> body, bool deleted);
  };
  using PayloadPtr = std::shared_ptr<const Payload>;

  /// Default-constructed items share one invalid empty payload.
  Item() : payload_(empty_payload()) {}
  Item(ItemId id, Version version, std::map<std::string, std::string> md,
       std::vector<std::uint8_t> body, bool deleted = false)
      : payload_(Payload::make(id, version, std::move(md), std::move(body),
                               deleted)) {}
  /// A fresh copy of an existing payload, with empty transient state.
  explicit Item(PayloadPtr payload) : payload_(std::move(payload)) {}

  [[nodiscard]] const PayloadPtr& payload() const { return payload_; }

  [[nodiscard]] ItemId id() const { return payload_->id; }
  [[nodiscard]] const Version& version() const {
    return payload_->version;
  }
  [[nodiscard]] bool deleted() const { return payload_->deleted; }

  [[nodiscard]] const std::map<std::string, std::string>& metadata()
      const {
    return payload_->metadata;
  }
  [[nodiscard]] std::optional<std::string> meta(
      std::string_view key) const;
  [[nodiscard]] const std::vector<std::uint8_t>& body() const {
    return payload_->body;
  }

  /// Destination addresses parsed from the `dest` metadata attribute
  /// (empty for non-message items). Cached on the shared payload.
  [[nodiscard]] const std::vector<HostId>& dest_addresses() const {
    return payload_->dest_addresses;
  }

  // --- transient, per-copy state (not versioned, not replicated as an
  // update; it is carried on the wire with the copy being transferred
  // so that, e.g., a forwarded copy arrives with a decremented TTL) ---

  [[nodiscard]] std::optional<std::string> transient(
      std::string_view key) const;
  void set_transient(std::string key, std::string value) {
    transient_[std::move(key)] = std::move(value);
  }
  void clear_transient(std::string_view key) {
    transient_.erase(std::string(key));
  }
  [[nodiscard]] const std::map<std::string, std::string>&
  transient_all() const {
    return transient_;
  }
  /// Replace the whole transient map (WAL replay of a logged
  /// policy-state snapshot; see src/persist/).
  void replace_transients(std::map<std::string, std::string> all) {
    transient_ = std::move(all);
  }

  /// Convenience accessors for integer-valued transient fields.
  [[nodiscard]] std::optional<std::int64_t> transient_int(
      std::string_view key) const;
  void set_transient_int(std::string key, std::int64_t value) {
    set_transient(std::move(key), std::to_string(value));
  }

  /// Replace replicated content, producing the given new version.
  /// Transient state is dropped: it belonged to the old copy.
  void supersede(Version v, std::map<std::string, std::string> md,
                 std::vector<std::uint8_t> body, bool deleted);

  /// Supersede by adopting another copy's payload (a refcount bump, no
  /// deep copy) — the remote-apply fast path. Same domination contract
  /// and transient-dropping semantics as supersede().
  void adopt_payload(PayloadPtr payload);

  void serialize(ByteWriter& w) const;
  static Item deserialize(ByteReader& r);

 private:
  static const PayloadPtr& empty_payload();

  PayloadPtr payload_;
  std::map<std::string, std::string> transient_;
};

/// Restricted mutable view of an item: holders may read everything but
/// mutate only the transient (per-copy, unversioned) metadata — the
/// substrate's "internal interface that avoids generating a new version
/// number". Handed to forwarding policies and to store clients; the
/// shared payload stays immutable behind it by construction.
class TransientView {
 public:
  explicit TransientView(Item& item) : item_(&item) {}

  [[nodiscard]] const Item& item() const { return *item_; }

  [[nodiscard]] std::optional<std::int64_t> get_int(
      std::string_view key) const {
    return item_->transient_int(key);
  }
  void set_int(std::string key, std::int64_t value) {
    item_->set_transient_int(std::move(key), value);
  }
  [[nodiscard]] std::optional<std::string> get(
      std::string_view key) const {
    return item_->transient(key);
  }
  void set(std::string key, std::string value) {
    item_->set_transient(std::move(key), std::move(value));
  }

 private:
  Item* item_;
};

}  // namespace pfrdtn::repl
