#pragma once

/// \file ids.hpp
/// Strong identifier types. Replicas, hosts (DTN addresses), messages
/// and items all use distinct id types so they cannot be confused at
/// compile time (Core Guidelines I.4: make interfaces precisely and
/// strongly typed).

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace pfrdtn {

/// CRTP base for a strongly-typed 64-bit identifier.
template <class Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint64_t v) : value_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  [[nodiscard]] std::string str() const {
    std::string out = Tag::prefix();
    out += std::to_string(value_);
    return out;
  }

  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

 private:
  std::uint64_t value_ = kInvalid;
};

struct ReplicaIdTag {
  static const char* prefix() { return "r"; }
};
struct ItemIdTag {
  static const char* prefix() { return "i"; }
};
struct HostIdTag {
  static const char* prefix() { return "h"; }
};

/// Identifies one replica of a collection (one device in the paper).
using ReplicaId = StrongId<ReplicaIdTag>;
/// Identifies one replicated data item (one message in the DTN app).
using ItemId = StrongId<ItemIdTag>;
/// A DTN address: identifies a messaging endpoint (an e-mail user in the
/// paper's evaluation). Distinct from ReplicaId because the evaluation
/// reassigns users to buses daily.
using HostId = StrongId<HostIdTag>;

}  // namespace pfrdtn

namespace std {
template <class Tag>
struct hash<pfrdtn::StrongId<Tag>> {
  size_t operator()(pfrdtn::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
