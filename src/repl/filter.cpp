#include "repl/filter.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace pfrdtn::repl {

struct Filter::Node {
  Kind kind = Kind::False;
  std::set<HostId> addrs;            // AddressSet
  std::set<std::string> tags;        // TagSet
  std::string key, value;            // MetaEquals
  std::vector<NodePtr> children;     // And / Or / Not
};

namespace {

/// Split a comma-separated metadata value into tokens.
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t end = value.find(',', pos);
    if (end == std::string::npos) end = value.size();
    if (end > pos) tokens.push_back(value.substr(pos, end - pos));
    pos = end + 1;
  }
  return tokens;
}

}  // namespace

Filter Filter::all() {
  static const NodePtr node = [] {
    auto n = std::make_shared<Node>();
    n->kind = Kind::True;
    return n;
  }();
  return Filter(node);
}

Filter Filter::none() {
  static const NodePtr node = [] {
    auto n = std::make_shared<Node>();
    n->kind = Kind::False;
    return n;
  }();
  return Filter(node);
}

Filter Filter::addresses(std::set<HostId> addrs) {
  if (addrs.empty()) return none();
  auto node = std::make_shared<Node>();
  node->kind = Kind::AddressSet;
  node->addrs = std::move(addrs);
  return Filter(node);
}

Filter Filter::tags(std::set<std::string> tags) {
  if (tags.empty()) return none();
  auto node = std::make_shared<Node>();
  node->kind = Kind::TagSet;
  node->tags = std::move(tags);
  return Filter(node);
}

Filter Filter::meta_equals(std::string key, std::string value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::MetaEquals;
  node->key = std::move(key);
  node->value = std::move(value);
  return Filter(node);
}

Filter Filter::conj(Filter a, Filter b) {
  if (a.node_->kind == Kind::True) return b;
  if (b.node_->kind == Kind::True) return a;
  if (a.node_->kind == Kind::False || b.node_->kind == Kind::False)
    return none();
  if (a.equals(b)) return a;
  auto node = std::make_shared<Node>();
  node->kind = Kind::And;
  node->children = {a.node_, b.node_};
  return Filter(node);
}

Filter Filter::disj(Filter a, Filter b) {
  if (a.node_->kind == Kind::False) return b;
  if (b.node_->kind == Kind::False) return a;
  if (a.node_->kind == Kind::True || b.node_->kind == Kind::True)
    return all();
  if (a.equals(b)) return a;
  // Union of two address (or tag) sets stays canonical.
  if (a.node_->kind == Kind::AddressSet &&
      b.node_->kind == Kind::AddressSet) {
    std::set<HostId> merged = a.node_->addrs;
    merged.insert(b.node_->addrs.begin(), b.node_->addrs.end());
    return addresses(std::move(merged));
  }
  if (a.node_->kind == Kind::TagSet && b.node_->kind == Kind::TagSet) {
    std::set<std::string> merged = a.node_->tags;
    merged.insert(b.node_->tags.begin(), b.node_->tags.end());
    return tags(std::move(merged));
  }
  auto node = std::make_shared<Node>();
  node->kind = Kind::Or;
  node->children = {a.node_, b.node_};
  return Filter(node);
}

Filter Filter::negate(Filter a) {
  if (a.node_->kind == Kind::True) return none();
  if (a.node_->kind == Kind::False) return all();
  if (a.node_->kind == Kind::Not) return Filter(a.node_->children[0]);
  auto node = std::make_shared<Node>();
  node->kind = Kind::Not;
  node->children = {a.node_};
  return Filter(node);
}

bool Filter::node_matches(const Node& node, const Item& item) {
  switch (node.kind) {
    case Kind::True:
      return true;
    case Kind::False:
      return false;
    case Kind::AddressSet: {
      for (const HostId dest : item.dest_addresses()) {
        if (node.addrs.count(dest)) return true;
      }
      return false;
    }
    case Kind::TagSet: {
      const auto value = item.meta(meta::kTags);
      if (!value) return false;
      for (const auto& tag : split_csv(*value)) {
        if (node.tags.count(tag)) return true;
      }
      return false;
    }
    case Kind::MetaEquals: {
      const auto value = item.meta(node.key);
      return value && *value == node.value;
    }
    case Kind::And:
      return std::all_of(node.children.begin(), node.children.end(),
                         [&](const NodePtr& child) {
                           return node_matches(*child, item);
                         });
    case Kind::Or:
      return std::any_of(node.children.begin(), node.children.end(),
                         [&](const NodePtr& child) {
                           return node_matches(*child, item);
                         });
    case Kind::Not:
      return !node_matches(*node.children[0], item);
  }
  return false;
}

bool Filter::matches(const Item& item) const {
  return node_matches(*node_, item);
}

Filter Filter::intersect(const Filter& other) const {
  const Node& a = *node_;
  const Node& b = *other.node_;
  if (a.kind == Kind::True) return other;
  if (b.kind == Kind::True) return *this;
  if (a.kind == Kind::False || b.kind == Kind::False) return none();
  if (equals(other)) return *this;
  // Set-intersection of two address sets under-approximates the true
  // conjunction for multi-destination items (an item addressed to both
  // x and y matches {x} ∧ {y} but not {} ); under-approximation is the
  // sound direction for knowledge scopes.
  if (a.kind == Kind::AddressSet && b.kind == Kind::AddressSet) {
    std::set<HostId> common;
    std::set_intersection(a.addrs.begin(), a.addrs.end(),
                          b.addrs.begin(), b.addrs.end(),
                          std::inserter(common, common.begin()));
    return addresses(std::move(common));
  }
  if (a.kind == Kind::TagSet && b.kind == Kind::TagSet) {
    std::set<std::string> common;
    std::set_intersection(a.tags.begin(), a.tags.end(), b.tags.begin(),
                          b.tags.end(),
                          std::inserter(common, common.begin()));
    return tags(std::move(common));
  }
  if (a.kind == Kind::MetaEquals && b.kind == Kind::MetaEquals &&
      a.key == b.key) {
    return a.value == b.value ? *this : none();
  }
  return conj(*this, other);
}

bool Filter::subsumes(const Filter& other) const {
  const Node& a = *node_;
  const Node& b = *other.node_;
  if (a.kind == Kind::True) return true;
  if (b.kind == Kind::False) return true;
  if (equals(other)) return true;
  if (a.kind == Kind::AddressSet && b.kind == Kind::AddressSet) {
    return std::includes(a.addrs.begin(), a.addrs.end(),
                         b.addrs.begin(), b.addrs.end());
  }
  if (a.kind == Kind::TagSet && b.kind == Kind::TagSet) {
    return std::includes(a.tags.begin(), a.tags.end(), b.tags.begin(),
                         b.tags.end());
  }
  // `this` subsumes an Or if it subsumes every branch; an And subsumed
  // by any branch of it implies nothing, so stay conservative there.
  if (b.kind == Kind::Or) {
    return std::all_of(b.children.begin(), b.children.end(),
                       [&](const NodePtr& child) {
                         return subsumes(Filter(child));
                       });
  }
  if (b.kind == Kind::And) {
    return std::any_of(b.children.begin(), b.children.end(),
                       [&](const NodePtr& child) {
                         return subsumes(Filter(child));
                       });
  }
  return false;
}

bool Filter::provably_empty() const {
  return node_->kind == Kind::False;
}

bool Filter::node_equals(const Node& a, const Node& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::True:
    case Kind::False:
      return true;
    case Kind::AddressSet:
      return a.addrs == b.addrs;
    case Kind::TagSet:
      return a.tags == b.tags;
    case Kind::MetaEquals:
      return a.key == b.key && a.value == b.value;
    case Kind::And:
    case Kind::Or:
    case Kind::Not: {
      if (a.children.size() != b.children.size()) return false;
      for (std::size_t i = 0; i < a.children.size(); ++i) {
        if (!node_equals(*a.children[i], *b.children[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool Filter::equals(const Filter& other) const {
  return node_ == other.node_ || node_equals(*node_, *other.node_);
}

std::set<HostId> Filter::address_set() const {
  if (node_->kind != Kind::AddressSet) return {};
  return node_->addrs;
}

bool Filter::is_address_filter() const {
  return node_->kind == Kind::AddressSet;
}

std::string Filter::node_str(const Node& node) {
  switch (node.kind) {
    case Kind::True:
      return "true";
    case Kind::False:
      return "false";
    case Kind::AddressSet: {
      std::string out = "dest∈{";
      bool first = true;
      for (const HostId addr : node.addrs) {
        if (!first) out += ',';
        out += addr.str();
        first = false;
      }
      return out + "}";
    }
    case Kind::TagSet: {
      std::string out = "tag∈{";
      bool first = true;
      for (const auto& tag : node.tags) {
        if (!first) out += ',';
        out += tag;
        first = false;
      }
      return out + "}";
    }
    case Kind::MetaEquals:
      return node.key + "=" + node.value;
    case Kind::And:
    case Kind::Or: {
      std::string out = "(";
      out += node_str(*node.children[0]);
      out += node.kind == Kind::And ? " ∧ " : " ∨ ";
      out += node_str(*node.children[1]);
      out += ')';
      return out;
    }
    case Kind::Not: {
      std::string out = "¬";
      out += node_str(*node.children[0]);
      return out;
    }
  }
  return "?";
}

std::string Filter::str() const { return node_str(*node_); }

void Filter::node_serialize(const Node& node, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(node.kind));
  switch (node.kind) {
    case Kind::True:
    case Kind::False:
      break;
    case Kind::AddressSet:
      w.uvarint(node.addrs.size());
      for (const HostId addr : node.addrs) w.uvarint(addr.value());
      break;
    case Kind::TagSet:
      w.uvarint(node.tags.size());
      for (const auto& tag : node.tags) w.str(tag);
      break;
    case Kind::MetaEquals:
      w.str(node.key);
      w.str(node.value);
      break;
    case Kind::And:
    case Kind::Or:
    case Kind::Not:
      w.uvarint(node.children.size());
      for (const auto& child : node.children) node_serialize(*child, w);
      break;
  }
}

void Filter::serialize(ByteWriter& w) const {
  node_serialize(*node_, w);
}

Filter::NodePtr Filter::node_deserialize(ByteReader& r, int depth) {
  PFRDTN_REQUIRE(depth < 32);  // reject hostile deep nesting
  r.charge_elements();
  auto node = std::make_shared<Node>();
  node->kind = static_cast<Kind>(r.u8());
  switch (node->kind) {
    case Kind::True:
    case Kind::False:
      break;
    case Kind::AddressSet: {
      const std::uint64_t n = r.uvarint();
      for (std::uint64_t i = 0; i < n; ++i) {
        r.charge_elements();
        node->addrs.insert(HostId(r.uvarint()));
      }
      break;
    }
    case Kind::TagSet: {
      const std::uint64_t n = r.uvarint();
      for (std::uint64_t i = 0; i < n; ++i) {
        r.charge_elements();
        node->tags.insert(r.str());
      }
      break;
    }
    case Kind::MetaEquals:
      node->key = r.str();
      node->value = r.str();
      break;
    case Kind::And:
    case Kind::Or:
    case Kind::Not: {
      const std::uint64_t n = r.uvarint();
      PFRDTN_REQUIRE(n <= 16);
      for (std::uint64_t i = 0; i < n; ++i)
        node->children.push_back(node_deserialize(r, depth + 1));
      break;
    }
    default:
      throw ContractViolation("unknown filter kind");
  }
  return node;
}

Filter Filter::deserialize(ByteReader& r) {
  return Filter(node_deserialize(r, 0));
}

}  // namespace pfrdtn::repl
