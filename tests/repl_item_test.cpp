#include "repl/item.hpp"

#include <gtest/gtest.h>

namespace pfrdtn::repl {
namespace {

Item sample_item() {
  return Item(ItemId(10), Version{ReplicaId(2), 5, 1},
              {{meta::kDest, "3,7"}, {meta::kType, "msg"}},
              {'h', 'i'});
}

TEST(HostEncoding, RoundTrip) {
  const std::vector<HostId> hosts{HostId(1), HostId(42), HostId(7)};
  EXPECT_EQ(decode_hosts(encode_hosts(hosts)), hosts);
  EXPECT_EQ(encode_hosts({}), "");
  EXPECT_TRUE(decode_hosts("").empty());
}

TEST(HostEncoding, IgnoresMalformedTokens) {
  const auto hosts = decode_hosts("1,x,3,,4y,5");
  EXPECT_EQ(hosts, (std::vector<HostId>{HostId(1), HostId(3), HostId(5)}));
}

TEST(Item, BasicAccessors) {
  const Item item = sample_item();
  EXPECT_EQ(item.id(), ItemId(10));
  EXPECT_EQ(item.version().counter, 5u);
  EXPECT_FALSE(item.deleted());
  EXPECT_EQ(item.meta(meta::kType), "msg");
  EXPECT_FALSE(item.meta("missing").has_value());
  EXPECT_EQ(item.body().size(), 2u);
}

TEST(Item, DestAddressesParsedAndCached) {
  const Item item = sample_item();
  const auto& dests = item.dest_addresses();
  EXPECT_EQ(dests, (std::vector<HostId>{HostId(3), HostId(7)}));
  // Second call returns the same cached object.
  EXPECT_EQ(&item.dest_addresses(), &dests);
}

TEST(Item, NoDestYieldsEmpty) {
  Item item(ItemId(1), Version{ReplicaId(1), 1, 1}, {}, {});
  EXPECT_TRUE(item.dest_addresses().empty());
}

TEST(Item, TransientMetadata) {
  Item item = sample_item();
  EXPECT_FALSE(item.transient("ttl").has_value());
  item.set_transient_int("ttl", 9);
  EXPECT_EQ(item.transient_int("ttl"), 9);
  EXPECT_EQ(item.transient("ttl"), "9");
  item.set_transient("tag", "x");
  EXPECT_EQ(item.transient_all().size(), 2u);
  item.clear_transient("ttl");
  EXPECT_FALSE(item.transient_int("ttl").has_value());
}

TEST(Item, TransientIntRejectsNonNumeric) {
  Item item = sample_item();
  item.set_transient("ttl", "abc");
  EXPECT_FALSE(item.transient_int("ttl").has_value());
  item.set_transient("ttl", "12x");
  EXPECT_FALSE(item.transient_int("ttl").has_value());
}

TEST(Item, SupersedeReplacesContentAndDropsTransient) {
  Item item = sample_item();
  item.set_transient_int("ttl", 3);
  const Version v2{ReplicaId(1), 9, 2};
  item.supersede(v2, {{meta::kDest, "8"}}, {'x'}, false);
  EXPECT_EQ(item.version(), v2);
  EXPECT_EQ(item.dest_addresses(), std::vector<HostId>{HostId(8)});
  EXPECT_FALSE(item.transient_int("ttl").has_value());
  EXPECT_EQ(item.body(), std::vector<std::uint8_t>{'x'});
}

TEST(Item, SupersedeRequiresDominance) {
  Item item = sample_item();  // revision 1, author 2
  const Version stale{ReplicaId(1), 1, 1};  // same revision, lower author
  EXPECT_THROW(item.supersede(stale, {}, {}, false), ContractViolation);
}

TEST(Item, TombstoneSupersede) {
  Item item = sample_item();
  item.supersede(Version{ReplicaId(3), 1, 2}, item.metadata(), {}, true);
  EXPECT_TRUE(item.deleted());
  // Tombstones keep metadata so filters still select them.
  EXPECT_EQ(item.dest_addresses(),
            (std::vector<HostId>{HostId(3), HostId(7)}));
}

TEST(Item, WireRoundTripIncludesTransient) {
  Item item = sample_item();
  item.set_transient_int("ttl", 4);
  ByteWriter w;
  item.serialize(w);
  ByteReader r(w.bytes());
  const Item got = Item::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got.id(), item.id());
  EXPECT_EQ(got.version(), item.version());
  EXPECT_EQ(got.metadata(), item.metadata());
  EXPECT_EQ(got.body(), item.body());
  EXPECT_EQ(got.transient_int("ttl"), 4);
  EXPECT_EQ(got.deleted(), item.deleted());
}

TEST(Item, WireSizeGrowsWithBody) {
  Item small = sample_item();
  Item large(ItemId(10), Version{ReplicaId(2), 5, 1},
             {{meta::kDest, "3"}},
             std::vector<std::uint8_t>(1000, 'a'));
  const auto serialized_size = [](const Item& item) {
    ByteWriter w;
    item.serialize(w);
    return w.size();
  };
  EXPECT_GT(serialized_size(large), serialized_size(small) + 900);
}

}  // namespace
}  // namespace pfrdtn::repl
