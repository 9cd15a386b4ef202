/// Robustness fuzzing of the wire-format decoders: random byte
/// strings and random truncations of valid encodings must either
/// parse or throw ContractViolation — never crash, hang, or read out
/// of bounds (run these under ASan/UBSan for full value).

#include <gtest/gtest.h>

#include "repl/sync.hpp"
#include "util/rng.hpp"

namespace pfrdtn::repl {
namespace {

template <class Decoder>
void fuzz_decoder(std::uint64_t seed, Decoder decode) {
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(64));
    for (auto& byte : bytes)
      byte = static_cast<std::uint8_t>(rng.below(256));
    try {
      ByteReader reader(bytes);
      decode(reader);
    } catch (const ContractViolation&) {
      // Expected for malformed input.
    }
  }
}

TEST(WireFuzz, FilterDecoderNeverCrashes) {
  fuzz_decoder(1, [](ByteReader& r) { (void)Filter::deserialize(r); });
}

TEST(WireFuzz, ItemDecoderNeverCrashes) {
  fuzz_decoder(2, [](ByteReader& r) { (void)Item::deserialize(r); });
}

TEST(WireFuzz, KnowledgeDecoderNeverCrashes) {
  fuzz_decoder(3, [](ByteReader& r) { (void)Knowledge::deserialize(r); });
}

TEST(WireFuzz, SyncRequestDecoderNeverCrashes) {
  fuzz_decoder(4,
               [](ByteReader& r) { (void)SyncRequest::deserialize(r); });
}

TEST(WireFuzz, TruncationsOfValidRequestThrowOrParse) {
  Replica replica(ReplicaId(1),
                  Filter::addresses({HostId(1), HostId(2)}));
  replica.create({{meta::kDest, "2"}}, {'x'});
  SyncRequest request{replica.id(), replica.filter(),
                      replica.knowledge(),
                      {0x01, 0x02, 0x03}};
  ByteWriter writer;
  request.serialize(writer);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    try {
      ByteReader reader(truncated);
      (void)SyncRequest::deserialize(reader);
    } catch (const ContractViolation&) {
    }
  }
  // The untruncated form parses cleanly.
  ByteReader reader(bytes);
  const auto parsed = SyncRequest::deserialize(reader);
  EXPECT_EQ(parsed.target, replica.id());
  EXPECT_TRUE(reader.done());
}

TEST(WireFuzz, BitFlipsInValidBatchThrowOrParse) {
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
  for (int i = 0; i < 4; ++i) source.create({{meta::kDest, "2"}}, {'m'});
  source.create({{meta::kDest, "3"}}, {'o'});  // outside target's filter
  run_sync(source, target, nullptr, nullptr, SimTime(0));
  // A batch crosses the wire as one BatchItem frame per item and a
  // BatchEnd frame carrying knowledge: corrupt those payloads. The
  // target learned the source's knowledge as a fragment scoped to its
  // filter, so its encoding covers the fragment form too.
  std::vector<std::vector<std::uint8_t>> items;
  source.store().for_each([&](const ItemStore::Entry& entry) {
    ByteWriter w;
    entry.item.serialize(w);
    items.push_back(w.take());
  });
  std::vector<std::vector<std::uint8_t>> knowledges;
  for (const Replica* replica : {&source, &target}) {
    ByteWriter w;
    replica->knowledge().serialize(w);
    knowledges.push_back(w.take());
  }
  ASSERT_FALSE(target.knowledge().fragments().empty());

  Rng rng(7);
  const auto flip = [&](std::vector<std::uint8_t> bytes) {
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    return bytes;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const auto item = flip(items[rng.below(items.size())]);
    try {
      ByteReader reader(item);
      (void)Item::deserialize(reader);
    } catch (const ContractViolation&) {
    }
    const auto knowledge = flip(knowledges[rng.below(knowledges.size())]);
    try {
      ByteReader reader(knowledge);
      (void)Knowledge::deserialize(reader);
    } catch (const ContractViolation&) {
    }
  }
}

}  // namespace
}  // namespace pfrdtn::repl
