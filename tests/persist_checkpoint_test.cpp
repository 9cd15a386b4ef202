// Checkpoint codec: byte-faithful round trips of rich replica state,
// rejection of every corrupted framing, and golden FNV-1a-64 digests
// pinning the serialized forms (Knowledge exact codec, Item wire form,
// state payload, whole checkpoint file). The goldens freeze the v2
// on-disk format (v1 state payload wrapped with the delivered-message
// ledger): a failing digest means old state directories no longer
// recover — bump kCheckpointVersion and write a migration before
// changing them. On failure the message prints the new digest.

#include "persist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "persist/durability.hpp"
#include "repl/sync.hpp"
#include "util/byte_buffer.hpp"
#include "util/crc32.hpp"

namespace pfrdtn::persist {
namespace {

using repl::Filter;
using repl::Item;
using repl::Knowledge;
using repl::Replica;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

/// A batch's frame payloads, concatenated in the order a transport
/// sends them: BatchBegin, one BatchItem per item, BatchEnd.
std::vector<std::uint8_t> frame_payloads(const repl::SyncBatch& batch) {
  ByteWriter w;
  for (const std::uint8_t byte : repl::encode_batch_begin(batch))
    w.u8(byte);
  for (const repl::Item& item : batch.items) item.serialize(w);
  batch.source_knowledge.serialize(w);
  return w.take();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A replica exercising every state dimension the checkpoint must
/// carry: in-filter and relay entries, a remote item with transient
/// metadata, an update, a tombstone, a discarded relay copy, learned
/// knowledge, and a bounded store. Deterministic by construction.
Replica make_rich_replica() {
  repl::ItemStore::Config config;
  config.relay_capacity = 8;
  Replica r(ReplicaId(3), Filter::addresses({HostId(5)}), config);

  const Item& a = r.create(to(5), {'a'});           // in filter
  r.create(to(9), {'b'});                           // relay (push-out)
  r.update(a.id(), to(5), {'a', '2'});              // revision 2
  const Item& dead = r.create(to(5), {'x'});
  r.erase(dead.id());                               // tombstone

  // A remote authoring peer contributes items + knowledge.
  Replica peer(ReplicaId(4), Filter::addresses({HostId(5)}));
  const Item& remote = peer.create(to(5), {'r'});
  Item annotated = remote;
  annotated.set_transient("hop", "2");              // policy metadata
  std::vector<Item> evicted;
  r.apply_remote(annotated, evicted);
  const Item& passing = peer.create(to(7), {'p'});  // relay at r
  r.apply_remote(passing, evicted);
  r.discard_relay(passing.id());
  r.learn(peer.knowledge());
  return r;
}

TEST(Checkpoint, RichStateRoundTripsByteFaithfully) {
  const Replica original = make_rich_replica();
  ASSERT_TRUE(original.check_invariants().empty());

  const auto payload = encode_replica_state(original);
  const Replica recovered = decode_replica_state(payload);

  // Byte-faithful: the recovered replica re-serializes identically.
  EXPECT_EQ(encode_replica_state(recovered), payload);
  EXPECT_EQ(state_digest(recovered), state_digest(original));
  EXPECT_EQ(recovered.id(), original.id());
  EXPECT_EQ(recovered.next_counter(), original.next_counter());
  EXPECT_EQ(recovered.next_item_seq(), original.next_item_seq());
  EXPECT_EQ(recovered.store().size(), original.store().size());
  EXPECT_TRUE(recovered.check_invariants().empty());
}

TEST(Checkpoint, RecoveredReplicaBuildsByteIdenticalBatches) {
  // The property the crash e2e test leans on: equal digests mean the
  // next sync is indistinguishable from one the crash never happened.
  Replica original = make_rich_replica();
  Replica recovered =
      decode_replica_state(encode_replica_state(original));

  Replica target(ReplicaId(9), Filter::addresses({HostId(5)}));
  const repl::SyncRequest request =
      repl::make_request(target, nullptr, original.id(), SimTime(0));
  const repl::SyncBatch from_original =
      repl::build_batch(original, nullptr, request, SimTime(0));
  const repl::SyncBatch from_recovered =
      repl::build_batch(recovered, nullptr, request, SimTime(0));

  EXPECT_EQ(frame_payloads(from_original), frame_payloads(from_recovered));
}

TEST(Checkpoint, FileRoundTripCarriesEpoch) {
  const Replica original = make_rich_replica();
  const auto file = encode_checkpoint(42, original);
  const DecodedCheckpoint decoded = decode_checkpoint(file);
  EXPECT_EQ(decoded.epoch, 42u);
  EXPECT_EQ(state_digest(decoded.replica), state_digest(original));
}

TEST(Checkpoint, CorruptFramingIsRejected) {
  const Replica original = make_rich_replica();
  const auto file = encode_checkpoint(1, original);

  auto bad_magic = file;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_checkpoint(bad_magic), ContractViolation);

  auto bad_version = file;
  bad_version[4] = kCheckpointVersion + 1;
  EXPECT_THROW(decode_checkpoint(bad_version), ContractViolation);

  auto bad_crc = file;
  bad_crc.back() ^= 0x01;  // payload flip breaks the CRC
  EXPECT_THROW(decode_checkpoint(bad_crc), ContractViolation);

  auto truncated = file;
  truncated.pop_back();
  EXPECT_THROW(decode_checkpoint(truncated), ContractViolation);

  auto oversized = file;
  oversized.push_back(0);  // trailing garbage: size != header + length
  EXPECT_THROW(decode_checkpoint(oversized), ContractViolation);

  EXPECT_THROW(decode_checkpoint({}), ContractViolation);
}

// ---- golden digests -------------------------------------------------
//
// All constants below pin serialized bytes produced by this PR's
// initial (v1) persistence format for the deterministic rich replica.

TEST(CheckpointGolden, KnowledgeExactCodec) {
  const Replica r = make_rich_replica();
  ByteWriter w;
  r.knowledge().serialize_exact(w);
  EXPECT_EQ(hex64(fnv1a64(w.bytes())), "f28dcdfd14a8b4f4")
      << "Knowledge::serialize_exact bytes changed; new digest is "
      << hex64(fnv1a64(w.bytes()));
}

/// First entry the store visits in arrival order (deterministic).
const repl::ItemStore::Entry& first_entry(const Replica& r) {
  const repl::ItemStore::Entry* first = nullptr;
  r.store().for_each([&](const repl::ItemStore::Entry& entry) {
    if (first == nullptr) first = &entry;
  });
  EXPECT_NE(first, nullptr);
  return *first;
}

TEST(CheckpointGolden, ItemWireForm) {
  const Replica r = make_rich_replica();
  ByteWriter w;
  first_entry(r).item.serialize(w);
  EXPECT_EQ(hex64(fnv1a64(w.bytes())), "10293430f02c1a6b")
      << "Item::serialize bytes changed; new digest is "
      << hex64(fnv1a64(w.bytes()));
}

TEST(CheckpointGolden, StatePayload) {
  const auto payload = encode_replica_state(make_rich_replica());
  EXPECT_EQ(hex64(fnv1a64(payload)), "8887ed5982d35b57")
      << "encode_replica_state bytes changed; new digest is "
      << hex64(fnv1a64(payload));
}

TEST(CheckpointGolden, WholeCheckpointFile) {
  const auto file = encode_checkpoint(7, make_rich_replica());
  EXPECT_EQ(hex64(fnv1a64(file)), "38a737d0f13bf095")
      << "checkpoint file bytes changed; new digest is "
      << hex64(fnv1a64(file));
}

TEST(Checkpoint, DeliveredLedgerRoundTrips) {
  const Replica original = make_rich_replica();
  const std::set<ItemId> delivered{ItemId(3), ItemId(7), ItemId(70000)};
  const auto file = encode_checkpoint(9, original, delivered);
  const DecodedCheckpoint decoded = decode_checkpoint(file);
  EXPECT_EQ(decoded.epoch, 9u);
  EXPECT_EQ(decoded.delivered, delivered);
  // The ledger rides outside the state payload: digests are unchanged.
  EXPECT_EQ(state_digest(decoded.replica), state_digest(original));
}

TEST(Checkpoint, DeliveredLedgerRejectsUnsortedIds) {
  // Hand-corrupt the delta stream: a zero delta after the first id
  // claims a duplicate, which a well-formed encoder never emits.
  const auto file =
      encode_checkpoint(1, make_rich_replica(), {ItemId(5), ItemId(6)});
  auto bad = file;
  // Payload tail: ... count=2, delta0=5, delta1=1. Zero the last delta.
  ASSERT_EQ(bad.back(), 1);
  bad.back() = 0;
  // Recompute the CRC so only the ledger ordering is at fault.
  const std::size_t crc_at = 4 + 1 + 8 + 4;
  std::vector<std::uint8_t> payload(bad.begin() + kCheckpointHeaderSize,
                                    bad.end());
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i)
    bad[crc_at + i] = static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
  EXPECT_THROW(decode_checkpoint(bad), ContractViolation);
}

TEST(CheckpointGolden, WalRecordEncoders) {
  const Replica r = make_rich_replica();
  const repl::ItemStore::Entry& entry = first_entry(r);
  std::vector<std::uint8_t> all;
  for (const auto& payload :
       {encode_local_put(entry.item), encode_apply_remote(entry.item),
        encode_set_filter(r.filter()),
        encode_discard_relay(entry.item.id()),
        encode_learn(r.knowledge()),
        encode_policy_state(entry.item.id(),
                            {{"hop", "3"}, {"seen", "1,2"}})}) {
    all.insert(all.end(), payload.begin(), payload.end());
  }
  EXPECT_EQ(hex64(fnv1a64(all)), "dcc9a57c63856d34")
      << "WAL record payload bytes changed; new digest is "
      << hex64(fnv1a64(all));
}

}  // namespace
}  // namespace pfrdtn::persist
