#include "persist/checkpoint.hpp"

#include "util/byte_buffer.hpp"
#include "util/crc32.hpp"
#include "util/require.hpp"

namespace pfrdtn::persist {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_replica_state(
    const repl::Replica& replica) {
  ByteWriter w;
  w.uvarint(replica.id().value());
  w.uvarint(replica.next_counter());
  w.uvarint(replica.next_item_seq());
  replica.filter().serialize(w);
  // The exact codec: pinned-ness and fragment structure survive, unlike
  // the wire codec, which deliberately folds on deserialize.
  replica.knowledge().serialize_exact(w);

  const repl::ItemStore& store = replica.store();
  const repl::ItemStore::Config& config = store.config();
  w.u8(config.relay_capacity.has_value() ? 1 : 0);
  w.uvarint(config.relay_capacity.value_or(0));
  w.u8(0);  // eviction order: FIFO, the only one
  w.uvarint(store.next_arrival_seq());
  w.uvarint(store.size());
  // for_each visits in arrival order, so arrival_seq is strictly
  // increasing across entries — the decoder checks this.
  store.for_each([&](const repl::ItemStore::Entry& entry) {
    w.uvarint(entry.arrival_seq);
    w.u8(static_cast<std::uint8_t>((entry.in_filter ? 1 : 0) |
                                   (entry.local_origin ? 2 : 0)));
    entry.item.serialize(w);
  });
  return w.take();
}

repl::Replica decode_replica_state(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  const ReplicaId id(r.uvarint());
  const std::uint64_t next_counter = r.uvarint();
  const std::uint64_t next_item_seq = r.uvarint();
  repl::Filter filter = repl::Filter::deserialize(r);
  repl::Knowledge knowledge = repl::Knowledge::deserialize_exact(r);

  repl::ItemStore::Config config;
  const bool has_capacity = r.u8() != 0;
  const std::uint64_t capacity = r.uvarint();
  if (has_capacity) config.relay_capacity = capacity;
  PFRDTN_REQUIRE(r.u8() == 0);  // eviction order: FIFO, the only one

  repl::Replica replica(id, std::move(filter), config);
  replica.restore_knowledge(std::move(knowledge));

  const std::uint64_t next_arrival_seq = r.uvarint();
  const std::uint64_t entry_count = r.uvarint();
  PFRDTN_REQUIRE(entry_count <= r.remaining());
  repl::ItemStore& store = replica.store_mutable();
  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const std::uint64_t arrival_seq = r.uvarint();
    PFRDTN_REQUIRE(i == 0 || arrival_seq > prev_seq);
    prev_seq = arrival_seq;
    const std::uint8_t flags = r.u8();
    PFRDTN_REQUIRE(flags <= 3);
    repl::Item item = repl::Item::deserialize(r);
    store.restore_entry(std::move(item), (flags & 1) != 0,
                        (flags & 2) != 0, arrival_seq);
  }
  PFRDTN_REQUIRE(next_arrival_seq >= store.next_arrival_seq());
  store.set_next_arrival_seq(next_arrival_seq);
  replica.restore_counters(next_counter, next_item_seq);
  PFRDTN_REQUIRE(r.done());

  // Reject state a live replica could never hold: loading it would turn
  // a storage corruption into a protocol corruption at the next sync.
  const std::string violation = replica.check_invariants();
  PFRDTN_REQUIRE(violation.empty());
  return replica;
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t state_digest(const repl::Replica& replica) {
  return fnv1a64(encode_replica_state(replica));
}

std::vector<std::uint8_t> encode_checkpoint(
    std::uint64_t epoch, const repl::Replica& replica,
    const std::set<ItemId>& delivered) {
  // Version-2 payload: the v1 state bytes length-prefixed, then the
  // delivered-message ledger as delta-encoded sorted ids.
  const std::vector<std::uint8_t> state = encode_replica_state(replica);
  ByteWriter w;
  w.raw(state);  // uvarint length + state bytes
  w.uvarint(delivered.size());
  std::uint64_t prev = 0;
  for (const ItemId id : delivered) {  // std::set iterates ascending
    w.uvarint(id.value() - prev);
    prev = id.value();
  }
  const std::vector<std::uint8_t> payload = w.take();
  PFRDTN_REQUIRE(payload.size() <= kMaxCheckpointPayload);
  std::vector<std::uint8_t> out;
  out.reserve(kCheckpointHeaderSize + payload.size());
  put_u32(out, kCheckpointMagic);
  out.push_back(kCheckpointVersion);
  put_u64(out, epoch);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

DecodedCheckpoint decode_checkpoint(
    const std::vector<std::uint8_t>& bytes) {
  PFRDTN_REQUIRE(bytes.size() >= kCheckpointHeaderSize);
  const std::uint8_t* p = bytes.data();
  PFRDTN_REQUIRE(get_u32(p) == kCheckpointMagic);
  PFRDTN_REQUIRE(p[4] == kCheckpointVersion);
  const std::uint64_t epoch = get_u64(p + 5);
  const std::uint32_t length = get_u32(p + 13);
  PFRDTN_REQUIRE(length <= kMaxCheckpointPayload);
  PFRDTN_REQUIRE(bytes.size() == kCheckpointHeaderSize + length);
  const std::uint32_t crc = get_u32(p + 17);
  std::vector<std::uint8_t> payload(bytes.begin() + kCheckpointHeaderSize,
                                    bytes.end());
  PFRDTN_REQUIRE(crc32(payload) == crc);

  ByteReader r(payload);
  const std::vector<std::uint8_t> state = r.raw();
  DecodedCheckpoint out{epoch, decode_replica_state(state), {}};
  const std::uint64_t count = r.uvarint();
  PFRDTN_REQUIRE(count <= r.remaining());
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = prev + r.uvarint();
    PFRDTN_REQUIRE(i == 0 || id > prev);  // strictly ascending
    out.delivered.insert(ItemId(id));
    prev = id;
  }
  PFRDTN_REQUIRE(r.done());
  return out;
}

}  // namespace pfrdtn::persist
