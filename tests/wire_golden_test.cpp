// Wire-format golden test: serializes a fixed corpus of items,
// filters, knowledge, requests and frame payloads and compares FNV-1a-64
// digests against checked-in goldens. The goldens were generated from
// the pre-shared-payload implementation (PR 3), so a passing run
// proves the storage refactor left every frame byte-identical. Any
// intentional format change must regenerate the constants below (run
// the test; the failure message prints the new digest) and bump the
// frame version in byte_buffer.hpp.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "repl/sync.hpp"

namespace {

using namespace pfrdtn;
using namespace pfrdtn::repl;

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string digest(const std::function<void(ByteWriter&)>& emit) {
  ByteWriter w;
  emit(w);
  return hex64(fnv1a64(w.bytes()));
}

// ---- fixed corpus ----------------------------------------------------

Item plain_item() {
  Item item(ItemId(0x700000001ull), Version{ReplicaId(7), 12, 3},
            {{meta::kSource, "3"},
             {meta::kDest, "3,17,42"},
             {meta::kType, "msg"},
             {meta::kCreated, "86400"},
             {meta::kTags, "alpha,beta"}},
            {'h', 'e', 'l', 'l', 'o'});
  item.set_transient_int("ttl", 7);
  item.set_transient("hops", "2");
  return item;
}

Item tombstone_item() {
  return Item(ItemId(0x900000002ull), Version{ReplicaId(9), 44, 9},
              {{meta::kDest, "5"}, {meta::kType, "msg"}}, {},
              /*deleted=*/true);
}

Item bare_item() {
  return Item(ItemId(2), Version{ReplicaId(1), 1, 1}, {}, {});
}

std::vector<Filter> corpus_filters() {
  return {
      Filter::all(),
      Filter::none(),
      Filter::addresses({HostId(1), HostId(5), HostId(9)}),
      Filter::tags({"alpha", "zulu"}),
      Filter::meta_equals("type", "msg"),
      Filter::conj(Filter::addresses({HostId(3)}), Filter::tags({"beta"})),
      Filter::disj(Filter::meta_equals("type", "ack"),
                   Filter::tags({"gamma"})),
      Filter::negate(Filter::addresses({HostId(17)})),
  };
}

Knowledge corpus_knowledge() {
  Knowledge k;
  k.add_authored_prefix(ReplicaId(7), 12);
  k.add_exact(Version{ReplicaId(9), 44, 9});
  k.add_exact(Version{ReplicaId(2), 3, 1});
  k.add_exact_pinned(Version{ReplicaId(5), 8, 2});
  Knowledge peer;
  peer.add_authored_prefix(ReplicaId(4), 6);
  peer.add_exact(Version{ReplicaId(11), 2, 1});
  k.merge_scoped(peer, Filter::addresses({HostId(3), HostId(17)}));
  return k;
}

SyncBatch corpus_batch() {
  SyncBatch batch;
  batch.source = ReplicaId(9);
  batch.items = {plain_item(), tombstone_item(), bare_item()};
  return batch;
}

struct Golden {
  const char* name;
  std::string actual;
  const char* expected;
};

TEST(WireGolden, FramesAreByteIdentical) {
  const auto filters = corpus_filters();
  std::vector<Golden> goldens;

  goldens.push_back({"item_plain",
                     digest([](ByteWriter& w) { plain_item().serialize(w); }),
                     "3a43e36bdc41b2d0"});
  goldens.push_back(
      {"item_tombstone",
       digest([](ByteWriter& w) { tombstone_item().serialize(w); }),
       "1dab8699fecfbf2f"});
  goldens.push_back({"item_bare",
                     digest([](ByteWriter& w) { bare_item().serialize(w); }),
                     "f1528bc25cc75702"});

  ByteWriter all_filters;
  for (const Filter& filter : filters) filter.serialize(all_filters);
  goldens.push_back({"filters_all_kinds",
                     hex64(fnv1a64(all_filters.bytes())),
                     "76a2411e95ec3e79"});

  goldens.push_back(
      {"knowledge",
       digest([](ByteWriter& w) { corpus_knowledge().serialize(w); }),
       "6cb348232800f7c9"});

  // One request per filter kind, all sharing the same knowledge.
  ByteWriter all_requests;
  for (const Filter& filter : filters) {
    SyncRequest request;
    request.target = ReplicaId(7);
    request.filter = filter;
    request.knowledge = corpus_knowledge();
    request.routing_state = {1, 2, 3};
    request.serialize(all_requests);
  }
  goldens.push_back({"requests_all_filters",
                     hex64(fnv1a64(all_requests.bytes())),
                     "02ad2e6cc89463bb"});

  goldens.push_back({"batch_begin_frame",
                     hex64(fnv1a64(encode_batch_begin(corpus_batch()))),
                     "15f2d2188e6a0474"});

  // Summary-exchange frames (PR 7). The digest inside the summary is
  // itself a function of the knowledge wire format, so this golden
  // pins both the summary codec and Knowledge::wire_digest.
  goldens.push_back(
      {"knowledge_summary",
       digest([](ByteWriter& w) {
         summarize(corpus_knowledge()).serialize(w);
       }),
       "eedf5d08f974572d"});
  SummaryRequestInfo summary_request;
  summary_request.target = ReplicaId(7);
  summary_request.filter = filters[2];
  summary_request.summary = summarize(corpus_knowledge());
  summary_request.routing_state = {1, 2, 3};
  goldens.push_back({"summary_request",
                     digest([&](ByteWriter& w) {
                       summary_request.serialize(w);
                     }),
                     "df9a10dd2afa46ed"});
  goldens.push_back({"summary_reply_frame",
                     hex64(fnv1a64(encode_summary_reply(ReplicaId(9)))),
                     "af63c44c8601c3c4"});

  // Transient Error refusals (PR 10): the structured read-only / busy
  // / draining frames the retry discipline keys off. The payload is
  // one code byte plus the raw message, so these also pin the message
  // strings the e2e greps for.
  goldens.push_back(
      {"error_frame_read_only",
       hex64(fnv1a64(encode_error_frame(
           kSyncErrorReadOnly, "replica is degraded read-only"))),
       "226fa6c09604cf1f"});
  goldens.push_back(
      {"error_frame_busy",
       hex64(fnv1a64(encode_error_frame(
           kSyncErrorBusy, "server busy: at session cap, retry"))),
       "bd4912964410db3e"});
  goldens.push_back({"error_frame_draining",
                     hex64(fnv1a64(encode_error_frame(
                         kSyncErrorDraining, "server draining"))),
                     "ad687237a4f8fcc1"});
  // The push acknowledgement (PR 10): one uvarint of applied copies.
  goldens.push_back({"batch_ack_frame",
                     hex64(fnv1a64(encode_batch_ack(3))),
                     "af63be4c8601b992"});

  for (const Golden& golden : goldens) {
    EXPECT_EQ(golden.actual, golden.expected)
        << "wire format drifted for corpus entry '" << golden.name << "'";
  }

  // Framed footprints (header + payload sizes) must not drift either:
  // byte accounting feeds the paper's bandwidth figures. A batch is a
  // BatchBegin frame, one BatchItem frame per item and a BatchEnd frame
  // carrying the source knowledge.
  const auto framed = [](const std::function<void(ByteWriter&)>& emit) {
    ByteWriter w;
    emit(w);
    return framed_size(w.size());
  };
  SyncRequest request;
  request.target = ReplicaId(7);
  request.filter = filters[2];
  request.knowledge = corpus_knowledge();
  EXPECT_EQ(framed([&](ByteWriter& w) { request.serialize(w); }), 40u);
  const SyncBatch batch = corpus_batch();
  std::size_t batch_bytes = framed_size(encode_batch_begin(batch).size());
  for (const Item& item : batch.items)
    batch_bytes += framed([&](ByteWriter& w) { item.serialize(w); });
  batch_bytes +=
      framed([&](ByteWriter& w) { corpus_knowledge().serialize(w); });
  EXPECT_EQ(batch_bytes, 193u);
  EXPECT_EQ(framed([&](ByteWriter& w) { summary_request.serialize(w); }),
            28u);
}

// The corpus round-trips: goldens prove stability, this proves each
// frame payload of the batch still decodes to equal values.
TEST(WireGolden, CorpusRoundTrips) {
  const SyncBatch batch = corpus_batch();
  const BatchBeginInfo begin =
      decode_batch_begin(encode_batch_begin(batch));
  EXPECT_EQ(begin.source, batch.source);
  EXPECT_TRUE(begin.complete);
  EXPECT_EQ(begin.count, 3u);

  std::vector<Item> copies;
  for (const Item& item : batch.items) {
    ByteWriter w;
    item.serialize(w);
    ByteReader r(w.bytes());
    copies.push_back(Item::deserialize(r));
    EXPECT_TRUE(r.done());
    ByteWriter again;
    copies.back().serialize(again);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
  EXPECT_EQ(copies[0].id(), plain_item().id());
  EXPECT_EQ(copies[0].transient_int("ttl"), 7);
  EXPECT_EQ(copies[0].meta(meta::kDest), "3,17,42");
  EXPECT_TRUE(copies[1].deleted());
  EXPECT_EQ(copies[2].version(), bare_item().version());

  ByteWriter w;
  corpus_knowledge().serialize(w);
  ByteReader r(w.bytes());
  const Knowledge knowledge = Knowledge::deserialize(r);
  EXPECT_TRUE(r.done());
  ByteWriter again;
  knowledge.serialize(again);
  EXPECT_EQ(again.bytes(), w.bytes());
}

}  // namespace
