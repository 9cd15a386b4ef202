/// Google-benchmark micro-benchmarks of the replication substrate:
/// pairwise sync cost vs store size, knowledge operations, filter
/// evaluation and wire-format round trips. These are not paper
/// figures; they quantify the substrate costs the figures rest on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dtn/epidemic.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/tcp.hpp"
#include "repl/sync.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfrdtn;
using namespace pfrdtn::repl;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{meta::kDest, std::to_string(dest)}};
}

SyncOptions summary_on() {
  SyncOptions options;
  options.summary_mode = SummaryMode::On;
  return options;
}

/// Source with n items; fresh empty target per iteration.
void BM_SyncColdTarget(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  for (std::uint64_t i = 0; i < n; ++i)
    source.create(to(2), std::vector<std::uint8_t>(64, 'x'));
  for (auto _ : state) {
    Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
    const auto result =
        run_sync(source, target, nullptr, nullptr, SimTime(0));
    benchmark::DoNotOptimize(result.stats.items_sent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_SyncColdTarget)->Arg(16)->Arg(128)->Arg(512);

/// Cold sync opened with a summary: the empty target's bloom hits
/// nothing, so the source streams the batch directly off the summary
/// round — same payload bytes as the exact path, one round trip less.
void BM_SyncColdTargetSummary(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  for (std::uint64_t i = 0; i < n; ++i)
    source.create(to(2), std::vector<std::uint8_t>(64, 'x'));
  for (auto _ : state) {
    Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
    const auto result = run_sync(source, target, nullptr, nullptr,
                                 SimTime(0), summary_on());
    benchmark::DoNotOptimize(result.stats.items_sent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_SyncColdTargetSummary)->Arg(16)->Arg(128)->Arg(512);

/// Steady-state no-op sync: everything already known at the target.
/// The wire_bytes counter grows with n (the exact request re-ships the
/// sparse knowledge every sync) — the contrast the summary variant
/// below removes. Setup mirrors BM_SyncNothingNewSummary exactly so
/// the two rows differ only in protocol.
void BM_SyncNothingNew(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
  for (std::uint64_t i = 0; i < n; ++i)
    source.create(to(2), std::vector<std::uint8_t>(64, 'x'));
  for (std::uint64_t i = 0; i < n; ++i) {
    const Version heard{ReplicaId(100 + i % 13), 2 * i + 2, 1};
    source.knowledge_mutable().add_exact(heard);
    target.knowledge_mutable().add_exact(heard);
  }
  run_sync(source, target, nullptr, nullptr, SimTime(0));
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const auto result =
        run_sync(source, target, nullptr, nullptr, SimTime(1));
    wire_bytes = result.stats.request_bytes + result.stats.batch_bytes;
    benchmark::DoNotOptimize(result.stats.items_sent);
  }
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_SyncNothingNew)->Arg(16)->Arg(128)->Arg(512);

/// Steady-state no-op sync over the summary fast path: the converged
/// peers' digests match and the exchange ends in O(1) wire bytes
/// independent of n. Many sparse authors make the knowledge genuinely
/// large so the constant wire_bytes counter is a real claim, not an
/// artifact of prefix compaction.
void BM_SyncNothingNewSummary(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
  for (std::uint64_t i = 0; i < n; ++i)
    source.create(to(2), std::vector<std::uint8_t>(64, 'x'));
  // Sparse third-party events give the knowledge real wire size; the
  // exact request would ship every one of them each repeat sync.
  for (std::uint64_t i = 0; i < n; ++i) {
    const Version heard{ReplicaId(100 + i % 13), 2 * i + 2, 1};
    source.knowledge_mutable().add_exact(heard);
    target.knowledge_mutable().add_exact(heard);
  }
  run_sync(source, target, nullptr, nullptr, SimTime(0));
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const auto result = run_sync(source, target, nullptr, nullptr,
                                 SimTime(1), summary_on());
    wire_bytes = result.stats.request_bytes + result.stats.batch_bytes;
    benchmark::DoNotOptimize(result.stats.items_sent);
  }
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_SyncNothingNewSummary)->Arg(16)->Arg(128)->Arg(512);

/// Sync with a flooding policy forwarding out-of-filter items.
void BM_SyncEpidemicRelay(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  for (std::uint64_t i = 0; i < n; ++i)
    source.create(to(99), std::vector<std::uint8_t>(64, 'x'));
  dtn::EpidemicPolicy policy;
  for (auto _ : state) {
    Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
    const auto result =
        run_sync(source, target, &policy, &policy, SimTime(0));
    benchmark::DoNotOptimize(result.stats.items_sent);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_SyncEpidemicRelay)->Arg(16)->Arg(128);

/// Warm epidemic sync: source and target already hold the same n
/// relay copies from several authors, each side's knowledge holding
/// their events as pinned extras (relay receipts never fold). Each
/// iteration is one empty batch plus one learn: the source finds
/// nothing the target lacks, and the target finds the source's
/// knowledge — whose decoded prefixes span its own pinned extras —
/// already covered. These are the two per-event loops a converged
/// contact used to pay: one knows() per stored item on the source, one
/// lookup per counter of each gap above the target's prefixes.
void BM_SyncEpidemicWarm(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kAuthors = 8;
  Replica source(ReplicaId(1), Filter::addresses({HostId(1)}));
  Replica target(ReplicaId(2), Filter::addresses({HostId(2)}));
  std::vector<Item> evicted;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Item relay(ItemId(1000 + i),
                     Version{ReplicaId(100 + i % kAuthors),
                             1 + i / kAuthors, 1},
                     to(99), std::vector<std::uint8_t>(64, 'x'));
    source.apply_remote(relay, evicted);
    target.apply_remote(relay, evicted);
  }
  dtn::EpidemicPolicy policy;
  run_sync(source, target, &policy, &policy, SimTime(0));
  for (auto _ : state) {
    const auto result =
        run_sync(source, target, &policy, &policy, SimTime(1));
    if (result.stats.items_sent != 0) {
      state.SkipWithError("a warm sync sent items");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_SyncEpidemicWarm)->Arg(128)->Arg(512);

Item relay_item(std::uint64_t id, std::uint64_t dest) {
  return Item(ItemId(id), Version{ReplicaId(1), id, 1}, to(dest), {});
}

/// Steady-state eviction: a relay store at capacity absorbing a stream
/// of new relay items, one eviction per put. Victim selection reads the
/// evictable index (O(log n)) instead of rescanning the arrival order,
/// so the cost no longer grows with capacity.
void BM_StoreEvictionAtCapacity(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  ItemStore store(ItemStore::Config{cap});
  std::uint64_t next = 1;
  for (std::size_t i = 0; i < cap; ++i)
    store.put(relay_item(next++, 2), false, false);
  for (auto _ : state) {
    const auto evicted = store.put(relay_item(next++, 2), false, false);
    benchmark::DoNotOptimize(evicted.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreEvictionAtCapacity)->Arg(256)->Arg(4096);

/// Full refilter of an n-item store where every entry flips sides —
/// the worst-case filter change, exercising the incremental index
/// maintenance on every entry.
void BM_StoreRefilter(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  ItemStore store;
  for (std::uint64_t i = 1; i <= n; ++i)
    store.put(relay_item(i, 2 + i % 2), /*in_filter=*/i % 2 == 0, false);
  bool phase = false;
  std::vector<Item> evicted;
  for (auto _ : state) {
    phase = !phase;
    const HostId want(phase ? 3 : 2);
    auto fresh = store.refilter(
        [&](const Item& item) {
          const auto& dests = item.dest_addresses();
          return !dests.empty() && dests[0] == want;
        },
        evicted);
    benchmark::DoNotOptimize(fresh.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_StoreRefilter)->Arg(256)->Arg(4096);

/// Candidate enumeration through the dest inverted index: the cost
/// tracks the matching set (n/64 items here), not the store size.
void BM_StoreFilterIndexed(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  ItemStore store;
  for (std::uint64_t i = 1; i <= n; ++i)
    store.put(relay_item(i, i % 64), true, false);
  const Filter filter = Filter::addresses({HostId(7)});
  for (auto _ : state) {
    int matches = 0;
    store.for_filter_matches(filter, [&](const ItemStore::Entry&) {
      ++matches;
      return true;
    });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_StoreFilterIndexed)->Arg(1024)->Arg(8192);

/// The same result set selected by a filter no index covers (a
/// meta-equals predicate), forcing the full-scan fallback: the cost
/// tracks the store size. Contrast with BM_StoreFilterIndexed.
void BM_StoreFilterScan(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  ItemStore store;
  for (std::uint64_t i = 1; i <= n; ++i)
    store.put(relay_item(i, i % 64), true, false);
  const Filter filter = Filter::meta_equals(meta::kDest, "7");
  for (auto _ : state) {
    int matches = 0;
    store.for_filter_matches(filter, [&](const ItemStore::Entry&) {
      ++matches;
      return true;
    });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_StoreFilterScan)->Arg(1024)->Arg(8192);

void BM_KnowledgeAddAndQuery(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Item probe(ItemId(1), Version{ReplicaId(1), 1, 1}, to(1), {});
  for (auto _ : state) {
    Knowledge knowledge;
    for (std::uint64_t i = 1; i <= n; ++i)
      knowledge.add_exact(Version{ReplicaId(1 + i % 7), i, 1});
    bool known = false;
    for (std::uint64_t i = 1; i <= n; ++i) {
      known ^= knowledge.knows(probe, Version{ReplicaId(1 + i % 7), i, 1});
    }
    benchmark::DoNotOptimize(known);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_KnowledgeAddAndQuery)->Arg(64)->Arg(1024);

void BM_KnowledgeSerialize(benchmark::State& state) {
  Knowledge knowledge;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    knowledge.add_exact(
        Version{ReplicaId(1 + rng.below(40)), 1 + rng.below(400), 1});
  }
  for (auto _ : state) {
    ByteWriter writer;
    knowledge.serialize(writer);
    ByteReader reader(writer.bytes());
    const auto copy = Knowledge::deserialize(reader);
    benchmark::DoNotOptimize(copy.weight());
  }
}
BENCHMARK(BM_KnowledgeSerialize);

/// Relay-heavy knowledge with holes: 30 authors whose in-filter events
/// have folded into the prefix, plus 330 pinned relay extras scattered
/// above it, which stay extras through the wire decode. Each iteration
/// copies it, encodes and decodes it, and asks knows() once per
/// relayed event and once per absent one. It is not the emulator's
/// per-sync shape — a sync copies no knowledge, and the emulator's pins
/// fold on decode — which BM_KnowledgeFoldingRoundTrip measures.
void BM_KnowledgeRelayRoundTrip(benchmark::State& state) {
  constexpr std::uint64_t kAuthors = 30;
  Knowledge knowledge;
  for (std::uint64_t a = 1; a <= kAuthors; ++a)
    knowledge.add_authored_prefix(ReplicaId(a), 4);
  Rng rng(11);
  std::vector<Version> queries;
  while (knowledge.universal().extras_count() < 330) {
    const Version v{ReplicaId(1 + rng.below(kAuthors)), 6 + rng.below(60),
                    1};
    if (knowledge.universal().contains(v)) continue;
    knowledge.add_exact_pinned(v);
    queries.push_back(v);
    queries.push_back(Version{v.author, v.counter + 100, 1});  // absent
  }
  const Item probe(ItemId(1), Version{ReplicaId(1), 1, 1}, to(1), {});
  for (auto _ : state) {
    const Knowledge copy = knowledge;
    ByteWriter writer;
    copy.serialize(writer);
    ByteReader reader(writer.bytes());
    const Knowledge decoded = Knowledge::deserialize(reader);
    std::size_t known = 0;
    for (const Version& v : queries) known += decoded.knows(probe, v);
    benchmark::DoNotOptimize(known);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries.size()) *
                          state.iterations());
}
BENCHMARK(BM_KnowledgeRelayRoundTrip);

/// The emulator's per-sync knowledge shape: 30 authors, each with ~11
/// relay receipts pinned contiguously above its prefix (~330 pins in
/// all). The wire carries pins as plain extras, so the decoder folds
/// every run into the vector: on seed 4 a ~439-byte knowledge decodes
/// to 28 vector entries and no extras. Each iteration encodes it
/// (served from the per-revision cache, as every sync after the first
/// at a revision is), decodes it, and asks knows() for every pinned
/// event and one absent event per author.
void BM_KnowledgeFoldingRoundTrip(benchmark::State& state) {
  constexpr std::uint64_t kAuthors = 30;
  constexpr std::uint64_t kPins = 11;
  Knowledge knowledge;
  std::vector<Version> queries;
  for (std::uint64_t a = 1; a <= kAuthors; ++a) {
    const std::uint64_t prefix = 20 + 3 * a;
    knowledge.add_authored_prefix(ReplicaId(a), prefix);
    for (std::uint64_t c = prefix + 1; c <= prefix + kPins; ++c) {
      knowledge.add_exact_pinned(Version{ReplicaId(a), c, 1});
      queries.push_back(Version{ReplicaId(a), c, 1});
    }
    queries.push_back(Version{ReplicaId(a), prefix + kPins + 2, 1});
  }
  const Item probe(ItemId(1), Version{ReplicaId(1), 1, 1}, to(1), {});
  for (auto _ : state) {
    ByteWriter writer;
    knowledge.serialize(writer);
    ByteReader reader(writer.bytes());
    const Knowledge decoded = Knowledge::deserialize(reader);
    std::size_t known = 0;
    for (const Version& v : queries) known += decoded.knows(probe, v);
    benchmark::DoNotOptimize(known);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries.size()) *
                          state.iterations());
}
BENCHMARK(BM_KnowledgeFoldingRoundTrip);

void BM_FilterMatch(benchmark::State& state) {
  std::set<HostId> addrs;
  for (std::uint64_t i = 0; i < 32; ++i) addrs.insert(HostId(i * 3));
  const Filter filter = Filter::addresses(std::move(addrs));
  std::vector<Item> items;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 256; ++i) {
    items.emplace_back(ItemId(i), Version{ReplicaId(1), i + 1, 1},
                       to(rng.below(96)), std::vector<std::uint8_t>{});
  }
  for (auto _ : state) {
    int matches = 0;
    for (const Item& item : items) {
      matches += filter.matches(item) ? 1 : 0;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(256 * state.iterations());
}
BENCHMARK(BM_FilterMatch);

void BM_ItemWireRoundTrip(benchmark::State& state) {
  Item item(ItemId(7), Version{ReplicaId(3), 9, 1}, to(5),
            std::vector<std::uint8_t>(static_cast<std::size_t>(
                                          state.range(0)),
                                      'b'));
  item.set_transient_int("ttl", 9);
  for (auto _ : state) {
    ByteWriter writer;
    item.serialize(writer);
    ByteReader reader(writer.bytes());
    const Item copy = Item::deserialize(reader);
    benchmark::DoNotOptimize(copy.id());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ItemWireRoundTrip)->Arg(64)->Arg(1024);

void BM_VersionSetCompaction(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    VersionSet vs;
    // Worst case: insert in reverse so everything sits in extras until
    // the final insert folds the whole prefix.
    for (std::uint64_t c = n; c >= 1; --c) vs.add(ReplicaId(1), c);
    benchmark::DoNotOptimize(vs.extras_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_VersionSetCompaction)->Arg(128)->Arg(2048);

/// End-to-end serve throughput on the epoll event loop: one in-process
/// SyncServer (2 workers), `range(0)` concurrent push clients per
/// iteration over real loopback TCP. Each client pushes the same item
/// every time, so after the first iteration the sessions are
/// steady-state (stale push, store bounded) and the number measures
/// session machinery — accept, hello, frames, quarantine bookkeeping —
/// not store growth. sessions_per_second is the headline counter.
void BM_ServeConcurrentSessions(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  Replica server_replica(ReplicaId(1),
                         Filter::addresses({HostId(9)}));
  dtn::EpidemicPolicy server_policy;
  net::SyncServerOptions options;
  options.workers = 2;
  net::SyncServer server(server_replica, &server_policy, options);
  const std::uint16_t port = server.port();
  std::thread serving([&server] { server.run(); });

  std::size_t sessions = 0;
  for (auto _ : state) {
    std::vector<std::thread> pushers;
    pushers.reserve(clients);
    std::atomic<std::size_t> failed{0};
    for (std::size_t i = 0; i < clients; ++i) {
      pushers.emplace_back([i, port, &failed] {
        Replica self(ReplicaId(100 + i),
                     Filter::addresses({HostId(100 + i)}));
        self.create(to(9), {static_cast<std::uint8_t>(i)});
        dtn::EpidemicPolicy policy;
        try {
          const auto connection = net::tcp_connect("127.0.0.1", port);
          const auto outcome = net::run_client_session(
              *connection, self, &policy, net::SyncMode::Push,
              SimTime(0));
          if (outcome.transport_failed) failed.fetch_add(1);
        } catch (const net::TransportError&) {
          failed.fetch_add(1);
        }
      });
    }
    for (std::thread& pusher : pushers) pusher.join();
    if (failed.load() != 0) state.SkipWithError("push sessions failed");
    sessions += clients;
  }
  server.shutdown();
  serving.join();

  state.SetItemsProcessed(static_cast<std::int64_t>(sessions));
  state.counters["sessions_per_second"] = benchmark::Counter(
      static_cast<double>(sessions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeConcurrentSessions)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
