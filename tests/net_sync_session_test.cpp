#include "net/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "net/tcp.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::ForwardingPolicy;
using repl::Item;
using repl::Priority;
using repl::PriorityClass;
using repl::Replica;
using repl::SyncContext;
using repl::SyncOptions;
using repl::TransientView;

std::map<std::string, std::string> to(std::uint64_t dest) {
  return {{repl::meta::kDest, std::to_string(dest)}};
}

/// Forward everything, and touch per-copy transient state so the test
/// exercises the on_forward mutation path.
class ForwardAll : public ForwardingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "all"; }
  std::vector<std::uint8_t> generate_request(
      const SyncContext&) override {
    return {0x11, 0x22};
  }
  Priority to_send(const SyncContext&, TransientView) override {
    return Priority::at(PriorityClass::Normal);
  }
  void on_forward(const SyncContext&, TransientView stored,
                  TransientView outgoing) override {
    stored.set_int("hops", stored.get_int("hops").value_or(0) + 1);
    outgoing.set_int("hops", stored.get_int("hops").value_or(0));
  }
};

/// One reproducible two-replica world.
struct World {
  Replica source;
  Replica target;
  ForwardAll source_policy;
  ForwardAll target_policy;

  World()
      : source(ReplicaId(1), Filter::addresses({HostId(5)})),
        target(ReplicaId(2), Filter::addresses({HostId(9)})) {
    source.create(to(9), {'a'});           // matches target filter
    source.create(to(9), {'b', 'b'});      // matches target filter
    source.create(to(7), {'c'});           // policy extra
    const Item& doomed = source.create(to(9), {'d'});
    source.erase(doomed.id());             // tombstone travels too
  }
};

TEST(SyncSession, ReportedBytesMatchWireSizeHelpers) {
  World world;
  const repl::SyncRequest request = repl::make_request(
      world.target, &world.target_policy, world.source.id(), SimTime(0));
  World fresh;  // request generation above consumed no state, but keep
                // the measured sync pristine anyway
  const auto outcome = sync_over_loopback(
      fresh.source, fresh.target, &fresh.source_policy,
      &fresh.target_policy, SimTime(0));
  ByteWriter request_payload;
  request.serialize(request_payload);
  EXPECT_EQ(outcome.client.result.stats.request_bytes,
            framed_size(request_payload.size()));
  // Request + batch frames are everything that crossed the link.
  EXPECT_EQ(outcome.bytes_delivered,
            outcome.client.result.stats.request_bytes +
                outcome.client.result.stats.batch_bytes);
}

/// The heart of the fault-injection coverage: kill the contact after
/// every possible byte budget (which includes every frame boundary)
/// and require the target's invariants, partial-application semantics
/// and no-knowledge-from-incomplete-sync guarantee to hold throughout.
TEST(SyncSession, SurvivesLinkCutAtEveryByte) {
  std::size_t total = 0;
  std::size_t expected_items = 0;
  {
    World world;
    const auto fault_free = sync_over_loopback(
        world.source, world.target, &world.source_policy,
        &world.target_policy, SimTime(0));
    total = fault_free.bytes_delivered;
    expected_items = fault_free.client.result.stats.items_sent;
  }
  ASSERT_GT(total, 0u);
  ASSERT_GT(expected_items, 0u);

  for (std::size_t cut = 0; cut <= total; ++cut) {
    World world;
    const auto outcome = sync_over_loopback(
        world.source, world.target, &world.source_policy,
        &world.target_policy, SimTime(0), {}, cut);
    const auto& stats = outcome.client.result.stats;

    if (cut < total) {
      EXPECT_TRUE(outcome.client.transport_failed) << "cut=" << cut;
      EXPECT_FALSE(stats.complete) << "cut=" << cut;
      // Knowledge is never learned from an incomplete sync.
      EXPECT_TRUE(world.target.knowledge().fragments().empty())
          << "cut=" << cut;
    } else {
      EXPECT_FALSE(outcome.client.transport_failed);
      EXPECT_TRUE(stats.complete);
    }
    // Only fully received items were applied.
    EXPECT_LE(stats.items_sent, expected_items) << "cut=" << cut;
    // Store/knowledge soundness holds at both ends regardless of
    // where the contact died.
    EXPECT_EQ(world.target.check_invariants(), "") << "cut=" << cut;
    EXPECT_EQ(world.source.check_invariants(), "") << "cut=" << cut;

    // A later, unconstrained contact repairs everything: the withheld
    // items are re-sent (at-most-once still holds for what arrived).
    const auto repair =
        repl::run_sync(world.source, world.target, &world.source_policy,
                       &world.target_policy, SimTime(1));
    EXPECT_TRUE(repair.stats.complete);
    EXPECT_EQ(stats.items_new + repair.stats.items_new, expected_items)
        << "cut=" << cut;
    EXPECT_EQ(repair.stats.items_stale, 0u)
        << "cut=" << cut << " (duplicate transmission)";
    EXPECT_EQ(world.target.check_invariants(), "");
  }
}

TEST(SyncSession, FailedRequestMeansNoSyncAtAll) {
  World world;
  const auto outcome = sync_over_loopback(
      world.source, world.target, &world.source_policy,
      &world.target_policy, SimTime(0), {}, 0);  // nothing crosses
  EXPECT_TRUE(outcome.client.transport_failed);
  EXPECT_TRUE(outcome.server.transport_failed);
  EXPECT_EQ(outcome.client.result.stats.items_sent, 0u);
  EXPECT_FALSE(outcome.client.result.stats.complete);
  EXPECT_EQ(world.target.store().size(), 0u);
}

TEST(SyncSession, LearnKnowledgeOptionRespectedOverLoopback) {
  World world;
  SyncOptions options;
  options.learn_knowledge = false;
  const auto outcome = sync_over_loopback(
      world.source, world.target, &world.source_policy,
      &world.target_policy, SimTime(0), options);
  EXPECT_TRUE(outcome.client.result.stats.complete);
  EXPECT_TRUE(world.target.knowledge().fragments().empty());
}

TEST(SummaryNegotiation, FeatureFreeHelloIsByteIdenticalToLegacy) {
  HelloInfo legacy;
  legacy.replica = ReplicaId(5);
  legacy.mode = SyncMode::Encounter;
  const auto bare = encode_hello(legacy);
  HelloInfo advertising = legacy;
  advertising.features = kFeatureSummaryExchange;
  const auto with_features = encode_hello(advertising);
  // Features append one uvarint; a zero-features hello stays byte-
  // identical to the pre-summary wire format, so legacy peers (whose
  // decoder requires the payload to end after the mode byte) are
  // never shown bytes they cannot parse.
  EXPECT_EQ(with_features.size(), bare.size() + 1);
  EXPECT_EQ(std::vector<std::uint8_t>(with_features.begin(),
                                      with_features.end() - 1),
            bare);
  EXPECT_EQ(decode_hello(bare).features, 0u);
  EXPECT_EQ(decode_hello(with_features).features,
            kFeatureSummaryExchange);
  EXPECT_EQ(decode_hello(with_features).replica, legacy.replica);
}

TEST(SummaryNegotiation, ResolveSummaryModeMatrix) {
  using repl::SummaryMode;
  const std::uint64_t none = 0;
  const std::uint64_t feat = kFeatureSummaryExchange;
  EXPECT_EQ(resolve_summary_mode(SummaryMode::On, none), SummaryMode::On);
  EXPECT_EQ(resolve_summary_mode(SummaryMode::On, feat), SummaryMode::On);
  EXPECT_EQ(resolve_summary_mode(SummaryMode::Off, none),
            SummaryMode::Off);
  EXPECT_EQ(resolve_summary_mode(SummaryMode::Off, feat),
            SummaryMode::Off);
  EXPECT_EQ(resolve_summary_mode(SummaryMode::Auto, none),
            SummaryMode::Off);
  EXPECT_EQ(resolve_summary_mode(SummaryMode::Auto, feat),
            SummaryMode::On);
}

/// One full TCP session under a (client mode, server mode) pair.
struct SessionEnds {
  ClientSessionOutcome client;
  ServerSessionOutcome server;
};

SessionEnds run_modes(Replica& client_replica, Replica& server_replica,
                      repl::SummaryMode client_mode,
                      repl::SummaryMode server_mode, SimTime now) {
  SessionEnds ends;
  SyncOptions client_options;
  client_options.summary_mode = client_mode;
  SyncOptions server_options;
  server_options.summary_mode = server_mode;
  TcpListener listener(0);
  std::thread server([&] {
    auto connection = listener.accept();
    ends.server = serve_session(*connection, server_replica, nullptr,
                                now, server_options);
  });
  auto connection = tcp_connect("127.0.0.1", listener.port());
  ends.client =
      run_client_session(*connection, client_replica, nullptr,
                         SyncMode::Encounter, now, client_options);
  server.join();
  return ends;
}

TEST(SummaryNegotiation, EveryCompatibleModePairingConverges) {
  using repl::SummaryMode;
  // On forces the fast path, so On-vs-Off is a misconfiguration; every
  // other pairing must negotiate a working protocol and converge.
  const std::pair<SummaryMode, SummaryMode> pairings[] = {
      {SummaryMode::Off, SummaryMode::Off},
      {SummaryMode::Off, SummaryMode::Auto},
      {SummaryMode::Auto, SummaryMode::Off},
      {SummaryMode::Auto, SummaryMode::Auto},
      {SummaryMode::On, SummaryMode::Auto},
      {SummaryMode::Auto, SummaryMode::On},
      {SummaryMode::On, SummaryMode::On},
  };
  for (const auto& [client_mode, server_mode] : pairings) {
    Replica server_replica(ReplicaId(1), Filter::addresses({HostId(5)}));
    Replica client_replica(ReplicaId(2), Filter::addresses({HostId(9)}));
    server_replica.create(to(9), {'s'});
    client_replica.create(to(5), {'c'});
    const SessionEnds ends = run_modes(client_replica, server_replica,
                                       client_mode, server_mode,
                                       SimTime(0));
    const std::string where =
        "client=" + std::to_string(static_cast<int>(client_mode)) +
        " server=" + std::to_string(static_cast<int>(server_mode));
    EXPECT_FALSE(ends.client.transport_failed) << where;
    EXPECT_FALSE(ends.server.transport_failed) << where;
    EXPECT_EQ(client_replica.store().size(), 2u) << where;
    EXPECT_EQ(server_replica.store().size(), 2u) << where;
    EXPECT_EQ(client_replica.check_invariants(), "") << where;
    EXPECT_EQ(server_replica.check_invariants(), "") << where;
  }
}

TEST(SummaryNegotiation, AutoUsesTheFastPathOnceConverged) {
  // Two universal-filter replicas converge, then sync again under
  // Auto/Auto and Off/Off: the negotiated summary session must spend
  // fewer request bytes (a digest instead of the full knowledge),
  // proving the fast path really engaged through the handshake.
  using repl::SummaryMode;
  // Enough accumulated history that the exact knowledge dwarfs a
  // fixed-size digest — the fast path's advantage only exists at
  // scale, and authored prefixes collapse into O(authors) bytes, so
  // the bulk must come from sparse exact events (the shape eviction
  // and out-of-order arrival leave behind).
  const auto converged_pair = [](Replica& a, Replica& b) {
    a.create(to(9), {'a'});
    b.create(to(5), {'b'});
    for (std::uint64_t c = 1; c <= 300; ++c) {
      const repl::Version seen{ReplicaId(7), 2 * c, 1};
      a.knowledge_mutable().add_exact(seen);
      b.knowledge_mutable().add_exact(seen);
    }
    (void)encounter_over_loopback(a, b, nullptr, nullptr, SimTime(0));
  };
  Replica auto_server(ReplicaId(1), Filter::all());
  Replica auto_client(ReplicaId(2), Filter::all());
  converged_pair(auto_server, auto_client);
  Replica off_server(ReplicaId(1), Filter::all());
  Replica off_client(ReplicaId(2), Filter::all());
  converged_pair(off_server, off_client);
  ASSERT_EQ(auto_client.knowledge().wire_digest(),
            auto_server.knowledge().wire_digest());

  const SessionEnds fast =
      run_modes(auto_client, auto_server, SummaryMode::Auto,
                SummaryMode::Auto, SimTime(1));
  const SessionEnds exact =
      run_modes(off_client, off_server, SummaryMode::Off,
                SummaryMode::Off, SimTime(1));
  ASSERT_FALSE(fast.client.transport_failed);
  ASSERT_FALSE(exact.client.transport_failed);
  EXPECT_EQ(fast.client.pull.result.stats.items_sent, 0u);
  EXPECT_LT(fast.client.pull.result.stats.request_bytes,
            exact.client.pull.result.stats.request_bytes);
  EXPECT_LT(fast.client.pull.result.stats.batch_bytes,
            exact.client.pull.result.stats.batch_bytes);
}

/// Connection that reads a fixed byte script and lets `write_budget`
/// bytes through before the link dies mid-write (TransportError past
/// either end).
class CutConnection : public Connection {
 public:
  CutConnection(std::vector<std::uint8_t> script, std::size_t write_budget)
      : script_(std::move(script)), write_budget_(write_budget) {}

  void write(const std::uint8_t*, std::size_t size) override {
    const std::size_t delivered = std::min(size, write_budget_);
    write_budget_ -= delivered;
    if (delivered < size) throw TransportError("test: link cut");
  }
  void read(std::uint8_t* data, std::size_t size) override {
    if (size > script_.size() - position_)
      throw TransportError("test: script ended");
    std::copy_n(script_.begin() + static_cast<std::ptrdiff_t>(position_),
                size, data);
    position_ += size;
  }
  void close() override {}

 private:
  std::vector<std::uint8_t> script_;
  std::size_t position_ = 0;
  std::size_t write_budget_;
};

/// A warm summary sync whose exact fallback is cut mid-frame: a
/// SummaryRequest opener (30 B), the source's SummaryMiss (9 B), and
/// the fallback Request (20 B) cut after 10 B. The target consumed the
/// miss, so its batch_bytes counts it, whether the in-process pump or
/// the blocking loop drives it.
TEST(SyncSession, CutFallbackCountsTheConsumedSummaryMiss) {
  constexpr std::size_t kOpener = 30;
  constexpr std::size_t kMiss = 9;
  constexpr std::size_t kFallback = 20;
  SyncOptions summary_on;
  summary_on.summary_mode = repl::SummaryMode::On;
  // The target knows the item it pulled, which the source still
  // stores, but not the source's newer one: the digests differ and the
  // Bloom filter hits, so the source answers SummaryMiss.
  const auto warm = [](Replica& source, Replica& target) {
    source.create(to(9), {'a'});
    (void)repl::run_sync(source, target, nullptr, nullptr, SimTime(0));
    source.create(to(7), {'b'});
  };

  Replica source(ReplicaId(1), Filter::addresses({HostId(5)}));
  Replica target(ReplicaId(2), Filter::addresses({HostId(9)}));
  ForwardAll target_policy;  // a two-byte routing blob in both requests
  warm(source, target);
  const auto fault_free = sync_over_loopback(
      source, target, nullptr, &target_policy, SimTime(1), summary_on);
  ASSERT_EQ(fault_free.client.result.stats.request_bytes,
            kOpener + kFallback);

  Replica cut_source(ReplicaId(1), Filter::addresses({HostId(5)}));
  Replica cut_target(ReplicaId(2), Filter::addresses({HostId(9)}));
  warm(cut_source, cut_target);
  const auto pumped =
      sync_over_loopback(cut_source, cut_target, nullptr, &target_policy,
                         SimTime(1), summary_on,
                         kOpener + kMiss + kFallback / 2);
  EXPECT_TRUE(pumped.client.transport_failed);
  EXPECT_TRUE(pumped.server.transport_failed);
  EXPECT_EQ(pumped.client.result.stats.request_bytes, kOpener);
  EXPECT_EQ(pumped.client.result.stats.batch_bytes, kMiss);
  EXPECT_EQ(pumped.bytes_delivered, kOpener + kMiss + kFallback / 2);

  // The blocking loop, fed the same bytes: the SummaryMiss to read,
  // and a link that dies 10 B into the fallback write.
  std::vector<std::uint8_t> miss;
  SessionBudget encoding;
  BufferFrameSink(miss, encoding)
      .send(repl::SyncFrame::SummaryMiss,
            repl::encode_summary_reply(cut_source.id()));
  ASSERT_EQ(miss.size(), kMiss);
  Replica blocking_source(ReplicaId(1), Filter::addresses({HostId(5)}));
  Replica blocking_target(ReplicaId(2), Filter::addresses({HostId(9)}));
  warm(blocking_source, blocking_target);
  CutConnection link(miss, kOpener + kFallback / 2);
  SessionBudget budget;
  TargetSession session(blocking_target, &target_policy, summary_on,
                        budget);
  ConnectionFrameSink sink(link, budget);
  session.start(sink, blocking_source.id(), SimTime(1));
  run_blocking(link, budget, session);
  const NetSyncResult blocking = session.take_result();
  EXPECT_TRUE(blocking.transport_failed);
  EXPECT_EQ(blocking.result.stats.request_bytes, kOpener);
  EXPECT_EQ(blocking.result.stats.batch_bytes, kMiss);
}

}  // namespace
}  // namespace pfrdtn::net
