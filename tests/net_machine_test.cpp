/// Drives the resumable session machines one frame at a time through
/// in-memory buffers — no transport, no threads — and cuts the link at
/// every frame boundary. This is the unit-level proof behind the epoll
/// server: ServerSessionMachine fed by a FrameDecoder behaves exactly
/// like the blocking serve path, at every step, under every truncation.

#include "net/session.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <optional>
#include <vector>

#include "net/limits.hpp"
#include "util/storage_error.hpp"

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
};

/// Client replica holds items of its own, so Push and Encounter move
/// data toward the server; the server holds items for the client, so
/// Pull moves data back.
struct World {
  Replica client;
  Replica server;
  ForwardAll client_policy;
  ForwardAll server_policy;

  World()
      : client(ReplicaId(1), Filter::addresses({HostId(5)})),
        server(ReplicaId(2), Filter::addresses({HostId(9)})) {
    client.create(to(9), {'a'});
    client.create(to(9), {'b', 'b'});
    const Item& doomed = client.create(to(9), {'d'});
    client.erase(doomed.id());
    server.create(to(5), {'x'});
    server.create(to(5), {'y', 'y'});
  }
};

std::vector<std::uint8_t> snapshot(const Replica& replica) {
  ByteWriter w;
  replica.store().for_each([&](const repl::ItemStore::Entry& entry) {
    entry.item.serialize(w);
  });
  replica.knowledge().serialize(w);
  return w.take();
}

/// The client half of a session, as machines: hello exchange, then the
/// target and/or source role per mode, frames in via on_frame and out
/// via its own BufferFrameSink — the mirror of ServerSessionMachine.
struct ClientDriver {
  enum class Phase { AwaitHello, Pull, Push, Done };

  Replica& self;
  ForwardingPolicy* policy;
  SyncMode mode;
  SyncOptions options;
  SessionBudget budget;
  std::vector<std::uint8_t> out;
  BufferFrameSink sink{out, budget};
  FrameDecoder decoder{budget};
  Phase phase = Phase::AwaitHello;
  std::optional<TargetSession> target;
  std::optional<SourceSession> source;
  std::optional<NetSyncResult> pulled;
  std::optional<SourceStats> pushed;
  ReplicaId server_id{};

  ClientDriver(Replica& self_in, ForwardingPolicy* policy_in,
               SyncMode mode_in, SyncOptions options_in = {})
      : self(self_in), policy(policy_in), mode(mode_in),
        options(options_in) {
    const std::uint64_t features =
        options.summary_mode != repl::SummaryMode::Off
            ? kFeatureSummaryExchange
            : 0;
    sink.send(repl::SyncFrame::Hello,
              encode_hello({self.id(), mode, features}));
  }

  [[nodiscard]] bool finished() const { return phase == Phase::Done; }

  void on_frame(const Frame& frame) {
    switch (phase) {
      case Phase::AwaitHello: {
        const HelloInfo hello = decode_hello(frame.payload);
        server_id = hello.replica;
        options.summary_mode = resolve_summary_mode(
            options.summary_mode, hello.features);
        if (mode == SyncMode::Pull || mode == SyncMode::Encounter) {
          target.emplace(self, policy, options, budget);
          target->start(sink, server_id, SimTime(0));
          phase = Phase::Pull;
          // A read-only replica refuses its own pull inside start():
          // the leg is already over, as run_client_session observes
          // via run_blocking returning at once.
          if (target->finished()) {
            pulled = target->take_result();
            if (mode == SyncMode::Encounter) {
              start_push();
            } else {
              phase = Phase::Done;
            }
          }
        } else {
          start_push();
        }
        return;
      }
      case Phase::Pull:
        target->on_frame(frame, sink);
        if (target->finished()) {
          pulled = target->take_result();
          if (mode == SyncMode::Encounter) {
            start_push();
          } else {
            phase = Phase::Done;
          }
        }
        return;
      case Phase::Push:
        source->on_frame(frame, sink);
        if (source->state() == SourceSession::State::Done ||
            source->state() == SourceSession::State::Failed) {
          pushed = source->take_stats();
          phase = Phase::Done;
        }
        return;
      case Phase::Done:
        FAIL() << "client got a frame after the session ended";
    }
  }

  void start_push() {
    source.emplace(self, policy, SimTime(0), options, budget);
    phase = Phase::Push;
  }
};

/// Pump one whole session between ClientDriver and ServerSessionMachine
/// one frame at a time, optionally replacing client->server frame
/// number `cut_before` (0-based) with a transport error.
struct Shuttle {
  World& world;
  ServerSessionMachine server;
  FrameDecoder server_decoder;
  std::vector<std::uint8_t> s2c;
  SessionBudget client_io_budget;  // decode accounting for the client
  BufferFrameSink server_sink;
  ClientDriver client;
  std::size_t delivered_to_server = 0;
  bool cut = false;

  Shuttle(World& world_in, SyncMode mode, SyncOptions options = {},
          const ResourceLimits& limits = {})
      : world(world_in),
        server(world.server, &world.server_policy, SimTime(0), options,
               limits),
        server_decoder(server.budget()),
        server_sink(s2c, server.budget()),
        client(world.client, &world.client_policy, mode, options) {}

  void run(std::size_t cut_before = static_cast<std::size_t>(-1)) {
    bool progress = true;
    while (progress) {
      progress = false;
      if (!client.out.empty()) {
        server_decoder.feed(client.out.data(), client.out.size());
        client.out.clear();
      }
      if (!server.finished()) {
        if (std::optional<Frame> frame = server_decoder.next()) {
          if (delivered_to_server == cut_before && !cut) {
            cut = true;
            server.on_transport_error("test: link cut");
          } else {
            server.on_frame(*frame, server_sink);
            ++delivered_to_server;
          }
          progress = true;
        }
      }
      if (!s2c.empty()) {
        client.decoder.feed(s2c.data(), s2c.size());
        s2c.clear();
      }
      if (!client.finished() && !cut) {
        if (std::optional<Frame> frame = client.decoder.next()) {
          client.on_frame(*frame);
          progress = true;
        }
      }
    }
  }
};

void expect_same_stats(const repl::SyncStats& a,
                       const repl::SyncStats& b) {
  EXPECT_EQ(a.items_sent, b.items_sent);
  EXPECT_EQ(a.items_new, b.items_new);
  EXPECT_EQ(a.items_stale, b.items_stale);
  EXPECT_EQ(a.request_bytes, b.request_bytes);
  EXPECT_EQ(a.batch_bytes, b.batch_bytes);
  EXPECT_EQ(a.complete, b.complete);
}

/// Frame-at-a-time sessions must equal the loopback-driven blocking
/// sessions in stats and in final replica bytes, for every mode.
TEST(MachineSession, PushMatchesLoopbackByteForByte) {
  World stepped;
  World blocking;
  Shuttle shuttle(stepped, SyncMode::Push);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);
  EXPECT_EQ(outcome.hello.replica, stepped.client.id());

  const auto reference = sync_over_loopback(
      blocking.client, blocking.server, &blocking.client_policy,
      &blocking.server_policy, SimTime(0));
  expect_same_stats(outcome.applied.result.stats,
                    reference.client.result.stats);
  EXPECT_EQ(snapshot(stepped.server), snapshot(blocking.server));
  EXPECT_EQ(snapshot(stepped.client), snapshot(blocking.client));
}

TEST(MachineSession, PullMatchesLoopbackByteForByte) {
  World stepped;
  World blocking;
  Shuttle shuttle(stepped, SyncMode::Pull);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);
  ASSERT_TRUE(shuttle.client.pulled.has_value());

  const auto reference = sync_over_loopback(
      blocking.server, blocking.client, &blocking.server_policy,
      &blocking.client_policy, SimTime(0));
  expect_same_stats(shuttle.client.pulled->result.stats,
                    reference.client.result.stats);
  expect_same_stats(outcome.served.stats, reference.server.stats);
  EXPECT_EQ(snapshot(stepped.client), snapshot(blocking.client));
  EXPECT_EQ(snapshot(stepped.server), snapshot(blocking.server));
}

TEST(MachineSession, EncounterMatchesLoopbackByteForByte) {
  World stepped;
  World blocking;
  Shuttle shuttle(stepped, SyncMode::Encounter);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);
  ASSERT_TRUE(shuttle.client.pulled.has_value());
  ASSERT_TRUE(shuttle.client.pushed.has_value());

  const auto reference = encounter_over_loopback(
      blocking.client, blocking.server, &blocking.client_policy,
      &blocking.server_policy, SimTime(0));
  expect_same_stats(shuttle.client.pulled->result.stats,
                    reference.a_pulled.result.stats);
  expect_same_stats(outcome.applied.result.stats,
                    reference.b_applied.result.stats);
  expect_same_stats(outcome.served.stats, reference.b_served.stats);
  EXPECT_EQ(snapshot(stepped.client), snapshot(blocking.client));
  EXPECT_EQ(snapshot(stepped.server), snapshot(blocking.server));
}

TEST(MachineSession, SummarySessionMatchesLoopback) {
  SyncOptions options;
  options.summary_mode = repl::SummaryMode::On;
  World stepped;
  World blocking;
  Shuttle shuttle(stepped, SyncMode::Encounter, options);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);

  const auto reference = encounter_over_loopback(
      blocking.client, blocking.server, &blocking.client_policy,
      &blocking.server_policy, SimTime(0), options);
  expect_same_stats(outcome.applied.result.stats,
                    reference.b_applied.result.stats);
  expect_same_stats(outcome.served.stats, reference.b_served.stats);
  EXPECT_EQ(snapshot(stepped.server), snapshot(blocking.server));
  EXPECT_EQ(snapshot(stepped.client), snapshot(blocking.client));
}

/// Cut the link before every client->server frame of an Encounter
/// session (the longest flow: hello + pull leg + push leg) and require
/// the server machine to absorb the failure at every step boundary:
/// outcome retrievable, transport_failed set, invariants intact, no
/// knowledge learned from the incomplete push, and a later contact
/// repairs everything.
TEST(MachineSession, SurvivesCutAtEveryFrameBoundary) {
  std::size_t total_frames = 0;
  std::size_t expected_new = 0;
  {
    World world;
    Shuttle shuttle(world, SyncMode::Encounter);
    shuttle.run();
    total_frames = shuttle.delivered_to_server;
    expected_new =
        shuttle.server.take_outcome().applied.result.stats.items_new;
  }
  ASSERT_GE(total_frames, 4u);  // hello, request, begin/items/end...

  for (std::size_t cut = 0; cut < total_frames; ++cut) {
    World world;
    Shuttle shuttle(world, SyncMode::Encounter);
    shuttle.run(cut);
    ASSERT_TRUE(shuttle.server.finished()) << "cut=" << cut;
    const ServerSessionOutcome outcome = shuttle.server.take_outcome();
    EXPECT_TRUE(outcome.transport_failed) << "cut=" << cut;
    // Once the push leg has moved any bytes, its truncation must be
    // visible as an incomplete sync. (Cuts before the target leg
    // starts leave `applied` in its default state, as the blocking
    // path always has.)
    if (outcome.applied.result.stats.batch_bytes > 0 ||
        outcome.applied.result.stats.items_new > 0) {
      EXPECT_FALSE(outcome.applied.result.stats.complete)
          << "cut=" << cut;
    }
    // Knowledge is never learned from an incomplete push.
    EXPECT_TRUE(world.server.knowledge().fragments().empty())
        << "cut=" << cut;
    EXPECT_EQ(world.server.check_invariants(), "") << "cut=" << cut;
    EXPECT_EQ(world.client.check_invariants(), "") << "cut=" << cut;
    EXPECT_LE(outcome.applied.result.stats.items_new, expected_new)
        << "cut=" << cut;

    // A later, unconstrained contact repairs the truncation without
    // re-applying what already arrived.
    const auto repair = repl::run_sync(
        world.client, world.server, &world.client_policy,
        &world.server_policy, SimTime(1));
    EXPECT_TRUE(repair.stats.complete) << "cut=" << cut;
    EXPECT_EQ(outcome.applied.result.stats.items_new +
                  repair.stats.items_new,
              expected_new)
        << "cut=" << cut;
    EXPECT_EQ(repair.stats.items_stale, 0u)
        << "cut=" << cut << " (duplicate transmission)";
  }
}

/// Same sweep with the summary fast path on: the machine's extra
/// states (SummarySent, AwaitExact fallback) get cut coverage too.
TEST(MachineSession, SurvivesCutAtEveryFrameBoundaryWithSummaries) {
  SyncOptions options;
  options.summary_mode = repl::SummaryMode::On;
  std::size_t total_frames = 0;
  {
    World world;
    Shuttle shuttle(world, SyncMode::Encounter, options);
    shuttle.run();
    total_frames = shuttle.delivered_to_server;
  }
  for (std::size_t cut = 0; cut < total_frames; ++cut) {
    World world;
    Shuttle shuttle(world, SyncMode::Encounter, options);
    shuttle.run(cut);
    ASSERT_TRUE(shuttle.server.finished()) << "cut=" << cut;
    const ServerSessionOutcome outcome = shuttle.server.take_outcome();
    EXPECT_TRUE(outcome.transport_failed) << "cut=" << cut;
    EXPECT_EQ(world.server.check_invariants(), "") << "cut=" << cut;
    EXPECT_EQ(world.client.check_invariants(), "") << "cut=" << cut;
  }
}

TEST(MachineSession, FrameAfterSessionEndIsAViolation) {
  World world;
  Shuttle shuttle(world, SyncMode::Push);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  std::vector<std::uint8_t> scratch;
  SessionBudget budget{ResourceLimits{}};
  BufferFrameSink sink(scratch, budget);
  Frame extra;
  extra.type = repl::SyncFrame::Hello;
  extra.payload = encode_hello({ReplicaId(1), SyncMode::Push, 0});
  extra.wire_bytes = kFrameHeaderSize + extra.payload.size();
  EXPECT_THROW(shuttle.server.on_frame(extra, sink), ContractViolation);
}

/// FrameDecoder must produce identical frames no matter how the byte
/// stream is chopped — one byte at a time included — and must admit
/// each header against the budget before materializing the payload.
TEST(FrameDecoder, ByteAtATimeEqualsOneShot) {
  // Encode a few frames of different sizes through a BufferFrameSink.
  std::vector<std::uint8_t> wire;
  SessionBudget encode_budget{ResourceLimits{}};
  BufferFrameSink sink(wire, encode_budget);
  sink.send(repl::SyncFrame::Hello,
            encode_hello({ReplicaId(7), SyncMode::Pull, 1}));
  sink.send(repl::SyncFrame::BatchEnd, std::vector<std::uint8_t>(100, 9));
  sink.send(repl::SyncFrame::BatchItem, {});

  SessionBudget one_budget{ResourceLimits{}};
  FrameDecoder one_shot(one_budget);
  one_shot.feed(wire.data(), wire.size());
  std::vector<Frame> expected;
  while (std::optional<Frame> frame = one_shot.next())
    expected.push_back(*frame);
  ASSERT_EQ(expected.size(), 3u);

  SessionBudget drip_budget{ResourceLimits{}};
  FrameDecoder dripped(drip_budget);
  std::vector<Frame> got;
  for (const std::uint8_t byte : wire) {
    dripped.feed(&byte, 1);
    while (std::optional<Frame> frame = dripped.next())
      got.push_back(*frame);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(static_cast<int>(got[i].type),
              static_cast<int>(expected[i].type));
    EXPECT_EQ(got[i].payload, expected[i].payload);
    EXPECT_EQ(got[i].wire_bytes, expected[i].wire_bytes);
  }
  EXPECT_EQ(dripped.buffered(), 0u);
  EXPECT_EQ(drip_budget.bytes_used(), one_budget.bytes_used());
}

TEST(FrameDecoder, OversizedFrameRejectedAtHeaderTime) {
  ResourceLimits limits;
  limits.max_request_bytes = 16;
  SessionBudget budget(limits);
  FrameDecoder decoder(budget);
  // A Request header announcing a payload far over the cap: the
  // decoder must throw on the 8 header bytes alone, before any payload
  // arrives or is allocated.
  std::vector<std::uint8_t> header(kFrameHeaderSize);
  encode_frame_header(static_cast<std::uint8_t>(repl::SyncFrame::Request),
                      1u << 20, header.data());
  decoder.feed(header.data(), header.size());
  EXPECT_THROW(decoder.next(), ResourceLimitError);
}

// ---- degraded read-only refusals -------------------------------------

/// A degraded read-only server refuses a push with a structured Error
/// frame: the client's source role ends as a graceful, transient
/// refusal — no violation, no transport failure, nothing applied.
TEST(MachineSession, ReadOnlyServerRefusesPushGracefully) {
  World world;
  world.server.set_read_only(true);
  const auto server_before = snapshot(world.server);

  Shuttle shuttle(world, SyncMode::Push);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);
  EXPECT_TRUE(outcome.applied.refused);
  EXPECT_FALSE(outcome.applied.transport_failed);
  EXPECT_FALSE(outcome.applied.result.stats.complete);

  ASSERT_TRUE(shuttle.client.pushed.has_value());
  EXPECT_TRUE(shuttle.client.pushed->refused);
  EXPECT_FALSE(shuttle.client.pushed->transport_failed);
  EXPECT_EQ(shuttle.client.pushed->stats.items_sent, 0u);
  EXPECT_NE(shuttle.client.pushed->error.find("read-only"),
            std::string::npos);
  EXPECT_EQ(snapshot(world.server), server_before);
}

/// A degraded server still serves pulls — only the mutating leg of an
/// encounter is refused, and the refusal does not fail the session.
TEST(MachineSession, ReadOnlyServerStillServesPullLegOfEncounter) {
  World world;
  world.server.set_read_only(true);

  Shuttle shuttle(world, SyncMode::Encounter);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);
  // Pull leg served normally...
  EXPECT_FALSE(outcome.served.transport_failed);
  EXPECT_GT(outcome.served.stats.items_sent, 0u);
  ASSERT_TRUE(shuttle.client.pulled.has_value());
  EXPECT_GT(shuttle.client.pulled->result.stats.items_new, 0u);
  // ...while the push leg was refused.
  EXPECT_TRUE(outcome.applied.refused);
  ASSERT_TRUE(shuttle.client.pushed.has_value());
  EXPECT_TRUE(shuttle.client.pushed->refused);
}

/// A degraded read-only client refuses its own pull up front (a pull
/// mutates the client), yet still pushes its acked data outward.
TEST(MachineSession, ReadOnlyClientRefusesPullButStillPushes) {
  World world;
  world.client.set_read_only(true);

  Shuttle shuttle(world, SyncMode::Encounter);
  shuttle.run();
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_FALSE(outcome.transport_failed);
  // The server's source role saw the Error opener: graceful refusal.
  EXPECT_TRUE(outcome.served.refused);
  EXPECT_EQ(outcome.served.stats.items_sent, 0u);
  ASSERT_TRUE(shuttle.client.pulled.has_value());
  EXPECT_TRUE(shuttle.client.pulled->refused);
  // The push leg moved the client's data anyway: pushing reads the
  // degraded replica, it never mutates it.
  EXPECT_FALSE(outcome.applied.refused);
  EXPECT_GT(outcome.applied.result.stats.items_new, 0u);
}

/// The loopback drive takes the same refusal path: both sides end
/// gracefully and the target applies nothing.
TEST(MachineSession, ReadOnlyTargetOverLoopbackIsGracefulBothSides) {
  World world;
  world.client.set_read_only(true);
  const auto outcome = sync_over_loopback(
      world.server, world.client, &world.server_policy,
      &world.client_policy, SimTime(0));
  EXPECT_TRUE(outcome.client.refused);
  EXPECT_FALSE(outcome.client.transport_failed);
  EXPECT_TRUE(outcome.server.refused);
  EXPECT_FALSE(outcome.server.transport_failed);
  EXPECT_EQ(outcome.client.result.stats.items_new, 0u);
}

/// A mutation sink that fails like a full disk as soon as it is armed.
class FaultingSink : public repl::ReplicaMutationSink {
 public:
  bool armed = false;
  void on_local_put(const Item&) override { maybe_throw(); }
  void on_apply_remote(const Item&) override { maybe_throw(); }
  void on_set_filter(const Filter&) override { maybe_throw(); }
  void on_discard_relay(ItemId) override { maybe_throw(); }
  void on_learn(const repl::Knowledge&) override { maybe_throw(); }
  void on_policy_state(
      ItemId, const std::map<std::string, std::string>&) override {}

 private:
  void maybe_throw() {
    if (armed) throw StorageError("write", "wal.1.log", ENOSPC);
  }
};

/// A local disk fault mid-apply escapes the machine as StorageError
/// (never a plain ContractViolation), and the host's containment —
/// on_transport_error — seals the session as a local failure with the
/// applied prefix kept. This is the contract the epoll server and
/// serve_session rely on to avoid striking the peer for our disk.
TEST(MachineSession, StorageFaultMidApplyIsLocalFailureNotViolation) {
  World world;
  FaultingSink sink;
  world.server.set_mutation_sink(&sink);
  sink.armed = true;

  Shuttle shuttle(world, SyncMode::Push);
  try {
    shuttle.run();
    FAIL() << "the faulting sink must surface its StorageError";
  } catch (const StorageError& fault) {
    EXPECT_EQ(fault.error_code(), ENOSPC);
  }
  ASSERT_FALSE(shuttle.server.finished());
  shuttle.server.on_transport_error("local storage fault: disk full");
  ASSERT_TRUE(shuttle.server.finished());
  const ServerSessionOutcome outcome = shuttle.server.take_outcome();
  EXPECT_TRUE(outcome.transport_failed);
  EXPECT_FALSE(outcome.applied.result.stats.complete);
  world.server.set_mutation_sink(nullptr);
}

}  // namespace
}  // namespace pfrdtn::net
