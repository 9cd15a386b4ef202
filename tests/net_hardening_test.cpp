// The hardened session boundary in isolation: resource budgets reject
// hostile frame headers before any allocation, the decode element
// budget bounds codec work, the quarantine table escalates and decays
// deterministically, and both transports cut slow-loris peers via the
// absolute session deadline that per-op timeouts alone cannot provide.

#include "net/limits.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "net/framing.hpp"
#include "net/loopback.hpp"
#include "net/quarantine.hpp"
#include "net/tcp.hpp"

namespace pfrdtn::net {
namespace {

ResourceLimits tight_limits() {
  ResourceLimits limits;
  limits.max_request_bytes = 128;
  limits.max_item_bytes = 64;
  limits.max_batch_items = 4;
  limits.max_knowledge_entries = 8;
  limits.max_policy_blob_bytes = 16;
  limits.max_decode_elements = 32;
  limits.session_byte_ceiling = 1024;
  return limits;
}

TEST(Limits, PerTypePayloadCaps) {
  const ResourceLimits limits = tight_limits();
  EXPECT_EQ(limits.frame_payload_cap(
                static_cast<std::uint8_t>(repl::SyncFrame::Request)),
            128u);
  EXPECT_EQ(limits.frame_payload_cap(
                static_cast<std::uint8_t>(repl::SyncFrame::BatchItem)),
            64u);
  // A frame type outside the protocol is itself a violation.
  EXPECT_THROW(static_cast<void>(limits.frame_payload_cap(0x77)),
               ContractViolation);
}

TEST(Limits, AdmitFrameRejectsOverCapHeaders) {
  SessionBudget budget(tight_limits());
  const auto request =
      static_cast<std::uint8_t>(repl::SyncFrame::Request);
  EXPECT_NO_THROW(budget.admit_frame(request, 128));
  EXPECT_THROW(budget.admit_frame(request, 129), ResourceLimitError);
  // ResourceLimitError stays inside the ContractViolation taxonomy so
  // existing containment (serve's catch, the harness) already handles
  // it; the distinct type is for quarantine logging.
  EXPECT_THROW(budget.admit_frame(request, 129), ContractViolation);
}

TEST(Limits, SessionByteCeilingAccumulatesAcrossFrames) {
  ResourceLimits limits = tight_limits();
  limits.session_byte_ceiling = 100;
  SessionBudget budget(limits);
  budget.charge(60);
  budget.charge(40);  // exactly at the ceiling: still fine
  EXPECT_EQ(budget.bytes_used(), 100u);
  EXPECT_THROW(budget.charge(1), ResourceLimitError);
}

TEST(Limits, OversizeHeaderRejectedBeforePayloadIsRead) {
  // The attacker sends ONLY an eight-byte header claiming an over-cap
  // payload — not a single payload byte follows. On the sequential
  // loopback a read past the buffered bytes would surface as a
  // transport error, so getting ResourceLimitError proves the header
  // was rejected before any payload read or buffer allocation.
  LoopbackLink link;
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(repl::SyncFrame::Request),
                      129, header);
  link.a().write(header, sizeof(header));

  SessionBudget budget(tight_limits());
  try {
    read_frame(link.b(), budget);
    FAIL() << "over-cap header was not rejected";
  } catch (const ResourceLimitError& rejected) {
    EXPECT_NE(std::string(rejected.what()).find("Request"),
              std::string::npos);
  }
}

TEST(Limits, ElementBudgetBoundsDecodeWork) {
  const std::vector<std::uint8_t> payload(16, 0);
  ByteReader r(payload);
  r.set_element_budget(2);
  r.charge_elements();
  r.charge_elements();
  EXPECT_THROW(r.charge_elements(), ContractViolation);
}

TEST(Quarantine, StrikesEscalateAndWindowsDecay) {
  QuarantineOptions options;
  options.base_backoff_ms = 1000;
  options.max_backoff_ms = 8000;
  QuarantineTable table(options);

  // Unknown peers sail through.
  EXPECT_FALSE(table.admit("10.0.0.1", 0).rejected);

  const std::uint64_t first = table.punish("10.0.0.1", 0);
  EXPECT_GE(first, 500u);  // window/2 + jitter in [0, window/2]
  EXPECT_LE(first, 1000u);
  EXPECT_EQ(table.strikes("10.0.0.1"), 1u);

  // Inside the window: rejected, and the rejection is counted.
  const AdmitDecision rejected = table.admit("10.0.0.1", first - 1);
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(rejected.strikes, 1u);
  EXPECT_EQ(rejected.rejections, 1u);
  EXPECT_EQ(rejected.retry_after_ms, 1u);
  EXPECT_EQ(table.total_rejections(), 1u);

  // After the window: admitted, but strikes persist so a repeat
  // offender escalates instead of starting over.
  EXPECT_FALSE(table.admit("10.0.0.1", first).rejected);
  const std::uint64_t second = table.punish("10.0.0.1", first);
  EXPECT_GE(second, 1000u);  // doubled base, same jitter band
  EXPECT_LE(second, 2000u);

  // Escalation is capped: many strikes never exceed max_backoff_ms.
  std::uint64_t window = 0;
  for (int i = 0; i < 20; ++i) window = table.punish("10.0.0.1", 0);
  EXPECT_LE(window, options.max_backoff_ms);
  EXPECT_GE(window, options.max_backoff_ms / 2);

  // A clean session forgives nothing — one good sync must not launder
  // a long rap sheet.
  const std::size_t strikes = table.strikes("10.0.0.1");
  table.reward("10.0.0.1", options.max_backoff_ms);
  EXPECT_EQ(table.strikes("10.0.0.1"), strikes);

  // Quiet time is what forgives: after enough violation-free decay
  // intervals the ejection count reaches zero and the peer is clean.
  const std::uint64_t much_later = 10'000'000;
  EXPECT_FALSE(table.admit("10.0.0.1", much_later).rejected);
  EXPECT_EQ(table.strikes("10.0.0.1"), 0u);
}

TEST(Quarantine, DeterministicUnderSeededJitter) {
  QuarantineTable a;  // fixed jitter seed
  QuarantineTable b;
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(a.punish("peer", 0), b.punish("peer", 0));
}

TEST(Quarantine, FirstViolationEjects) {
  QuarantineTable table;
  const std::uint64_t window = table.punish("peer", 0);
  EXPECT_GE(window, 500u);
  EXPECT_EQ(table.strikes("peer"), 1u);
  EXPECT_TRUE(table.admit("peer", 1).rejected);
  // Clean sessions in between do not soften the rule: a peer that
  // alternates violations with clean sessions is ejected every time.
  std::uint64_t now = window;
  for (std::size_t round = 2; round <= 4; ++round) {
    EXPECT_FALSE(table.admit("peer", now).rejected);
    table.reward("peer", now);
    const std::uint64_t next = table.punish("peer", now + 1);
    EXPECT_GT(next, 0u);
    EXPECT_EQ(table.strikes("peer"), round);
    EXPECT_TRUE(table.admit("peer", now + 2).rejected);
    now += 1 + next;
  }
}

TEST(Quarantine, FullyForgivenPeerLeavesTheTable) {
  QuarantineOptions options;
  options.base_backoff_ms = 100;
  QuarantineTable table(options);
  table.punish("peer", 0);
  EXPECT_TRUE(table.admit("peer", 1).rejected);
  // Quiet short of one decay interval forgives nothing.
  table.reward("peer", kEjectionDecayMs - 1);
  EXPECT_EQ(table.strikes("peer"), 1u);
  EXPECT_EQ(table.quarantined_peers(), 1u);
  // One full interval forgives the only ejection: the peer leaves the
  // table, its rejection count with it.
  table.reward("peer", kEjectionDecayMs);
  EXPECT_EQ(table.quarantined_peers(), 0u);
  table.punish("peer", kEjectionDecayMs + 1);
  EXPECT_EQ(table.strikes("peer"), 1u);
  EXPECT_EQ(table.admit("peer", kEjectionDecayMs + 2).rejections, 1u);
}

TEST(Quarantine, EjectionsDecayOneIntervalAtATime) {
  QuarantineOptions options;
  options.base_backoff_ms = 100;
  QuarantineTable table(options);
  // Three ejections.
  table.punish("peer", 0);
  table.punish("peer", 0);
  table.punish("peer", 0);
  EXPECT_EQ(table.strikes("peer"), 3u);
  // Quiet time forgives stepwise: one interval, one ejection.
  const std::uint64_t half = kEjectionDecayMs / 2;
  EXPECT_FALSE(table.admit("peer", kEjectionDecayMs + half).rejected);
  EXPECT_EQ(table.strikes("peer"), 2u);
  EXPECT_FALSE(table.admit("peer", 2 * kEjectionDecayMs + half).rejected);
  EXPECT_EQ(table.strikes("peer"), 1u);
  EXPECT_FALSE(table.admit("peer", 3 * kEjectionDecayMs + half).rejected);
  EXPECT_EQ(table.strikes("peer"), 0u);
  // Fully forgiven entries are dropped from the table entirely.
  EXPECT_EQ(table.quarantined_peers(), 0u);
  // The next violation starts the ladder from the bottom window.
  const std::uint64_t window = table.punish("peer", 4 * kEjectionDecayMs);
  EXPECT_GE(window, 50u);
  EXPECT_LE(window, 100u);
}

TEST(Quarantine, ActiveOffendersEarnNoDecay) {
  QuarantineOptions options;
  options.base_backoff_ms = 1;
  QuarantineTable table(options);
  // A violation every half interval: the quiet clock restarts with
  // each offense, so it never completes an interval and the ejection
  // count only climbs.
  std::uint64_t now = 0;
  for (int i = 0; i < 6; ++i) {
    table.punish("peer", now);
    now += kEjectionDecayMs / 2;
  }
  EXPECT_EQ(table.strikes("peer"), 6u);
}

TEST(Loopback, SessionDeadlineCutsTrickledWrites) {
  // Simulated-time twin of the TCP slow-loris cut: each write charges
  // 0.1s of latency, the deadline is 0.35s, so the fourth write is the
  // one whose charge crosses the deadline and dies.
  LoopbackFaults faults;
  faults.latency_seconds = 0.1;
  faults.deadline_seconds = 0.35;
  LoopbackLink link(faults);
  const std::uint8_t byte = 0x55;
  link.a().write(&byte, 1);
  link.a().write(&byte, 1);
  link.a().write(&byte, 1);
  try {
    link.a().write(&byte, 1);
    FAIL() << "write past the deadline was not cut";
  } catch (const TransportError& cut) {
    EXPECT_NE(std::string(cut.what()).find("deadline"),
              std::string::npos);
  }
  // The link is dead from here on, in both directions.
  EXPECT_THROW(link.b().write(&byte, 1), TransportError);
}

TEST(Tcp, SlowLorisIsCutByTheSessionDeadline) {
  // The attack the per-op timeout cannot stop: one byte well inside
  // io_timeout_ms, forever. Only the absolute session deadline ends it.
  TcpOptions server_options;
  server_options.io_timeout_ms = 5000;
  server_options.session_deadline_ms = 400;
  TcpListener listener(0, server_options);

  std::string error;
  std::thread server([&] {
    const auto connection = listener.accept();
    std::uint8_t sink[64];
    try {
      connection->read(sink, sizeof(sink));
    } catch (const TransportError& cut) {
      error = cut.what();
    }
  });

  const auto client = tcp_connect("127.0.0.1", listener.port());
  const auto started = std::chrono::steady_clock::now();
  const std::uint8_t byte = 0x00;
  try {
    for (int i = 0; i < 50; ++i) {
      client->write(&byte, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  } catch (const TransportError&) {
    // Server hung up on us: exactly the point.
  }
  server.join();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_NE(error.find("session deadline exceeded"), std::string::npos)
      << "server read ended with: " << error;
  // Cut by the 400ms deadline, nowhere near the 5s per-op timeout.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000);
}

TEST(Tcp, MinimumProgressCutsAnIdlePeer) {
  // A peer that connects and then moves (almost) nothing: after the
  // grace period the required byte rate is unmet and the read dies,
  // even though the per-op timeout and deadline are both far away.
  TcpOptions server_options;
  server_options.io_timeout_ms = 10000;
  server_options.session_deadline_ms = 10000;
  server_options.min_bytes_per_second = 100000;
  server_options.min_progress_grace_ms = 200;
  TcpListener listener(0, server_options);

  std::string error;
  std::thread server([&] {
    const auto connection = listener.accept();
    std::uint8_t sink[64];
    try {
      connection->read(sink, sizeof(sink));
    } catch (const TransportError& cut) {
      error = cut.what();
    }
  });

  const auto client = tcp_connect("127.0.0.1", listener.port());
  const std::uint8_t byte = 0x00;
  try {
    for (int i = 0; i < 20; ++i) {
      client->write(&byte, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  } catch (const TransportError&) {
  }
  server.join();
  EXPECT_NE(error.find("minimum"), std::string::npos)
      << "server read ended with: " << error;
}

}  // namespace
}  // namespace pfrdtn::net
