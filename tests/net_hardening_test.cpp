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

  // A clean session resets the consecutive-failure count but not the
  // ejection record — one good sync must not launder a long rap sheet.
  table.reward("10.0.0.1", options.max_backoff_ms);
  EXPECT_EQ(table.consecutive_failures("10.0.0.1"), 0u);
  EXPECT_GT(table.strikes("10.0.0.1"), 0u);

  // Quiet time is what forgives: after enough violation-free decay
  // intervals the ejection count reaches zero and the peer is clean.
  const std::uint64_t much_later = 10'000'000;
  EXPECT_FALSE(table.admit("10.0.0.1", much_later).rejected);
  EXPECT_EQ(table.strikes("10.0.0.1"), 0u);
}

TEST(Quarantine, DeterministicUnderSeededJitter) {
  QuarantineTable a;  // default jitter_seed
  QuarantineTable b;
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(a.punish("peer", 0), b.punish("peer", 0));
}

QuarantineOptions outlier_options() {
  QuarantineOptions options;
  options.consecutive_failure_threshold = 3;
  // Silence the rate monitor so each test isolates one monitor.
  options.error_rate_min_outcomes = 100;
  return options;
}

TEST(Quarantine, ConsecutiveFailureThresholdGatesEjection) {
  QuarantineTable table(outlier_options());
  // Two violations in a row: recorded, but below the threshold — the
  // peer is still admitted and holds no ejection.
  EXPECT_EQ(table.punish("peer", 0), 0u);
  EXPECT_EQ(table.punish("peer", 10), 0u);
  EXPECT_EQ(table.consecutive_failures("peer"), 2u);
  EXPECT_EQ(table.strikes("peer"), 0u);
  EXPECT_FALSE(table.admit("peer", 20).rejected);
  // The third trips the monitor.
  EXPECT_GT(table.punish("peer", 30), 0u);
  EXPECT_EQ(table.strikes("peer"), 1u);
  EXPECT_TRUE(table.admit("peer", 31).rejected);
}

TEST(Quarantine, CleanSessionsBreakAConsecutiveRun) {
  QuarantineTable table(outlier_options());
  // fail, fail, clean, fail, fail, clean, ... — never three in a row,
  // never ejected, no matter how long it goes on.
  std::uint64_t now = 0;
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(table.punish("peer", now++), 0u);
    EXPECT_EQ(table.punish("peer", now++), 0u);
    table.reward("peer", now++);
    EXPECT_EQ(table.consecutive_failures("peer"), 0u);
  }
  EXPECT_EQ(table.strikes("peer"), 0u);
  EXPECT_FALSE(table.admit("peer", now).rejected);
}

TEST(Quarantine, ErrorRateEjectsAFlappingPeer) {
  // The peer the consecutive monitor alone can never catch: it
  // interleaves a clean session after every violation, so the run
  // length is always 1 — but half its sessions are violations.
  QuarantineOptions options;
  options.consecutive_failure_threshold = 100;  // effectively off
  options.error_rate_threshold = 0.5;
  options.error_rate_min_outcomes = 10;
  QuarantineTable table(options);
  std::uint64_t ejected_at = 0;
  std::uint64_t now = 10;
  for (int round = 0; round < 8 && ejected_at == 0; ++round) {
    const std::uint64_t window = table.punish("peer", now);
    if (window > 0) ejected_at = now;
    table.reward("peer", now + 5);  // run length never exceeds 1
    EXPECT_LE(table.consecutive_failures("peer"), 1u);
    now += 10;
  }
  EXPECT_GT(ejected_at, 0u) << "flapping peer was never ejected";
  EXPECT_GE(table.error_rate("peer", ejected_at), 0.5);
  EXPECT_EQ(table.strikes("peer"), 1u);
}

TEST(Quarantine, ErrorRateNeedsEnoughOutcomes) {
  // A 100% violation rate over too few sessions is not yet a verdict:
  // below error_rate_min_outcomes the rate monitor stays silent.
  QuarantineOptions options;
  options.consecutive_failure_threshold = 100;
  options.error_rate_min_outcomes = 10;
  QuarantineTable table(options);
  for (int i = 0; i < 9; ++i)
    EXPECT_EQ(table.punish("peer", static_cast<std::uint64_t>(i)), 0u);
  EXPECT_EQ(table.error_rate("peer", 9), 1.0);
  EXPECT_EQ(table.strikes("peer"), 0u);
  // The tenth outcome completes the sample and trips it.
  EXPECT_GT(table.punish("peer", 9), 0u);
}

TEST(Quarantine, OldOutcomesFallOutOfTheRateWindow) {
  QuarantineOptions options;
  options.consecutive_failure_threshold = 100;
  options.error_rate_min_outcomes = 10;
  options.history_window_ms = 1000;
  QuarantineTable table(options);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(table.punish("peer", 0), 0u);
  EXPECT_EQ(table.error_rate("peer", 0), 1.0);
  // The whole burst ages out of the window: the rate view is clean,
  // and a single fresh violation does not trip the monitor (the nine
  // expired outcomes no longer count toward min_outcomes either).
  EXPECT_EQ(table.error_rate("peer", 2000), 0.0);
  EXPECT_EQ(table.punish("peer", 2000), 0u);
  EXPECT_EQ(table.strikes("peer"), 0u);
}

TEST(Quarantine, EjectionsDecayOneIntervalAtATime) {
  QuarantineOptions options;
  options.base_backoff_ms = 100;
  options.ejection_decay_ms = 1000;
  options.history_window_ms = 500;
  QuarantineTable table(options);
  // Three ejections (threshold 1 = legacy strike-per-violation).
  table.punish("peer", 0);
  table.punish("peer", 0);
  table.punish("peer", 0);
  EXPECT_EQ(table.strikes("peer"), 3u);
  // Quiet time forgives stepwise: one interval, one ejection.
  EXPECT_FALSE(table.admit("peer", 1500).rejected);
  EXPECT_EQ(table.strikes("peer"), 2u);
  EXPECT_FALSE(table.admit("peer", 2500).rejected);
  EXPECT_EQ(table.strikes("peer"), 1u);
  EXPECT_FALSE(table.admit("peer", 3500).rejected);
  EXPECT_EQ(table.strikes("peer"), 0u);
  // Fully neutral entries are dropped from the table entirely.
  EXPECT_EQ(table.quarantined_peers(), 0u);
  // The next violation starts the ladder from the bottom window.
  const std::uint64_t window = table.punish("peer", 4000);
  EXPECT_GE(window, 50u);
  EXPECT_LE(window, 100u);
}

TEST(Quarantine, ActiveOffendersEarnNoDecay) {
  QuarantineOptions options;
  options.base_backoff_ms = 1;
  options.ejection_decay_ms = 1000;
  QuarantineTable table(options);
  // A violation every half interval: decay_from_ms advances with each
  // offense, so the quiet clock never completes an interval and the
  // ejection count only climbs.
  std::uint64_t now = 0;
  for (int i = 0; i < 6; ++i) {
    table.punish("peer", now);
    now += 500;
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
