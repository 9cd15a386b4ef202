/// Robustness fuzzing of the net layer: the frame codec, the session
/// handshake decoders (Hello, BatchBegin) and the full receive-side
/// session state machines must, on arbitrary bytes, either parse or
/// throw (ContractViolation for malformed data, TransportError for a
/// dying link) — never crash, hang, or corrupt the replica. Run under
/// ASan/UBSan for full value (tools/ci.sh does).

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "net/framing.hpp"
#include "net/session.hpp"
#include "util/rng.hpp"

namespace pfrdtn::net {
namespace {

using repl::Filter;
using repl::Replica;

/// Connection whose reads serve a fixed byte script (TransportError
/// past the end, like a link that died) and whose writes are recorded.
class ScriptedConnection : public Connection {
 public:
  explicit ScriptedConnection(std::vector<std::uint8_t> script = {})
      : script_(std::move(script)) {}

  void write(const std::uint8_t* data, std::size_t size) override {
    written_.insert(written_.end(), data, data + size);
  }
  void read(std::uint8_t* data, std::size_t size) override {
    if (size > script_.size() - position_)
      throw TransportError("scripted stream ended");
    std::copy_n(script_.begin() + static_cast<std::ptrdiff_t>(position_),
                size, data);
    position_ += size;
  }
  void close() override {}

  [[nodiscard]] const std::vector<std::uint8_t>& written() const {
    return written_;
  }

 private:
  std::vector<std::uint8_t> script_;
  std::size_t position_ = 0;
  std::vector<std::uint8_t> written_;
};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> bytes(rng.below(max_len + 1));
  for (auto& byte : bytes)
    byte = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

/// parse-or-throw: the only acceptable exits.
template <class Fn>
void must_parse_or_throw(Fn&& fn) {
  try {
    fn();
  } catch (const ContractViolation&) {  // malformed peer data
  } catch (const TransportError&) {     // link died / stream ended
  }
}

/// The bytes of the opener a target role writes.
std::vector<std::uint8_t> opener_bytes(Replica& target,
                                       const repl::SyncOptions& options,
                                       ReplicaId source_id) {
  ScriptedConnection capture;
  SessionBudget budget;
  TargetSession session(target, nullptr, options, budget);
  ConnectionFrameSink sink(capture, budget);
  session.start(sink, source_id, SimTime(0));
  return capture.written();
}

/// The target role fed `stream` by the blocking loop, after writing
/// its opener elsewhere.
NetSyncResult pull_stream(Replica& target, const repl::SyncOptions& options,
                          Connection& stream) {
  SessionBudget budget;
  TargetSession session(target, nullptr, options, budget);
  ScriptedConnection opener;
  ConnectionFrameSink sink(opener, budget);
  session.start(sink, ReplicaId(1), SimTime(0));
  run_blocking(stream, budget, session);
  return session.take_result();
}

/// The source role fed `stream` by the blocking loop; its replies are
/// recorded in the same connection.
SourceStats serve_stream(Replica& source, const repl::SyncOptions& options,
                         Connection& stream) {
  SessionBudget budget;
  SourceSession session(source, nullptr, SimTime(0), options, budget);
  run_blocking(stream, budget, session);
  return session.take_stats();
}

TEST(NetFuzz, ReadFrameNeverCrashesOnRandomBytes) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    ScriptedConnection connection(random_bytes(rng, 96));
    SessionBudget budget;
    must_parse_or_throw([&] { (void)read_frame(connection, budget); });
  }
}

TEST(NetFuzz, ReadFrameNeverCrashesOnFramedGarbage) {
  // Valid framing around random payloads and random type bytes: a
  // protocol type's frame (every payload here is within its cap) must
  // round-trip and leave payload rejection to the payload decoders; an
  // unknown type byte is rejected at admission.
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    ScriptedConnection sink;
    SessionBudget budget;
    const auto payload = random_bytes(rng, 64);
    const auto type = static_cast<std::uint8_t>(rng.below(256));
    write_frame(sink, static_cast<repl::SyncFrame>(type), payload, budget);
    ScriptedConnection replay(sink.written());
    if (std::string_view(frame_type_name(type)) == "unknown") {
      EXPECT_THROW((void)read_frame(replay, budget), ContractViolation);
    } else {
      EXPECT_EQ(read_frame(replay, budget).payload, payload);
    }
  }
}

TEST(NetFuzz, HelloDecoderNeverCrashes) {
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw(
        [&] { (void)decode_hello(random_bytes(rng, 32)); });
  }
}

TEST(NetFuzz, BatchBeginDecoderNeverCrashes) {
  Rng rng(14);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw(
        [&] { (void)repl::decode_batch_begin(random_bytes(rng, 32)); });
  }
}

TEST(NetFuzz, SummaryRequestDecoderNeverCrashes) {
  Rng rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw([&] {
      const std::vector<std::uint8_t> bytes = random_bytes(rng, 96);
      ByteReader r(bytes);
      (void)repl::SummaryRequestInfo::deserialize(r);
    });
  }
}

TEST(NetFuzz, BloomFilterDecoderNeverCrashes) {
  Rng rng(22);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw([&] {
      const std::vector<std::uint8_t> bytes = random_bytes(rng, 96);
      ByteReader r(bytes);
      (void)repl::BloomFilter::deserialize(r);
    });
  }
}

TEST(NetFuzz, SummaryReplyDecoderNeverCrashes) {
  Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw(
        [&] { (void)repl::decode_summary_reply(random_bytes(rng, 16)); });
  }
}

TEST(NetFuzz, OversizeSummaryFrameRejectedBeforeAllocation) {
  // A frame header claiming a payload past max_summary_bytes must be
  // rejected by the budget at admission time — before the payload
  // bytes are ever read or allocated. The scripted stream holds only
  // the header, so any attempt to read the (absent) payload would
  // throw TransportError instead of the required ResourceLimitError.
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(
      static_cast<std::uint8_t>(repl::SyncFrame::SummaryRequest),
      ResourceLimits{}.max_summary_bytes + 1, header);
  ScriptedConnection connection({header, header + kFrameHeaderSize});
  SessionBudget budget{ResourceLimits{}};
  EXPECT_THROW((void)read_frame(connection, budget), ResourceLimitError);
}

TEST(NetFuzz, ErrorFrameDecoderNeverCrashes) {
  Rng rng(28);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw(
        [&] { (void)repl::decode_error_frame(random_bytes(rng, 96)); });
  }
}

TEST(NetFuzz, ErrorFrameSurvivesTruncationAndBitFlips) {
  // A real transient refusal, attacked every way a dying or hostile
  // link can mangle it. Parseable corruptions must stay transient or
  // become unknown codes — which decode as transient too, so a
  // confused refusal can never strike quarantine.
  const std::vector<std::uint8_t> payload = repl::encode_error_frame(
      repl::kSyncErrorBusy, "server busy: at session cap, retry");
  for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
    must_parse_or_throw([&] {
      const auto info = repl::decode_error_frame(
          {payload.begin(),
           payload.begin() + static_cast<std::ptrdiff_t>(cut)});
      EXPECT_TRUE(info.transient());
    });
  }
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = payload;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    must_parse_or_throw([&] {
      const auto info = repl::decode_error_frame(corrupted);
      EXPECT_TRUE(info.transient());
      // Whatever the flipped code, it maps to *some* stable label.
      EXPECT_FALSE(repl::sync_error_code_name(info.code).empty());
    });
  }
}

TEST(NetFuzz, OversizeErrorFrameRejectedBeforeAllocation) {
  // Same admission-before-allocation contract as summary frames: a
  // header claiming an over-cap Error payload dies at the budget, not
  // after a read or allocation (the script holds only the header).
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(repl::SyncFrame::Error),
                      ResourceLimits{}.max_error_bytes + 1, header);
  ScriptedConnection connection({header, header + kFrameHeaderSize});
  SessionBudget budget{ResourceLimits{}};
  EXPECT_THROW((void)read_frame(connection, budget), ResourceLimitError);
}

TEST(NetFuzz, BatchAckDecoderNeverCrashes) {
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    must_parse_or_throw(
        [&] { (void)repl::decode_batch_ack(random_bytes(rng, 16)); });
  }
  // The well-formed payload round-trips exactly.
  EXPECT_EQ(repl::decode_batch_ack(repl::encode_batch_ack(12345)), 12345u);
}

TEST(NetFuzz, PushedBatchNeedsTheServersAck) {
  // The at-most-once hole the BatchAck closes: a pushing client whose
  // writes all succeed locally must still refuse to call the push
  // delivered until the server confirms it applied the batch. The
  // script plays an ack-negotiating server that sends its Hello and
  // pull Request and then dies — exactly what a link cut on the server
  // side looks like from here.
  Replica server_view(ReplicaId(9), Filter::all());
  const repl::SyncRequest request =
      repl::make_request(server_view, nullptr, ReplicaId(50), SimTime(0));
  ByteWriter request_bytes;
  request.serialize(request_bytes);
  SessionBudget scripting;

  ScriptedConnection unacked_script;
  write_frame(unacked_script, repl::SyncFrame::Hello,
              encode_hello({ReplicaId(9), SyncMode::Push,
                            kFeatureBatchAck}),
              scripting);
  write_frame(unacked_script, repl::SyncFrame::Request,
              request_bytes.bytes(), scripting);

  Replica self(ReplicaId(50), Filter::addresses({HostId(7)}));
  self.create({{repl::meta::kDest, "5"}}, {'x'});
  {
    ScriptedConnection connection(unacked_script.written());
    const auto outcome = run_client_session(connection, self, nullptr,
                                            SyncMode::Push, SimTime(0));
    EXPECT_TRUE(outcome.transport_failed);
    EXPECT_NE(outcome.error.find("push not acknowledged"),
              std::string::npos)
        << outcome.error;
  }
  // Same session with the ack appended: the push is delivered.
  {
    ScriptedConnection acked_script;
    write_frame(acked_script, repl::SyncFrame::Hello,
                encode_hello({ReplicaId(9), SyncMode::Push,
                              kFeatureBatchAck}),
                scripting);
    write_frame(acked_script, repl::SyncFrame::Request,
                request_bytes.bytes(), scripting);
    write_frame(acked_script, repl::SyncFrame::BatchAck,
                repl::encode_batch_ack(1), scripting);
    ScriptedConnection connection(acked_script.written());
    const auto outcome = run_client_session(connection, self, nullptr,
                                            SyncMode::Push, SimTime(0));
    EXPECT_FALSE(outcome.transport_failed) << outcome.error;
    EXPECT_TRUE(outcome.push.stats.complete);
  }
  // A server that never advertised the feature is trusted the legacy
  // way: no ack awaited, the push completes when the writes do.
  {
    ScriptedConnection legacy_script;
    write_frame(legacy_script, repl::SyncFrame::Hello,
                encode_hello({ReplicaId(9), SyncMode::Push, 0}),
                scripting);
    write_frame(legacy_script, repl::SyncFrame::Request,
                request_bytes.bytes(), scripting);
    ScriptedConnection connection(legacy_script.written());
    const auto outcome = run_client_session(connection, self, nullptr,
                                            SyncMode::Push, SimTime(0));
    EXPECT_FALSE(outcome.transport_failed) << outcome.error;
  }
}

TEST(NetFuzz, ClientSessionSurvivesArbitraryHelloReplies) {
  // The client's first read is the server's Hello — or, since this PR,
  // possibly a transient Error refusal. Replay every kind of framed
  // garbage in that slot: the client must end refused, failed, or
  // clean, never crash, and never mutate its replica on garbage.
  Rng rng(30);
  for (int trial = 0; trial < 300; ++trial) {
    Replica self(ReplicaId(50), Filter::addresses({HostId(7)}));
    ScriptedConnection sink;
    SessionBudget scripting;
    const auto type = static_cast<repl::SyncFrame>(rng.below(16));
    const auto payload = random_bytes(rng, 48);
    must_parse_or_throw(
        [&] { write_frame(sink, type, payload, scripting); });
    ScriptedConnection connection(sink.written());
    must_parse_or_throw([&] {
      const auto outcome = run_client_session(
          connection, self, nullptr, SyncMode::Push, SimTime(0));
      if (outcome.refused) {
        // Refusals carry a code and never report transport failure.
        EXPECT_FALSE(outcome.transport_failed);
      }
    });
    EXPECT_EQ(self.check_invariants(), "");
    EXPECT_TRUE(self.knowledge().fragments().empty());
  }
}

TEST(NetFuzz, SummaryTargetSessionNeverCrashesOnRandomStreams) {
  Rng rng(24);
  repl::SyncOptions summary_on;
  summary_on.summary_mode = repl::SummaryMode::On;
  for (int trial = 0; trial < 300; ++trial) {
    Replica target(ReplicaId(2), Filter::addresses({HostId(9)}));
    ScriptedConnection connection(random_bytes(rng, 160));
    must_parse_or_throw(
        [&] { (void)pull_stream(target, summary_on, connection); });
    EXPECT_EQ(target.check_invariants(), "");
    EXPECT_TRUE(target.knowledge().fragments().empty());
  }
}

TEST(NetFuzz, SummarySourceSessionNeverCrashesOnRandomStreams) {
  Rng rng(25);
  repl::SyncOptions summary_on;
  summary_on.summary_mode = repl::SummaryMode::On;
  for (int trial = 0; trial < 300; ++trial) {
    Replica source(ReplicaId(7), Filter::addresses({HostId(3)}));
    source.create({{repl::meta::kDest, "5"}}, {'z'});
    ScriptedConnection connection(random_bytes(rng, 160));
    must_parse_or_throw(
        [&] { (void)serve_stream(source, summary_on, connection); });
    EXPECT_EQ(source.check_invariants(), "");
  }
}

TEST(NetFuzz, TargetSessionReceiveNeverCrashesOnRandomStreams) {
  Rng rng(15);
  for (int trial = 0; trial < 300; ++trial) {
    Replica target(ReplicaId(2), Filter::addresses({HostId(9)}));
    ScriptedConnection connection(random_bytes(rng, 160));
    must_parse_or_throw(
        [&] { (void)pull_stream(target, {}, connection); });
    // Whatever happened, the replica must still be internally sound,
    // and garbage must never have smuggled knowledge in.
    EXPECT_EQ(target.check_invariants(), "");
    EXPECT_TRUE(target.knowledge().fragments().empty());
  }
}

TEST(NetFuzz, ServeSessionNeverCrashesOnRandomStreams) {
  Rng rng(16);
  for (int trial = 0; trial < 300; ++trial) {
    Replica self(ReplicaId(7), Filter::addresses({HostId(3)}));
    self.create({{repl::meta::kDest, "5"}}, {'z'});
    ScriptedConnection connection(random_bytes(rng, 160));
    must_parse_or_throw([&] {
      (void)serve_session(connection, self, nullptr, SimTime(0), {});
    });
    EXPECT_EQ(self.check_invariants(), "");
  }
}

/// Capture the exact byte stream of a real batch, then attack the
/// receive path with every truncation and a pile of bit flips.
class ValidBatchStream : public ::testing::Test {
 protected:
  ValidBatchStream()
      : source_(ReplicaId(1), Filter::addresses({HostId(5)})) {
    for (int i = 0; i < 3; ++i)
      source_.create({{repl::meta::kDest, "9"}}, {'m'});
  }

  static Replica fresh_target() {
    return Replica(ReplicaId(2), Filter::addresses({HostId(9)}));
  }

  /// The batch frames a real source would send to fresh_target().
  std::vector<std::uint8_t> batch_stream() {
    Replica target = fresh_target();
    ScriptedConnection exchange(opener_bytes(target, {}, source_.id()));
    (void)serve_stream(source_, {}, exchange);
    return exchange.written();
  }

  static void attack(const std::vector<std::uint8_t>& stream) {
    Replica target = fresh_target();
    ScriptedConnection scripted(stream);
    must_parse_or_throw([&] { (void)pull_stream(target, {}, scripted); });
    EXPECT_EQ(target.check_invariants(), "");
  }

  Replica source_;
};

TEST_F(ValidBatchStream, EveryTruncationParsesOrThrows) {
  const auto stream = batch_stream();
  ASSERT_GT(stream.size(), 0u);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    attack({stream.begin(),
            stream.begin() + static_cast<std::ptrdiff_t>(cut)});
  }
}

TEST_F(ValidBatchStream, BitFlipsParseOrThrow) {
  const auto stream = batch_stream();
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = stream;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    attack(corrupted);
  }
}

/// The same truncation/bit-flip assault against the summary-mode
/// exchange: capture a real SummaryRequest and the source's reply
/// stream, then corrupt each in every way. Both ends must parse or
/// throw, never crash, and garbage must never smuggle knowledge in.
class ValidSummaryStreams : public ::testing::Test {
 protected:
  ValidSummaryStreams()
      : source_(ReplicaId(1), Filter::addresses({HostId(5)})) {
    for (int i = 0; i < 3; ++i)
      source_.create({{repl::meta::kDest, "9"}}, {'m'});
    options_.summary_mode = repl::SummaryMode::On;
  }

  static Replica fresh_target() {
    return Replica(ReplicaId(2), Filter::addresses({HostId(9)}));
  }

  /// The SummaryRequest frame a real target opens with.
  std::vector<std::uint8_t> request_stream() {
    Replica target = fresh_target();
    return opener_bytes(target, options_, source_.id());
  }

  /// The source's full reply to that opener (a cold target's empty
  /// Bloom filter proves it knows nothing, so this is a direct batch).
  std::vector<std::uint8_t> reply_stream() {
    ScriptedConnection exchange(request_stream());
    (void)serve_stream(source_, options_, exchange);
    return exchange.written();
  }

  void attack_target(const std::vector<std::uint8_t>& stream) {
    Replica target = fresh_target();
    ScriptedConnection scripted(stream);
    must_parse_or_throw(
        [&] { (void)pull_stream(target, options_, scripted); });
    // A flipped-but-parseable complete batch may legitimately teach
    // knowledge; what must survive any corruption is soundness.
    EXPECT_EQ(target.check_invariants(), "");
  }

  void attack_source(const std::vector<std::uint8_t>& stream) {
    ScriptedConnection scripted(stream);
    must_parse_or_throw(
        [&] { (void)serve_stream(source_, options_, scripted); });
    EXPECT_EQ(source_.check_invariants(), "");
  }

  Replica source_;
  repl::SyncOptions options_;
};

TEST_F(ValidSummaryStreams, EveryReplyTruncationParsesOrThrows) {
  const auto stream = reply_stream();
  ASSERT_GT(stream.size(), 0u);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    attack_target({stream.begin(),
                   stream.begin() + static_cast<std::ptrdiff_t>(cut)});
  }
}

TEST_F(ValidSummaryStreams, ReplyBitFlipsParseOrThrow) {
  const auto stream = reply_stream();
  Rng rng(26);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = stream;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    attack_target(corrupted);
  }
}

TEST_F(ValidSummaryStreams, EveryRequestTruncationParsesOrThrows) {
  const auto stream = request_stream();
  ASSERT_GT(stream.size(), 0u);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    attack_source({stream.begin(),
                   stream.begin() + static_cast<std::ptrdiff_t>(cut)});
  }
}

TEST_F(ValidSummaryStreams, RequestBitFlipsParseOrThrow) {
  const auto stream = request_stream();
  Rng rng(27);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = stream;
    corrupted[rng.below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    attack_source(corrupted);
  }
}

}  // namespace
}  // namespace pfrdtn::net
