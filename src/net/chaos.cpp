#include "net/chaos.hpp"

#include <chrono>
#include <thread>

#include "net/session.hpp"
#include "repl/knowledge.hpp"
#include "repl/sync.hpp"
#include "util/byte_buffer.hpp"

namespace pfrdtn::net {

namespace {

struct AttackInfo {
  ChaosAttack attack;
  const char* name;
  bool violation;
};

constexpr AttackInfo kAttacks[kChaosAttackCount] = {
    {ChaosAttack::OversizeRequest, "oversize-request", true},
    {ChaosAttack::OversizeItem, "oversize-item", true},
    {ChaosAttack::LyingCountHuge, "lying-count-huge", true},
    {ChaosAttack::LyingCountShort, "lying-count-short", true},
    {ChaosAttack::OutOfOrderFrame, "out-of-order-frame", true},
    {ChaosAttack::GiantKnowledge, "giant-knowledge", true},
    {ChaosAttack::GiantPolicyBlob, "giant-policy-blob", true},
    {ChaosAttack::ByteTrickle, "byte-trickle", false},
    {ChaosAttack::BadMagic, "bad-magic", true},
    {ChaosAttack::CloseAfterHello, "close-after-hello", false},
    {ChaosAttack::CloseMidHeader, "close-mid-header", false},
    {ChaosAttack::CloseMidBatch, "close-mid-batch", false},
};

/// Replica id the chaos peer impersonates in its Hello.
constexpr ReplicaId kChaosReplica{66600};

/// How many bytes of the valid Hello frame ByteTrickle dribbles before
/// stalling (short of a full 8-byte header + 3-byte payload, so the
/// stall leaves the server mid-read).
constexpr std::size_t kTrickleBytes = 6;

/// Zero-length writes after the dribble: free on TCP, but each one
/// charges per-write latency on a LoopbackLink, modelling a peer that
/// keeps the contact open while sending nothing.
constexpr std::size_t kTrickleStallWrites = 40;

const AttackInfo& info_of(ChaosAttack attack) {
  for (const AttackInfo& info : kAttacks) {
    if (info.attack == attack) return info;
  }
  throw ContractViolation("unknown chaos attack");
}

/// The chaos peer writes raw frames directly — it deliberately does
/// not limit itself the way the budgeted framing helpers would.
std::size_t send_frame(Connection& connection, repl::SyncFrame type,
                       const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(type),
                      static_cast<std::uint32_t>(payload.size()), header);
  connection.write(header, kFrameHeaderSize);
  if (!payload.empty()) connection.write(payload.data(), payload.size());
  return framed_size(payload.size());
}

/// A header whose length field lies: claims `length` payload bytes the
/// attacker will never send. The whole point of admission-before-
/// allocation is that these 8 bytes must not buy an allocation.
std::size_t send_header_only(Connection& connection, repl::SyncFrame type,
                             std::uint32_t length) {
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(type), length, header);
  connection.write(header, kFrameHeaderSize);
  return kFrameHeaderSize;
}

std::vector<std::uint8_t> hello_payload(SyncMode mode) {
  return encode_hello({kChaosReplica, mode});
}

std::vector<std::uint8_t> batch_begin_payload(ReplicaId source,
                                              std::uint64_t count) {
  ByteWriter w;
  w.uvarint(source.value());
  w.u8(1);  // complete
  w.uvarint(count);
  return w.take();
}

/// A minimal but well-formed BatchItem payload.
std::vector<std::uint8_t> tiny_item_payload() {
  ByteWriter w;
  w.uvarint(9001);                   // item id
  w.uvarint(kChaosReplica.value());  // version author
  w.uvarint(1);                      // version counter
  w.uvarint(1);                      // version revision
  w.u8(0);                           // not deleted
  w.uvarint(0);                      // no metadata
  w.raw({0x68, 0x69});               // body "hi"
  w.uvarint(0);                      // no transients
  return w.take();
}

/// A Request whose knowledge weighs limits.max_knowledge_entries + 1:
/// even counters never compact into the vector prefix, so each stays
/// an extra and the decoded weight equals the entry count.
std::vector<std::uint8_t> giant_knowledge_request(
    const ChaosPeerOptions& o) {
  repl::Knowledge knowledge;
  for (std::size_t i = 1; i <= o.limits.max_knowledge_entries + 1; ++i)
    knowledge.add_exact(repl::Version{ReplicaId(7), 2 * i, 1});
  ByteWriter w;
  w.uvarint(kChaosReplica.value());  // target
  repl::Filter::all().serialize(w);  // filter
  knowledge.serialize(w);
  w.raw({});                         // empty routing state
  return w.take();
}

std::vector<std::uint8_t> giant_blob_request(const ChaosPeerOptions& o) {
  ByteWriter w;
  w.uvarint(kChaosReplica.value());
  repl::Filter::all().serialize(w);
  repl::Knowledge().serialize(w);
  w.raw(std::vector<std::uint8_t>(o.limits.max_policy_blob_bytes + 1,
                                  0xAB));
  return w.take();
}

void sleep_ms(unsigned ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

const char* chaos_attack_name(ChaosAttack attack) {
  return info_of(attack).name;
}

std::optional<ChaosAttack> chaos_attack_from_name(std::string_view name) {
  for (const AttackInfo& info : kAttacks) {
    if (name == info.name) return info.attack;
  }
  return std::nullopt;
}

bool chaos_attack_is_violation(ChaosAttack attack) {
  return info_of(attack).violation;
}

ChaosOutcome run_chaos_attack(Connection& connection, ChaosAttack attack,
                              const ChaosPeerOptions& options) {
  ChaosOutcome outcome;
  const ResourceLimits& limits = options.limits;
  try {
    switch (attack) {
      case ChaosAttack::OversizeRequest:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Pull));
        outcome.bytes_sent += send_header_only(
            connection, repl::SyncFrame::Request,
            limits.max_request_bytes + 1);
        outcome.note = "claimed an over-cap Request payload";
        break;
      case ChaosAttack::OversizeItem:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Push));
        outcome.bytes_sent +=
            send_frame(connection, repl::SyncFrame::BatchBegin,
                       batch_begin_payload(kChaosReplica, 1));
        outcome.bytes_sent += send_header_only(
            connection, repl::SyncFrame::BatchItem,
            limits.max_item_bytes + 1);
        outcome.note = "claimed an over-cap BatchItem payload";
        break;
      case ChaosAttack::LyingCountHuge:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Push));
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::BatchBegin,
            batch_begin_payload(kChaosReplica,
                                limits.max_batch_items + 1));
        outcome.note = "announced an over-cap item count";
        break;
      case ChaosAttack::LyingCountShort: {
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Push));
        outcome.bytes_sent +=
            send_frame(connection, repl::SyncFrame::BatchBegin,
                       batch_begin_payload(kChaosReplica, 3));
        outcome.bytes_sent +=
            send_frame(connection, repl::SyncFrame::BatchItem,
                       tiny_item_payload());
        ByteWriter knowledge;
        repl::Knowledge().serialize(knowledge);
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::BatchEnd, knowledge.take());
        outcome.note = "announced 3 items, delivered 1";
        break;
      }
      case ChaosAttack::OutOfOrderFrame:
        outcome.bytes_sent +=
            send_frame(connection, repl::SyncFrame::BatchItem,
                       tiny_item_payload());
        outcome.note = "opened with a BatchItem instead of Hello";
        break;
      case ChaosAttack::GiantKnowledge:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Pull));
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Request,
            giant_knowledge_request(options));
        outcome.note = "sent knowledge over the weight cap";
        break;
      case ChaosAttack::GiantPolicyBlob:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Pull));
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Request,
            giant_blob_request(options));
        outcome.note = "sent a policy blob over the byte cap";
        break;
      case ChaosAttack::ByteTrickle: {
        // The slow-loris: dribble a valid Hello frame one byte at a
        // time, then keep the contact open while sending nothing.
        std::uint8_t frame[kFrameHeaderSize + 8];
        const auto payload = hello_payload(SyncMode::Pull);
        encode_frame_header(
            static_cast<std::uint8_t>(repl::SyncFrame::Hello),
            static_cast<std::uint32_t>(payload.size()), frame);
        std::size_t total = kFrameHeaderSize;
        for (std::size_t i = 0; i < payload.size() && total < sizeof(frame);
             ++i)
          frame[total++] = payload[i];
        const std::size_t dribble =
            std::min(kTrickleBytes, total);
        for (std::size_t i = 0; i < dribble; ++i) {
          connection.write(&frame[i], 1);
          ++outcome.bytes_sent;
          sleep_ms(options.trickle_delay_ms);
        }
        const std::uint8_t nothing = 0;
        for (std::size_t i = 0; i < kTrickleStallWrites; ++i) {
          connection.write(&nothing, 0);
          sleep_ms(options.trickle_delay_ms);
        }
        outcome.note = "trickled " + std::to_string(dribble) +
                       " bytes, then stalled";
        break;
      }
      case ChaosAttack::BadMagic: {
        const std::uint8_t junk[kFrameHeaderSize] = {
            0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF};
        connection.write(junk, sizeof(junk));
        outcome.bytes_sent += sizeof(junk);
        outcome.note = "sent garbage where a frame header belongs";
        break;
      }
      case ChaosAttack::CloseAfterHello:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Pull));
        connection.close();
        outcome.note = "closed right after Hello";
        break;
      case ChaosAttack::CloseMidHeader: {
        std::uint8_t header[kFrameHeaderSize];
        encode_frame_header(
            static_cast<std::uint8_t>(repl::SyncFrame::Hello), 3, header);
        connection.write(header, 3);
        outcome.bytes_sent += 3;
        connection.close();
        outcome.note = "closed three bytes into a frame header";
        break;
      }
      case ChaosAttack::CloseMidBatch:
        outcome.bytes_sent += send_frame(
            connection, repl::SyncFrame::Hello,
            hello_payload(SyncMode::Push));
        outcome.bytes_sent +=
            send_frame(connection, repl::SyncFrame::BatchBegin,
                       batch_begin_payload(kChaosReplica, 2));
        connection.close();
        outcome.note = "closed after announcing a batch";
        break;
    }
  } catch (const TransportError& cut) {
    outcome.server_cut_us = true;
    if (!outcome.note.empty()) outcome.note += "; ";
    outcome.note += cut.what();
    return outcome;
  }
  if (options.read_replies) {
    // Observe the server's reaction by draining until EOF / reset: a
    // hardened server closes on us once the violation registers or the
    // deadline hits. Draining (instead of closing after one byte)
    // matters on TCP — an early close can race the server with an RST
    // that discards the hostile frame before it is ever processed,
    // turning a would-be violation into a mere transport failure.
    try {
      std::uint8_t reaction = 0;
      for (;;) connection.read(&reaction, 1);
    } catch (const TransportError&) {
      outcome.server_cut_us = true;
    }
  }
  return outcome;
}

}  // namespace pfrdtn::net
