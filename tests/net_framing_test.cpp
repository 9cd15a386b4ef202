#include "net/framing.hpp"

#include <gtest/gtest.h>

#include "net/loopback.hpp"

namespace pfrdtn::net {
namespace {

TEST(FrameHeader, RoundTrip) {
  std::uint8_t buffer[kFrameHeaderSize];
  encode_frame_header(7, 123456, buffer);
  const FrameHeader header = decode_frame_header(buffer);
  EXPECT_EQ(header.type, 7);
  EXPECT_EQ(header.length, 123456u);
}

TEST(FrameHeader, RejectsBadMagic) {
  std::uint8_t buffer[kFrameHeaderSize];
  encode_frame_header(1, 4, buffer);
  buffer[0] ^= 0xFF;
  EXPECT_THROW(decode_frame_header(buffer), ContractViolation);
}

TEST(FrameHeader, RejectsUnknownVersion) {
  std::uint8_t buffer[kFrameHeaderSize];
  encode_frame_header(1, 4, buffer);
  buffer[2] = kFrameVersion + 1;
  EXPECT_THROW(decode_frame_header(buffer), ContractViolation);
}

TEST(FrameHeader, RejectsImplausibleLength) {
  std::uint8_t buffer[kFrameHeaderSize];
  encode_frame_header(1, 4, buffer);
  buffer[7] = 0xFF;  // length high byte -> ~4 GiB
  EXPECT_THROW(decode_frame_header(buffer), ContractViolation);
}

TEST(Framing, RoundTripOverLoopback) {
  LoopbackLink link;
  SessionBudget budget;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const std::size_t written =
      write_frame(link.a(), repl::SyncFrame::Request, payload, budget);
  EXPECT_EQ(written, framed_size(payload.size()));
  const Frame frame = read_frame(link.b(), budget);
  EXPECT_EQ(frame.type, repl::SyncFrame::Request);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(frame.wire_bytes, written);
  // Both directions charge the one session ceiling.
  EXPECT_EQ(budget.bytes_used(), 2 * written);
}

TEST(Framing, EmptyPayload) {
  LoopbackLink link;
  SessionBudget budget;
  write_frame(link.a(), repl::SyncFrame::BatchEnd, {}, budget);
  const Frame frame = read_frame(link.b(), budget);
  EXPECT_EQ(frame.type, repl::SyncFrame::BatchEnd);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(frame.wire_bytes, kFrameHeaderSize);
}

TEST(Framing, ExpectFrameRejectsWrongType) {
  LoopbackLink link;
  SessionBudget budget;
  write_frame(link.a(), repl::SyncFrame::BatchItem, {9}, budget);
  EXPECT_THROW(expect_frame(link.b(), repl::SyncFrame::Request, budget),
               ContractViolation);
}

TEST(Framing, TruncatedHeaderIsTransportError) {
  LoopbackLink link;
  SessionBudget budget;
  const std::uint8_t half[3] = {0x46, 0x50, 1};
  link.a().write(half, sizeof(half));
  EXPECT_THROW(read_frame(link.b(), budget), TransportError);
}

TEST(Framing, TruncatedPayloadIsTransportError) {
  // A link that died mid-frame: the whole header and 2 of 5 payload
  // bytes made it across.
  LoopbackLink link;
  SessionBudget budget;
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(repl::SyncFrame::BatchItem),
                      5, header);
  link.a().write(header, kFrameHeaderSize);
  const std::uint8_t prefix[2] = {1, 2};
  link.a().write(prefix, sizeof(prefix));
  EXPECT_THROW(read_frame(link.b(), budget), TransportError);
}

}  // namespace
}  // namespace pfrdtn::net
