#include "net/loopback.hpp"

#include <gtest/gtest.h>

namespace pfrdtn::net {
namespace {

TEST(Loopback, BidirectionalTransfer) {
  LoopbackLink link;
  const std::uint8_t ping[3] = {1, 2, 3};
  link.a().write(ping, 3);
  std::uint8_t got[3] = {};
  link.b().read(got, 3);
  EXPECT_EQ(got[2], 3);

  const std::uint8_t pong[2] = {9, 8};
  link.b().write(pong, 2);
  std::uint8_t back[2] = {};
  link.a().read(back, 2);
  EXPECT_EQ(back[0], 9);
  EXPECT_EQ(link.bytes_delivered(), 5u);
}

TEST(Loopback, PartialReadsDrainTheBuffer) {
  LoopbackLink link;
  const std::uint8_t data[4] = {1, 2, 3, 4};
  link.a().write(data, 4);
  std::uint8_t first = 0;
  link.b().read(&first, 1);
  std::uint8_t rest[3] = {};
  link.b().read(rest, 3);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(rest[2], 4);
}

TEST(Loopback, ReadBeyondBufferedThrows) {
  LoopbackLink link;
  const std::uint8_t data[2] = {1, 2};
  link.a().write(data, 2);
  std::uint8_t out[3] = {};
  EXPECT_THROW(link.b().read(out, 3), TransportError);
}

TEST(Loopback, ClosedEndpointRefusesIo) {
  LoopbackLink link;
  link.a().close();
  const std::uint8_t byte = 1;
  std::uint8_t out = 0;
  EXPECT_THROW(link.a().write(&byte, 1), TransportError);
  EXPECT_THROW(link.a().read(&out, 1), TransportError);
}

TEST(Loopback, TransferTimeAccounting) {
  LoopbackFaults faults;
  faults.latency_seconds = 0.5;
  LoopbackLink link(faults);
  const std::uint8_t data[50] = {};
  link.a().write(data, 50);
  // One write: 0.5 s latency, whatever its size.
  EXPECT_DOUBLE_EQ(link.simulated_seconds(), 0.5);
}

}  // namespace
}  // namespace pfrdtn::net
