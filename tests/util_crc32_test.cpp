// CRC-32 known answers plus a differential check against a bitwise,
// table-free reference. Every WAL record, checkpoint and MANIFEST on
// disk carries this CRC, so any faster implementation must compute
// exactly the same function over every length and alignment.

#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace pfrdtn {
namespace {

/// Reflected CRC-32 (polynomial 0xEDB88320), one bit at a time.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer) {
  constexpr std::string_view check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLength = 1024;
  constexpr std::size_t kOffsets = 8;
  Rng rng(23);
  std::vector<std::uint8_t> buffer(kMaxLength + kOffsets);
  for (std::uint8_t& byte : buffer)
    byte = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::uint8_t* start = buffer.data() + offset;
      ASSERT_EQ(crc32(start, length), reference_crc32(start, length))
          << "length " << length << " at offset " << offset;
    }
  }
}

}  // namespace
}  // namespace pfrdtn
