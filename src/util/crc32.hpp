#pragma once

/// \file crc32.hpp
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
/// ranges, used by src/persist/ to frame WAL records and seal
/// checkpoints. Slicing-by-8: eight bytes per step through eight
/// 256-entry tables computed at compile time. Portable C++ with no
/// dependency; the result equals the classic byte-at-a-time CRC.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfrdtn {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the byte-at-a-time table. tables[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so one step folds
/// eight input bytes with eight independent lookups.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Four bytes as a little-endian word, whatever the host's byte order.
constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 of `size` bytes at `data`.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(data);
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
        t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace pfrdtn
