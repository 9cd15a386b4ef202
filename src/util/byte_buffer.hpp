#pragma once

/// \file byte_buffer.hpp
/// Wire-format serialization. The emulation runs in one process, but
/// sync requests, batches and knowledge are serialized to bytes anyway
/// so that metadata overhead (a headline Cimbiosys property) can be
/// measured honestly, and so the substrate has a real wire format.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/require.hpp"

namespace pfrdtn {

/// Append-only byte sink with varint and fixed-width encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }

  /// LEB128 unsigned varint.
  void uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zig-zag signed varint.
  void svarint(std::int64_t v) {
    uvarint((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  void str(std::string_view s) {
    uvarint(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  void raw(const std::vector<std::uint8_t>& data) {
    uvarint(data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over bytes produced by ByteWriter. Throws
/// ContractViolation on malformed input (truncation, overlong varints).
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  /// The reader only borrows its bytes: a temporary would die at the
  /// end of the full expression and leave the reader dangling.
  ByteReader(std::vector<std::uint8_t>&&) = delete;
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    PFRDTN_REQUIRE(pos_ < size_);
    return data_[pos_++];
  }

  std::uint64_t uvarint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      PFRDTN_REQUIRE(shift < 64);
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) return v;
      shift += 7;
    }
  }

  std::int64_t svarint() {
    const std::uint64_t z = uvarint();
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
  }

  double f64() {
    PFRDTN_REQUIRE(pos_ + 8 <= size_);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint64_t n = uvarint();
    PFRDTN_REQUIRE(pos_ + n <= size_);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::vector<std::uint8_t> raw() {
    const std::uint64_t n = uvarint();
    PFRDTN_REQUIRE(pos_ + n <= size_);
    std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

  [[nodiscard]] bool done() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  // ---- bounded-read cursor -------------------------------------------
  //
  // Decoders charge one unit per decoded *element* (version-vector
  // entry, knowledge counter, filter node, set member, metadata pair)
  // before materializing it. Byte counts alone do not bound decode
  // cost: compact encodings amplify — a one-byte varint counter can
  // expand into a tree node tens of bytes large — so a hostile payload
  // well under the frame cap could still request unbounded work. The
  // budget defaults to unlimited (trusted local decode paths are
  // unchanged); the session layer arms it per frame from
  // net::ResourceLimits before handing the payload to a codec.

  void set_element_budget(std::size_t budget) { element_budget_ = budget; }

  /// Consume `n` units of the element budget; throws ContractViolation
  /// once the payload asks for more elements than the session allows.
  void charge_elements(std::size_t n = 1) {
    if (n > element_budget_)
      throw ContractViolation(
          "decode element budget exceeded: payload requests more elements "
          "than the session's resource limits allow");
    element_budget_ -= n;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t element_budget_ = static_cast<std::size_t>(-1);
};

// ---- framing ---------------------------------------------------------
//
// When serialized messages travel over a transport (src/net/) they are
// wrapped in frames:
//
//   magic   u16 LE   0x5046 ("PF")
//   version u8       kFrameVersion
//   type    u8       message type, opaque to this layer
//   length  u32 LE   payload byte count
//   payload length bytes
//
// The codec lives here, with the other byte codecs; src/net/ frames
// every sync message with it.

inline constexpr std::uint16_t kFrameMagic = 0x5046;
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 8;
/// Upper bound on a single frame's payload; a length above this is
/// treated as a malformed header rather than an allocation request.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

struct FrameHeader {
  std::uint8_t type = 0;
  std::uint32_t length = 0;
};

/// Total wire footprint of a payload of `payload_size` bytes.
[[nodiscard]] constexpr std::size_t framed_size(std::size_t payload_size) {
  return kFrameHeaderSize + payload_size;
}

inline void encode_frame_header(std::uint8_t type, std::uint32_t length,
                                std::uint8_t out[kFrameHeaderSize]) {
  PFRDTN_REQUIRE(length <= kMaxFramePayload);
  out[0] = static_cast<std::uint8_t>(kFrameMagic & 0xFF);
  out[1] = static_cast<std::uint8_t>(kFrameMagic >> 8);
  out[2] = kFrameVersion;
  out[3] = type;
  for (int i = 0; i < 4; ++i)
    out[4 + i] = static_cast<std::uint8_t>(length >> (8 * i));
}

/// Throws ContractViolation on a bad magic, unknown version, or an
/// implausible length — the caller is reading garbage, not a frame.
inline FrameHeader decode_frame_header(
    const std::uint8_t in[kFrameHeaderSize]) {
  const std::uint16_t magic =
      static_cast<std::uint16_t>(in[0] | (in[1] << 8));
  PFRDTN_REQUIRE(magic == kFrameMagic);
  PFRDTN_REQUIRE(in[2] == kFrameVersion);
  FrameHeader header;
  header.type = in[3];
  for (int i = 0; i < 4; ++i)
    header.length |= static_cast<std::uint32_t>(in[4 + i]) << (8 * i);
  PFRDTN_REQUIRE(header.length <= kMaxFramePayload);
  return header;
}

}  // namespace pfrdtn
