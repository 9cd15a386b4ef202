#include "net/framing.hpp"

namespace pfrdtn::net {

std::size_t write_frame(Connection& connection, repl::SyncFrame type,
                        const std::vector<std::uint8_t>& payload,
                        SessionBudget& budget) {
  budget.charge(framed_size(payload.size()));
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(type),
                      static_cast<std::uint32_t>(payload.size()), header);
  connection.write(header, kFrameHeaderSize);
  if (!payload.empty()) connection.write(payload.data(), payload.size());
  return framed_size(payload.size());
}

Frame read_frame(Connection& connection, SessionBudget& budget) {
  std::uint8_t header_bytes[kFrameHeaderSize];
  connection.read(header_bytes, kFrameHeaderSize);
  const FrameHeader header = decode_frame_header(header_bytes);
  // Admission before allocation: the length field is attacker data
  // until this call passes.
  budget.admit_frame(header.type, header.length);
  Frame frame;
  frame.type = static_cast<repl::SyncFrame>(header.type);
  frame.payload.resize(header.length);
  if (header.length > 0)
    connection.read(frame.payload.data(), header.length);
  frame.wire_bytes = framed_size(header.length);
  budget.charge(frame.wire_bytes);
  return frame;
}

Frame expect_frame(Connection& connection, repl::SyncFrame type,
                   SessionBudget& budget) {
  Frame frame = read_frame(connection, budget);
  PFRDTN_REQUIRE(frame.type == type);
  return frame;
}

std::size_t ConnectionFrameSink::send(
    repl::SyncFrame type, const std::vector<std::uint8_t>& payload) {
  return write_frame(*connection_, type, payload, *budget_);
}

std::size_t BufferFrameSink::send(
    repl::SyncFrame type, const std::vector<std::uint8_t>& payload) {
  budget_->charge(framed_size(payload.size()));
  std::uint8_t header[kFrameHeaderSize];
  encode_frame_header(static_cast<std::uint8_t>(type),
                      static_cast<std::uint32_t>(payload.size()), header);
  out_->insert(out_->end(), header, header + kFrameHeaderSize);
  out_->insert(out_->end(), payload.begin(), payload.end());
  return framed_size(payload.size());
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Drop the consumed prefix before growing, so a long session cannot
  // accrete an unbounded buffer of already-decoded bytes.
  if (consumed_ > 0 && (consumed_ == pending_.size() ||
                        consumed_ >= (64u << 10))) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  pending_.insert(pending_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  if (!header_) {
    if (buffered() < kFrameHeaderSize) return std::nullopt;
    const FrameHeader header =
        decode_frame_header(pending_.data() + consumed_);
    // Admission before allocation, as in the budgeted read_frame: the
    // length field is attacker data until this call passes.
    budget_->admit_frame(header.type, header.length);
    consumed_ += kFrameHeaderSize;
    header_ = header;
  }
  if (buffered() < header_->length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<repl::SyncFrame>(header_->type);
  const std::uint8_t* payload = pending_.data() + consumed_;
  frame.payload.assign(payload, payload + header_->length);
  consumed_ += header_->length;
  frame.wire_bytes = framed_size(header_->length);
  budget_->charge(frame.wire_bytes);
  header_.reset();
  return frame;
}

}  // namespace pfrdtn::net
