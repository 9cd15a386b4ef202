#include "decorators.hpp"

#include <algorithm>

#include "repl/sync.hpp"

namespace perfbench {

using pfrdtn::repl::SyncFrame;

void TracedEnv::append(const std::string& name, const std::uint8_t* data,
                       std::size_t size) {
  Span span(tracer_, SpanName::PersistAppend);
  inner_->append(name, data, size);
  append_bytes += size;
}

void TracedEnv::sync(const std::string& name) {
  Span span(tracer_, SpanName::PersistSync);
  inner_->sync(name);
  ++syncs;
}

void TracedEnv::write_file_durable(const std::string& name,
                                   const std::vector<std::uint8_t>& bytes) {
  Span span(tracer_, SpanName::PersistWriteDurable);
  inner_->write_file_durable(name, bytes);
  if (name.rfind("checkpoint", 0) == 0) ++checkpoints;
}

void TracedSink::on_local_put(const pfrdtn::repl::Item& stored) {
  Span span(tracer_, SpanName::PersistSink);
  inner_->on_local_put(stored);
}

void TracedSink::on_apply_remote(const pfrdtn::repl::Item& incoming) {
  Span span(tracer_, SpanName::PersistSink);
  inner_->on_apply_remote(incoming);
}

void TracedSink::on_set_filter(const pfrdtn::repl::Filter& filter) {
  Span span(tracer_, SpanName::PersistSink);
  inner_->on_set_filter(filter);
}

void TracedSink::on_discard_relay(pfrdtn::ItemId id) {
  Span span(tracer_, SpanName::PersistSink);
  inner_->on_discard_relay(id);
}

void TracedSink::on_learn(const pfrdtn::repl::Knowledge& knowledge) {
  Span span(tracer_, SpanName::PersistSink);
  inner_->on_learn(knowledge);
}

void TracedSink::on_policy_state(
    pfrdtn::ItemId id, const std::map<std::string, std::string>& all) {
  Span span(tracer_, SpanName::PersistSink);
  inner_->on_policy_state(id, all);
}

void LinkCounters::add(const LinkCounters& other) {
  bytes += other.bytes;
  round_trips += other.round_trips;
  summary_match += other.summary_match;
  summary_direct += other.summary_direct;
  summary_miss += other.summary_miss;
}

void TracedConnection::write(const std::uint8_t* data, std::size_t size) {
  {
    Span span(tracer_, SpanName::NetWrite);
    inner_->write(data, size);
  }
  counters_.bytes += size;
  last_was_write_ = true;
  scan(kOut, data, size);
}

void TracedConnection::read(std::uint8_t* data, std::size_t size) {
  {
    Span span(tracer_, SpanName::NetWait);
    inner_->read(data, size);
  }
  counters_.bytes += size;
  if (last_was_write_) ++counters_.round_trips;
  last_was_write_ = false;
  scan(kIn, data, size);
}

void TracedConnection::scan(Direction direction, const std::uint8_t* data,
                            std::size_t size) {
  FrameScanner& scanner = scanners_[direction];
  while (size > 0) {
    if (scanner.payload_left > 0) {
      const std::size_t skip = static_cast<std::size_t>(
          std::min<std::uint64_t>(scanner.payload_left, size));
      scanner.payload_left -= skip;
      data += skip;
      size -= skip;
      continue;
    }
    scanner.header[scanner.have++] = *data++;
    --size;
    if (scanner.have < scanner.header.size()) continue;
    // Header layout (util/byte_buffer.hpp): magic(2) version(1) type(1)
    // little-endian payload length(4).
    scanner.have = 0;
    scanner.payload_left = 0;
    for (int i = 0; i < 4; ++i)
      scanner.payload_left |=
          static_cast<std::uint64_t>(scanner.header[4 + i]) << (8 * i);
    on_frame_type(direction, scanner.header[3]);
  }
}

void TracedConnection::on_frame_type(Direction direction,
                                     std::uint8_t type) {
  if (type == static_cast<std::uint8_t>(SyncFrame::SummaryRequest)) {
    summary_pending_ = direction;
    return;
  }
  if (summary_pending_ < 0 || summary_pending_ == direction) return;
  summary_pending_ = -1;
  if (type == static_cast<std::uint8_t>(SyncFrame::SummaryMatch)) {
    ++counters_.summary_match;
  } else if (type == static_cast<std::uint8_t>(SyncFrame::BatchBegin)) {
    ++counters_.summary_direct;
  } else if (type == static_cast<std::uint8_t>(SyncFrame::SummaryMiss)) {
    ++counters_.summary_miss;
  }
}

}  // namespace perfbench
