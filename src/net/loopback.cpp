#include "net/loopback.hpp"

#include <cstring>
#include <string>
#include <vector>

namespace pfrdtn::net {

namespace {

/// One direction's bytes in flight: the writer appends, the reader
/// consumes from `head`, and the storage is reused once drained.
struct Pipe {
  std::vector<std::uint8_t> bytes;
  std::size_t head = 0;

  [[nodiscard]] std::size_t available() const {
    return bytes.size() - head;
  }
};

}  // namespace

struct LoopbackLink::State {
  LoopbackFaults faults;
  Pipe to_a;
  Pipe to_b;
  std::size_t delivered = 0;
  double seconds = 0.0;
  bool cut = false;  ///< link cut by the session deadline

  [[nodiscard]] bool past_deadline() const {
    return faults.deadline_seconds && seconds > *faults.deadline_seconds;
  }
};

class LoopbackLink::Endpoint : public Connection {
 public:
  Endpoint(std::shared_ptr<State> state, bool is_a)
      : state_(std::move(state)), is_a_(is_a) {}

  void write(const std::uint8_t* data, std::size_t size) override {
    if (closed_ || state_->cut)
      throw TransportError("loopback: write on closed link");
    auto& inbox = is_a_ ? state_->to_b : state_->to_a;
    inbox.bytes.insert(inbox.bytes.end(), data, data + size);
    state_->delivered += size;
    state_->seconds += state_->faults.latency_seconds;
    // The write that pushes simulated time past the session deadline
    // still delivers (it was in flight), but the link is cut for
    // everything after it — the loopback analogue of the TCP deadline.
    if (state_->past_deadline()) {
      state_->cut = true;
      throw TransportError(
          "loopback: session deadline exceeded after " +
          std::to_string(state_->seconds) + " simulated seconds");
    }
  }

  void read(std::uint8_t* data, std::size_t size) override {
    if (closed_) throw TransportError("loopback: read on closed link");
    auto& inbox = is_a_ ? state_->to_a : state_->to_b;
    // Sequential discipline: by the time a side reads, the peer has
    // written everything it will write — missing bytes mean the link
    // was cut (or the peer failed) mid-message.
    if (inbox.available() < size)
      throw TransportError("loopback: link dropped mid-read (wanted " +
                           std::to_string(size) + " bytes, have " +
                           std::to_string(inbox.available()) + ")");
    if (size == 0) return;
    std::memcpy(data, inbox.bytes.data() + inbox.head, size);
    inbox.head += size;
    if (inbox.head == inbox.bytes.size()) {
      inbox.bytes.clear();
      inbox.head = 0;
    }
  }

  void close() override { closed_ = true; }

 private:
  std::shared_ptr<State> state_;
  bool is_a_;
  bool closed_ = false;
};

LoopbackLink::LoopbackLink(LoopbackFaults faults)
    : state_(std::make_shared<State>()) {
  state_->faults = faults;
  a_ = std::make_unique<Endpoint>(state_, /*is_a=*/true);
  b_ = std::make_unique<Endpoint>(state_, /*is_a=*/false);
}

LoopbackLink::~LoopbackLink() = default;

Connection& LoopbackLink::a() { return *a_; }
Connection& LoopbackLink::b() { return *b_; }

std::size_t LoopbackLink::bytes_delivered() const {
  return state_->delivered;
}

double LoopbackLink::simulated_seconds() const {
  return state_->seconds;
}

}  // namespace pfrdtn::net
