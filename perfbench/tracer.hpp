#pragma once

/// \file tracer.hpp
/// Spans for the traced pass, recorded from outside the program: the
/// benchmark opens a span around each call it makes into a layer, and
/// the decorators in decorators.hpp open one around each call the
/// program makes through an interface the benchmark constructed.
///
/// A span is (id, parent, op, name, start, end). Spans nest per thread:
/// a span's parent is the span open on the same thread when it began,
/// and it inherits that parent's op id. Per-name totals (count, total
/// time, self time) are folded in exactly as each span ends; self time
/// is the span's duration minus the part its children cover (children
/// on one thread never overlap, so that part is their summed duration).
/// The spans themselves are kept in memory (every op span, and layer
/// spans up to kMaxStoredSpans) and written out by write_csv() once the
/// pass is over; the totals cover every span either way.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  Op,                   ///< one workload op (session, pull, setup)
  NetConnect,           ///< net::tcp_connect
  NetWrite,             ///< net::Connection::write
  NetWait,              ///< net::Connection::read (time blocked)
  PersistSink,          ///< a repl::ReplicaMutationSink hook (Durability)
  PersistLedger,        ///< Durability::note_delivered
  PersistAppend,        ///< StorageEnv::append
  PersistSync,          ///< StorageEnv::sync (the fsync)
  PersistWriteDurable,  ///< StorageEnv::write_file_durable
  PersistRecover,       ///< persist::recover
  PersistAttach,        ///< Durability::attach
  TraceGen,             ///< trace::generate_mobility + generate_email
  SimConstruct,         ///< sim::Emulation constructor
  SimRun,               ///< sim::Emulation::run
  Count
};

[[nodiscard]] const char* span_name(SpanName name);

/// Nanoseconds on the steady clock.
[[nodiscard]] std::uint64_t now_ns();

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = std::size_t{1} << 18;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread. `op` 0 inherits the parent's.
  void begin(SpanName name, std::uint32_t op = 0);
  /// Close the innermost open span of the calling thread.
  void end();

  /// Totals merged over every thread; call once the pass is quiescent.
  [[nodiscard]] SpanTotals totals(SpanName name) const;
  /// Layer spans computed into the totals but not kept.
  [[nodiscard]] std::size_t dropped() const { return dropped_.load(); }

  /// Write every stored span as CSV (id,parent,op,name,start_ns,end_ns;
  /// ids are thread<<40|sequence, parent 0 = root). Returns false if
  /// the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  struct Open {
    SpanName name;
    std::uint32_t op;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t children_ns;
  };
  struct Record {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t op;
    SpanName name;
  };
  struct ThreadLog {
    std::uint64_t index = 0;
    std::uint64_t next_seq = 1;
    std::vector<Open> stack;
    std::vector<Record> spans;
    std::array<SpanTotals, static_cast<std::size_t>(SpanName::Count)>
        totals{};
  };

  ThreadLog& local();

  const std::uint64_t generation_;
  mutable std::mutex mutex_;  ///< guards threads_
  std::vector<std::unique_ptr<ThreadLog>> threads_;
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::size_t> dropped_{0};
};

/// RAII span; a null tracer makes it a no-op (the untraced pass).
class Span {
 public:
  Span(Tracer* tracer, SpanName name, std::uint32_t op = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, op);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
