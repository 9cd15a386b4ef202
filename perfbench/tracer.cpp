#include "tracer.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

/// Distinguishes tracers that reuse one address, so a thread's cached
/// log never outlives the tracer it belongs to.
std::atomic<std::uint64_t> g_generation{0};

struct ThreadCache {
  std::uint64_t generation = 0;
  void* log = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::Op: return "op";
    case SpanName::NetConnect: return "net.connect";
    case SpanName::NetWrite: return "net.write";
    case SpanName::NetWait: return "net.wait";
    case SpanName::PersistSink: return "persist.sink";
    case SpanName::PersistLedger: return "persist.ledger";
    case SpanName::PersistAppend: return "persist.append";
    case SpanName::PersistSync: return "persist.sync";
    case SpanName::PersistWriteDurable: return "persist.write_durable";
    case SpanName::PersistRecover: return "persist.recover";
    case SpanName::PersistAttach: return "persist.attach";
    case SpanName::TraceGen: return "trace.gen";
    case SpanName::SimConstruct: return "sim.construct";
    case SpanName::SimRun: return "sim.run";
    case SpanName::Count: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer() : generation_(++g_generation) {}

Tracer::ThreadLog& Tracer::local() {
  if (t_cache.generation != generation_) {
    auto log = std::make_unique<ThreadLog>();
    std::lock_guard<std::mutex> lock(mutex_);
    log->index = threads_.size() + 1;
    t_cache.generation = generation_;
    t_cache.log = log.get();
    threads_.push_back(std::move(log));
  }
  return *static_cast<ThreadLog*>(t_cache.log);
}

void Tracer::begin(SpanName name, std::uint32_t op) {
  ThreadLog& log = local();
  const Open* parent = log.stack.empty() ? nullptr : &log.stack.back();
  Open open{};
  open.name = name;
  open.op = op != 0 ? op : (parent != nullptr ? parent->op : 0);
  open.id = (log.index << 40) | log.next_seq++;
  open.parent = parent != nullptr ? parent->id : 0;
  open.start_ns = now_ns();
  log.stack.push_back(open);
}

void Tracer::end() {
  const std::uint64_t end = now_ns();
  ThreadLog& log = local();
  const Open open = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  if (!log.stack.empty()) log.stack.back().children_ns += duration;
  SpanTotals& totals = log.totals[static_cast<std::size_t>(open.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.children_ns;
  // Op spans are always kept; the cap bounds the layer spans below.
  if (open.name == SpanName::Op || stored_.fetch_add(1) < kMaxStoredSpans) {
    log.spans.push_back(
        {open.id, open.parent, open.start_ns, end, open.op, open.name});
  } else {
    dropped_.fetch_add(1);
  }
}

SpanTotals Tracer::totals(SpanName name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanTotals sum;
  for (const auto& log : threads_) {
    const SpanTotals& part = log->totals[static_cast<std::size_t>(name)];
    sum.count += part.count;
    sum.total_ns += part.total_ns;
    sum.self_ns += part.self_ns;
  }
  return sum;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,op,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : threads_) {
    for (const Record& span : log->spans) {
      std::fprintf(out, "%llu,%llu,%u,%s,%llu,%llu\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.op,
                   span_name(span.name),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
