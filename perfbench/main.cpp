/// perfbench: the repository's end-to-end benchmark. One process runs
/// one workload for --seconds, checks its outputs, and prints one JSON
/// result line (see README.md in this directory).
///
///   perfbench --workload contact_storm|durable_pull|paper_epidemic
///             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
///             [--disk-dir DIR] [--tiny] [--tamper KIND]

#include <pthread.h>
#include <sched.h>
#include <sys/statfs.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "tracer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"p50_ms", "ms"},
    {"ops_per_s", "1/s"},       {"cpu_ms_per_op", "ms"},
    {"wire_bytes_per_op", "B"}, {"peak_rss_mb", "MiB"},
    {"ok_ratio", "1"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"persist.records", "count"},
    {"persist.fsyncs", "count"},
    {"persist.sync_ms", "ms"},
    {"persist.append_bytes", "B"},
    {"persist.sink_ms", "ms"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.recover_ms", "ms"},
    {"persist.disk_sync_ms", "ms"},
    {"persist.disk_op_ms", "ms"},
    {"net.connect_ms", "ms"},
    {"net.wait_ms", "ms"},
    {"net.write_ms", "ms"},
    {"net.round_trips", "count"},
    {"net.bytes", "B"},
    {"net.refused", "count"},
    {"net.transport_failures", "count"},
    {"repl.items_sent", "count"},
    {"repl.items_new", "count"},
    {"repl.items_stale", "count"},
    {"repl.useful_ratio", "1"},
    {"repl.request_bytes", "B"},
    {"repl.batch_bytes", "B"},
    {"repl.summary_match", "1"},
    {"repl.summary_direct", "1"},
    {"repl.summary_miss", "1"},
    {"repl.client_self_ms", "ms"},
    {"trace.gen_ms", "ms"},
    {"sim.encounters", "count"},
    {"sim.syncs", "count"},
    {"sim.knowledge_bytes", "B"},
    {"proc.user_ms", "ms"},
    {"proc.sys_ms", "ms"},
    {"proc.minflt", "count"},
    {"proc.vcsw", "count"},
    {"proc.ivcsw", "count"},
    {"gen.offered_per_s", "1/s"},
    {"gen.late_p90_ms", "ms"},
    {"p90_ms", "ms"},
    {"p99_ms", "ms"},
    {"bench.tracing_overhead_pct", "%"},
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed{what};
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

void print_quantiles(const std::string& label,
                     const std::vector<double>& samples) {
  std::string line;
  for (const double q : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99,
                         1.0}) {
    char part[48];
    std::snprintf(part, sizeof part, " p%g=%.4g", q * 100,
                  percentile(samples, q));
    line += part;
  }
  std::fprintf(stderr, "perfbench: %s (n=%zu):%s\n", label.c_str(),
               samples.size(), line.c_str());
}

Usage Usage::now() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Usage out;
  out.user_ms = ms(usage.ru_utime);
  out.sys_ms = ms(usage.ru_stime);
  out.minflt = static_cast<double>(usage.ru_minflt);
  out.vcsw = static_cast<double>(usage.ru_nvcsw);
  out.ivcsw = static_cast<double>(usage.ru_nivcsw);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

Usage Usage::since(const Usage& earlier) const {
  Usage out;
  out.user_ms = user_ms - earlier.user_ms;
  out.sys_ms = sys_ms - earlier.sys_ms;
  out.minflt = minflt - earlier.minflt;
  out.vcsw = vcsw - earlier.vcsw;
  out.ivcsw = ivcsw - earlier.ivcsw;
  out.max_rss_mb = max_rss_mb;
  return out;
}

void Usage::add(const Usage& interval) {
  user_ms += interval.user_ms;
  sys_ms += interval.sys_ms;
  minflt += interval.minflt;
  vcsw += interval.vcsw;
  ivcsw += interval.ivcsw;
}

namespace {

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

std::vector<int> cpus_of(const cpu_set_t& set) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

/// Returns false when the kernel refuses the set.
bool set_affinity(pthread_t thread, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(thread, sizeof set, &set) == 0;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return {};
  return cpus_of(set);
}

std::string CpuSplit::describe() const {
  if (server.empty()) return "none";
  return "clients " + cpu_list(clients) + ", server " + cpu_list(server);
}

CpuSplit split_cpus(std::size_t clients) {
  const std::vector<int> cpus = allowed_cpus();
  CpuSplit split;
  if (cpus.size() <= clients) return split;
  split.clients.assign(cpus.begin(), cpus.begin() + clients);
  split.server.assign(cpus.begin() + clients, cpus.end());
  return split;
}

void pin_thread(const std::vector<int>& cpus) {
  if (!cpus.empty() && !set_affinity(::pthread_self(), cpus))
    throw std::runtime_error("cannot pin a thread to CPUs " +
                             cpu_list(cpus));
}

ScopedPin::ScopedPin(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::pthread_getaffinity_np(::pthread_self(), sizeof set, &set) != 0)
    throw std::runtime_error("cannot read the thread's CPUs");
  previous_ = cpus_of(set);
  pin_thread(cpus);
}

ScopedPin::~ScopedPin() {
  // Restoring a set the thread already had cannot be refused.
  if (!previous_.empty()) set_affinity(::pthread_self(), previous_);
}

CpuRotation::CpuRotation(std::vector<int> cpus)
    : target_(::pthread_self()), cpus_(std::move(cpus)) {
  if (cpus_.size() < 2) return;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t next = 0;
         !wake_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; });
         ++next) {
      // Placement only: a refused move leaves the run where it is.
      set_affinity(target_, {cpus_[next % cpus_.size()]});
    }
  });
}

CpuRotation::~CpuRotation() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
  set_affinity(target_, cpus_);
}

std::vector<double> time_setups(std::size_t count,
                                const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < count; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
    const pid_t child = ::fork();
    if (child < 0) throw std::runtime_error("set-up: fork failed");
    if (child == 0) {
      ::close(fds[0]);
      double took = -1;
      try {
        const std::uint64_t start = now_ns();
        setup();
        took = seconds_between(start, now_ns());
      } catch (...) {
        // Reported to the parent as a negative time.
      }
      const bool sent = ::write(fds[1], &took, sizeof took) == sizeof took;
      ::_exit(sent && took >= 0 ? 0 : 1);
    }
    ::close(fds[1]);
    double took = -1;
    const bool got = ::read(fds[0], &took, sizeof took) == sizeof took;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(child, &status, 0);
    if (!got || took < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up failed in its child process");
    seconds.push_back(took);
  }
  return seconds;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

namespace {

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    const auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double parsed = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(parsed) ||
          parsed < 0)
        usage_error(flag + ": not a non-negative number: " + text);
      return parsed;
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      args.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0')
        usage_error("--seed: not an integer: " + text);
    } else if (flag == "--seconds") {
      args.seconds = number(value());
      if (args.seconds <= 0) usage_error("--seconds must be > 0");
    } else if (flag == "--trace") {
      const std::string text = value();
      if (text != "0" && text != "1") usage_error("--trace takes 0 or 1");
      args.trace = text == "1";
    } else if (flag == "--spans") {
      args.spans_path = value();
    } else if (flag == "--disk-dir") {
      args.disk_dir = value();
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--tamper") {
      args.tamper = value();
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage_error("--workload is required");
  return args;
}

/// Numbers from unoptimized or instrumented builds are not comparable;
/// refuse them before measuring anything.
void refuse_unoptimized_build() {
  bool instrumented = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  instrumented = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  instrumented = true;
#endif
#endif
  bool asserts = false;
#ifndef NDEBUG
  asserts = true;
#endif
  if (instrumented || asserts ||
      std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing a '%s' build%s%s; benchmark numbers "
                 "come from Release builds only\n",
                 PERFBENCH_BUILD_TYPE, asserts ? " with assertions" : "",
                 instrumented ? " with sanitizers" : "");
    std::exit(2);
  }
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int* r = regs;
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * leaf, r, 16);
    }
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `value`.
std::string json_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

void print_context(const Outcome& outcome) {
  struct utsname name {};
  ::uname(&name);
  std::map<std::string, std::string> context = outcome.context;
  context["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  context["cpu_model"] = cpu_model();
  context["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  context["compiler"] = std::string("clang ") + __VERSION__;
#else
  context["compiler"] = std::string("gcc ") + __VERSION__;
#endif
  context["kernel"] = std::string(name.sysname) + " " + name.release;
  std::string line = "context {";
  bool first = true;
  for (const auto& [key, value] : context) {
    line += (first ? "" : ", ") + json_string(key) + ": " +
            json_string(value);
    first = false;
  }
  std::printf("%s}\n", line.c_str());
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  refuse_unoptimized_build();

  Outcome outcome;
  try {
    if (args.workload == "contact_storm") {
      run_contact_storm(args, outcome);
    } else if (args.workload == "durable_pull") {
      run_durable_pull(args, outcome);
    } else if (args.workload == "paper_epidemic") {
      run_paper_epidemic(args, outcome);
    } else {
      usage_error("unknown workload " + args.workload);
    }
  } catch (const CheckFailed& failed) {
    outcome.correct = false;
    outcome.failure = failed.what;
  } catch (const std::exception& error) {
    // The program failed outright (a link, a disk, a broken contract):
    // the run measured nothing it can vouch for.
    outcome.correct = false;
    outcome.failure = std::string("run aborted: ") + error.what();
  }
  print_context(outcome);

  std::string metrics;
  if (outcome.correct) {
    for (const MetricSpec& spec : args.trace ? kPerLayer : kEndToEnd) {
      const auto it = outcome.metrics.find(spec.name);
      if (it == outcome.metrics.end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     spec.name);
        return 2;
      }
      metrics += (metrics.empty() ? "" : ", ") + json_string(spec.name) +
                 ": {\"value\": " + json_number(it->second) +
                 ", \"unit\": " + json_string(spec.unit) + "}";
    }
  } else {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 outcome.failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return outcome.correct ? 0 : 1;
}
