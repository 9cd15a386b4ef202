#pragma once

/// \file common.hpp
/// What the three workloads share: the command line, the metric
/// tables, the result of a run, latency statistics, and process
/// resource snapshots.

#include <pthread.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 4;
  double seconds = 10;
  bool trace = false;
  /// A tiny input size, for the benchmark's own test.
  bool tiny = false;
  /// Corrupt one observed output before it is checked (self-test).
  std::string tamper;
  /// Where the traced pass writes its spans (CSV); empty = nowhere.
  std::string spans_path;
  /// Directory on the checkout's own filesystem for the informational
  /// durable_pull device pass; empty skips that pass.
  std::string disk_dir;
};

/// The result of one run: correct is false iff an output check failed
/// or the run aborted, and then it reports no metrics.
struct Outcome {
  bool correct = true;
  std::string failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Run context: filesystem of each state dir, and any notes.
  std::map<std::string, std::string> context;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with tracing off, by every workload.
extern const std::vector<MetricSpec> kEndToEnd;
/// Printed with tracing on, by every workload (0 where a layer is idle).
extern const std::vector<MetricSpec> kPerLayer;

/// Thrown by a workload whose output check fails.
struct CheckFailed {
  std::string what;
};
void check(bool ok, const std::string& what);

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
/// One stderr line of deciles plus p99 and max, for reading a run.
void print_quantiles(const std::string& label,
                     const std::vector<double>& samples);

/// getrusage(RUSAGE_SELF) at one instant.
struct Usage {
  double user_ms = 0;
  double sys_ms = 0;
  double minflt = 0;
  double vcsw = 0;
  double ivcsw = 0;
  double max_rss_mb = 0;

  static Usage now();
  /// Component-wise difference; max_rss_mb keeps the later value.
  [[nodiscard]] Usage since(const Usage& earlier) const;
  /// Component-wise sum of interval usages (max_rss_mb is untouched).
  void add(const Usage& interval);
};

/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// The network workloads keep their client threads and the server they
/// talk to on different CPUs, as on separate devices. Left to the
/// scheduler, the two sides shared a CPU in some runs and not in
/// others, which moved durable_pull's median by up to a third.
struct CpuSplit {
  std::vector<int> clients;  ///< one CPU per client thread
  std::vector<int> server;   ///< the rest; empty = no pinning
  [[nodiscard]] std::string describe() const;
};
/// Split the CPUs this process may use; no pinning when fewer than
/// `clients` + 1 are available.
[[nodiscard]] CpuSplit split_cpus(std::size_t clients);

/// Restrict the calling thread, and the threads it creates afterwards,
/// to `cpus` (no-op when empty).
void pin_thread(const std::vector<int>& cpus);

/// Pins the calling thread to `cpus` (none when empty) while alive, so
/// threads it creates meanwhile inherit them; then restores its CPUs.
class ScopedPin {
 public:
  explicit ScopedPin(const std::vector<int>& cpus);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  std::vector<int> previous_;
};

/// Moves the calling thread round `cpus`, one CPU per 100 ms, while
/// alive; then lets it run on all of them. Interference from other guests
/// differs per vCPU and lasts seconds, so a single-threaded run that
/// stays on one vCPU measures that vCPU's neighbours; rotating makes it
/// average over all of them. It narrowed paper_epidemic's run-to-run
/// spread from 0.20 to 0.12 of the median (README.md).
class CpuRotation {
 public:
  explicit CpuRotation(std::vector<int> cpus);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  const pthread_t target_;
  const std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  ///< guarded by mutex_
  std::thread thread_;
};

/// Filesystem type of `path` (statfs), e.g. "ext4", "tmpfs".
[[nodiscard]] std::string filesystem_type(const std::string& path);

/// Time `setup` in `count` forked children, one after another; returns
/// seconds. Each child starts from this process's state and exits
/// without tearing down what it built. Call it while this process has
/// one thread. A set-up of a few ms is mostly page faults; timed in one
/// process, each repeat starts from whatever memory the previous one
/// left behind, and whole runs landed in a 2.5 ms or a 3.8 ms mode.
/// From identical children, every set-up starts cold, as a freshly
/// started `pfrdtn` does.
[[nodiscard]] std::vector<double> time_setups(
    std::size_t count, const std::function<void()>& setup);

/// Seconds as a double between two now_ns() readings.
[[nodiscard]] inline double seconds_between(std::uint64_t start_ns,
                                            std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}
[[nodiscard]] inline double ms_between(std::uint64_t start_ns,
                                       std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Run one workload into `outcome`. An output check that fails throws
/// CheckFailed; the context gathered so far stays in `outcome`.
void run_contact_storm(const Args& args, Outcome& outcome);
void run_durable_pull(const Args& args, Outcome& outcome);
void run_paper_epidemic(const Args& args, Outcome& outcome);

}  // namespace perfbench
