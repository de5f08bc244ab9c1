#pragma once

/// \file bench.h
/// Shared pieces of SMART-Bench: the seeded plan RNG, the span recorder,
/// summary statistics, and the result every workload hands back to main.
/// The benchmark drives SMART only through its public API; every timing
/// here is taken by the benchmark around a public call.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64 stream: the only randomness in a workload plan, so one seed
/// gives one plan on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  uint64_t s_;
};

/// One recorded span: a public call the benchmark timed.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  int64_t parent = -1;   ///< index of the enclosing span on the same thread
  int64_t request = -1;  ///< request id; -1 for set-up and checks
  uint32_t tid = 0;
};

/// In-memory span recorder. Disabled, begin() returns -1 and records
/// nothing; enabled, spans are appended under a mutex and written out once
/// at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  int64_t begin(const char* name, int64_t request);
  void end(int64_t index);
  std::vector<SpanRecord> spans() const;
  /// Durations (ms) of every closed span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Writes the spans as a Chrome trace_event JSON file.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
};

/// RAII span around one public call.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t request = -1)
      : tracer_(tracer), index_(tracer.begin(name, request)) {}
  ~Span() { tracer_.end(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int64_t index_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest of p99/p95/p90/p75 with at least ten samples above it;
/// `name` is left empty when the sample is too small for any of them.
struct Tail {
  std::string name;
  double value = 0.0;
  size_t beyond = 0;
};
Tail tail_latency(const std::vector<double>& v);

/// What a workload run hands back to main.
struct WorkloadResult {
  // End to end (untraced numbers when --trace 0).
  std::vector<double> latencies_ms;  ///< one per timed request
  double timed_wall_s = 0.0;
  int64_t sizings = 0;    ///< completed sizings inside the timed window
  int64_t attempted = 0;  ///< requests attempted inside the timed window
  int64_t ok = 0;         ///< requests that passed every check
  double total_width_um = 0.0;  ///< over the fixed request set
  double clock_width_um = -1.0; ///< < 0 when the public results lack it
  std::vector<std::string> failures;  ///< one line per failed check
  int passes = 0;

  // Configuration for the run record.
  int pool_threads = 0;
  int server_workers = 0;
  int clients = 1;
  std::vector<std::string> plan;  ///< request descriptors in send order

  /// Exact outputs that must repeat for one seed (widths, Newton counts,
  /// constraint counts, cache outcomes), keyed by name.
  std::map<std::string, double> deterministic;
  /// Per-layer metrics (traced run only): name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> layer;
  /// Samples behind each timing metric, for the run record.
  std::map<std::string, size_t> samples;

  void fail(const std::string& what) { failures.push_back(what); }
};

/// The sizer's convergence tolerance: a sizing counts as meeting its spec
/// when the reference timer measures no more than 2% over it.
constexpr double kConvergeTol = 0.02;

}  // namespace perfbench
