#pragma once

/// \file resource.h
/// Span-level resource accounting: RAII deltas of per-thread rusage
/// (utime/stime, minor/major faults) and process peak RSS.
///
/// A ResourceScope snapshots the counters at construction and, when
/// telemetry is enabled, records the deltas at destruction under a tag:
///   counters:  rusage.<tag>.utime_ms / .stime_ms / .minflt / .majflt
///   histogram: rusage.<tag>.cpu_ms          (utime + stime per scope)
///   gauge:     rusage.<tag>.peak_rss_kb     (process ru_maxrss high-water)
/// All land in the existing obs metrics JSON with zero new export code.
///
/// Cost discipline matches obs::Span: while telemetry is disabled the
/// constructor is one relaxed atomic load and nothing else runs.

#include <cstdint>

namespace smart::prof {

/// Point-in-time resource counters (see snapshot()).
struct ResourceUsage {
  double utime_ms = 0.0;     ///< thread user CPU time
  double stime_ms = 0.0;     ///< thread system CPU time
  int64_t minflt = 0;        ///< thread minor page faults
  int64_t majflt = 0;        ///< thread major page faults
  int64_t peak_rss_kb = 0;   ///< process peak RSS (ru_maxrss, KiB)
};

/// Current counters for the calling thread (+ process peak RSS).
ResourceUsage snapshot_usage();

/// RAII accounting scope. `tag` must outlive the scope (string literals).
class ResourceScope {
 public:
  explicit ResourceScope(const char* tag);
  ~ResourceScope();

  ResourceScope(const ResourceScope&) = delete;
  ResourceScope& operator=(const ResourceScope&) = delete;

  /// Deltas so far (zeros while telemetry is disabled). For tests.
  ResourceUsage delta() const;

 private:
  const char* tag_;
  bool live_ = false;
  ResourceUsage start_;
};

}  // namespace smart::prof
