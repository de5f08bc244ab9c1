#pragma once

/// \file obs.h
/// Observability for the sizing pipeline: an RAII span tracer plus a
/// metrics registry (counters, gauges, histograms), with exporters for
/// Chrome `trace_event` JSON (load in chrome://tracing or Perfetto) and a
/// flat metrics JSON.
///
/// The instrumentation stays compiled into release builds, same discipline
/// as util::FaultInjector: while telemetry is disabled (the default) every
/// hook costs one relaxed atomic load — no clock read, no allocation, no
/// lock. Recording is thread-safe throughout; advisor sweeps emit spans
/// and metrics concurrently from `par` pool workers.
///
/// Naming scheme (see DESIGN.md §7): dot-separated `<stage>.<what>` names,
/// e.g. `gp.solve.newton_iters`, `timing.prune.reduction`,
/// `sizer.respec.mismatch`, `advisor.candidate.ms`.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace smart::obs {

/// One completed span in Chrome trace_event "X" (complete-event) form.
/// Timestamps are microseconds on the shared trace clock (see
/// Telemetry::now_us): CLOCK_MONOTONIC's zero, not process start, so
/// traces exported by different processes on the same machine merge into
/// one consistent timeline.
struct SpanEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  /// Distributed trace this span belongs to (0 = none). Exported as an
  /// args entry so Perfetto/chrome://tracing can filter one request's
  /// spans across processes. Kept within 48 bits so the id survives the
  /// double-typed JSON number round trip exactly.
  uint64_t trace_id = 0;
  /// Numeric annotations, rendered into the event's "args" object.
  std::vector<std::pair<std::string, double>> args;
};

/// Trace id of the calling thread's current request context (0 = none).
/// Spans constructed while a context is set inherit it automatically.
uint64_t current_trace_id();

/// Observer hooks fired at span construction/destruction, independent of
/// the telemetry enable flag. The SMART-Prof sampling profiler installs
/// these to maintain a per-thread span-path context that its SIGPROF
/// samples are tagged with (see src/prof). Hooks run in normal (non-signal)
/// context on the span's thread; `enter` receives the span name, which is
/// only guaranteed valid for the duration of the call (copy it if kept).
///
/// While no hooks are installed every span pays exactly one extra relaxed
/// atomic load (the same discipline as the telemetry enable flag). Hooks
/// are install-once: they stay for the process lifetime so enter/exit
/// pairing can never be torn by a mid-span uninstall.
struct SpanHooks {
  void (*enter)(const char* name) = nullptr;
  void (*exit)() = nullptr;
};

/// Installs process-lifetime span hooks. Idempotent for the same pointer;
/// a second install with a different pointer is ignored (first wins).
void install_span_hooks(const SpanHooks* hooks);
/// Currently installed hooks (nullptr = none).
const SpanHooks* span_hooks();

/// RAII trace context: sets the calling thread's trace id for the scope,
/// restoring the previous one on destruction (contexts nest). Always
/// active regardless of the telemetry enable flag — it is one thread-local
/// store, and downstream consumers (access logs) need ids even when span
/// collection is off.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t id);
  ~ScopedTraceId();

  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  uint64_t prev_;
};

/// Summary statistics of one histogram, computed at query/export time.
/// `count`, `sum` and `mean` cover every sample ever recorded; the rest
/// describe the `window` most recent ones (all of them until a Histogram
/// wraps). Percentiles use the nearest-rank method on the sorted window.
/// Buckets are equal-width over [min, max] (kHistogramBuckets of them;
/// a single catch-all bucket when min == max): bucket_bounds holds the
/// bucket edges (size = #buckets + 1) and bucket_counts the per-bucket
/// sample counts, so the distribution shape — not just the percentile
/// triple — round-trips through the JSON metrics export.
struct HistogramSummary {
  static constexpr size_t kHistogramBuckets = 12;

  size_t count = 0;
  size_t window = 0;  ///< samples behind min..p99 and the buckets
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<double> bucket_bounds;  ///< edges, size = bucket_counts.size()+1
  std::vector<size_t> bucket_counts;  ///< sums to `window`
};

/// Summary (incl. buckets) of an ad-hoc sample set, using the same math as
/// the Telemetry histogram exporter — report layers can build histograms
/// that round-trip through the metrics JSON identically.
HistogramSummary summarize_samples(const std::vector<double>& samples);

/// Samples a Histogram keeps for its percentiles and buckets. The largest
/// histogram a paper bench exports holds 45 samples, so those exports
/// summarize every sample; a long-running daemon holds at most this many
/// per histogram.
constexpr size_t kHistogramWindow = 1024;

/// The most recent `capacity` items plus a count of every item ever
/// pushed: the one bounded buffer behind Histogram, the Telemetry span
/// buffer and smartd's access log. Not thread-safe; owners guard it with
/// their own lock.
template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Appends `item`. Once full it overwrites the oldest item and returns
  /// false.
  bool push(T item) {
    ++pushed_;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return true;
    }
    items_[oldest_] = std::move(item);
    oldest_ = (oldest_ + 1) % capacity_;
    return false;
  }

  size_t size() const { return items_.size(); }
  uint64_t pushed() const { return pushed_; }
  /// The items in storage order, for summaries that do not care about age.
  const std::vector<T>& items() const { return items_; }
  /// Calls fn(item) oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < items_.size(); ++i)
      fn(items_[(oldest_ + i) % items_.size()]);
  }
  std::vector<T> ordered() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for_each([&out](const T& item) { out.push_back(item); });
    return out;
  }
  void clear() {
    items_.clear();
    oldest_ = 0;
    pushed_ = 0;
  }

 private:
  size_t capacity_;
  std::vector<T> items_;
  size_t oldest_ = 0;  ///< index of the oldest item once full, else 0
  uint64_t pushed_ = 0;
};

/// Thread-safe histogram with bounded memory: a ring of the most recent
/// kHistogramWindow samples plus an exact all-time count and sum. It works
/// regardless of the telemetry enable flag, so it is safe to leave
/// recording for the life of a process. summary() snapshots the window
/// under the lock without clearing it.
class Histogram {
 public:
  void record(double sample);
  HistogramSummary summary() const;

 private:
  mutable std::mutex mu_;
  Ring<double> ring_{kHistogramWindow};
  double sum_ = 0.0;
};

/// Spans the Telemetry buffer keeps: the most recent ones, so a
/// long-running traced daemon holds bounded memory. Each span dropped past
/// the window counts in the `obs.spans_dropped` counter, which appears in
/// the metrics export only once a span has been dropped. Every trace CI
/// writes is far inside the window: the telemetry smoke holds 28 spans and
/// the serve smoke's daemon trace 90 (95 merged). A smartd size request
/// for mux/strong_pass/8 records about 31 spans, so the window holds the
/// last ~130 such requests.
constexpr size_t kSpanWindow = 4096;

/// Process-wide telemetry collector. All recording methods are no-ops
/// (one relaxed atomic load) while disabled.
class Telemetry {
 public:
  static Telemetry& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all recorded spans and metrics; keeps the enabled flag.
  void reset();

  // ---- metrics ----
  void counter_add(std::string_view name, double delta = 1.0);
  void gauge_set(std::string_view name, double value);
  void hist_record(std::string_view name, double sample);

  /// Current value of a counter/gauge (0 when never recorded).
  double counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  /// Summary of a histogram (zeroed when never recorded).
  HistogramSummary hist_summary(std::string_view name) const;

  // ---- spans ----
  /// Number of completed spans in the buffer (at most kSpanWindow).
  size_t span_count() const;
  /// Copy of the span buffer, in completion (end-time) order.
  std::vector<SpanEvent> spans() const;

  /// Human label for this process in the Chrome trace ("smartd",
  /// "smart_cli", ...). Emitted as a process_name metadata event so merged
  /// multi-process traces read sensibly. Empty (the default) emits none.
  void set_process_label(std::string label);

  // ---- exporters ----
  /// Chrome trace_event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string chrome_trace_json() const;
  /// Flat metrics JSON: {"counters":{},"gauges":{},"histograms":{}}.
  std::string metrics_json() const;
  /// Write either export to a file atomically (util::write_file); returns
  /// false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;
  bool write_metrics(const std::string& path) const;

  // ---- used by Span; not part of the public recording API ----
  void record_span(SpanEvent ev);
  double now_us() const;

 private:
  Telemetry();

  /// Small stable integer id for the calling thread (Chrome "tid").
  uint32_t tid_of(std::thread::id id);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  uint32_t pid_ = 0;
  std::string process_label_;
  mutable std::mutex mu_;
  Ring<SpanEvent> events_{kSpanWindow};
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> hists_;
  std::map<std::thread::id, uint32_t> tids_;
};

/// RAII trace span: records one SpanEvent from construction to destruction.
/// Nesting falls out of scoping — Chrome reconstructs the stack from
/// per-thread timestamp containment. While telemetry is disabled the
/// constructor is one relaxed atomic load and nothing else runs.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "smart");
  /// Dynamic-name overload for cold paths (e.g. per-candidate spans).
  explicit Span(std::string name, const char* cat = "smart");
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric annotation to the event (ignored while disabled).
  void arg(const char* key, double value);
  /// Milliseconds since construction; 0 while disabled.
  double elapsed_ms() const;

 private:
  bool live_ = false;
  bool hooked_ = false;
  double start_us_ = 0.0;
  SpanEvent ev_;
};

/// Always-on wall-clock stopwatch, for results that must carry timing even
/// when tracing is off (e.g. per-candidate wall time in an Advice report).
class StopWatch {
 public:
  StopWatch() : t0_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace smart::obs
