#include "obs/obs.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "util/file.h"
#include "util/json.h"

namespace smart::obs {

namespace {

using util::json_escape;
using util::json_number;

thread_local uint64_t t_trace_id = 0;

/// Fixed-point microseconds for trace timestamps. The trace clock is
/// CLOCK_MONOTONIC-absolute (machine uptime), so ts can be ~1e11 µs —
/// %.10g would round away sub-10µs structure there; %.3f keeps ns
/// resolution at any uptime.
std::string json_us(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

/// Summary of `sorted` (the samples kept, sorted here) for a histogram that
/// has seen `count` samples adding up to `sum` in all.
HistogramSummary summarize(std::vector<double> sorted, size_t count,
                           double sum) {
  HistogramSummary s;
  if (sorted.empty()) return s;
  std::sort(sorted.begin(), sorted.end());
  s.count = count;
  s.window = sorted.size();
  s.sum = sum;
  s.mean = sum / static_cast<double>(count);
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = percentile(sorted, 50.0);
  s.p90 = percentile(sorted, 90.0);
  s.p99 = percentile(sorted, 99.0);
  // Equal-width buckets over [min, max]. A degenerate range (all samples
  // equal) collapses to one bucket holding everything.
  if (s.max > s.min) {
    const size_t nb = HistogramSummary::kHistogramBuckets;
    const double width = (s.max - s.min) / static_cast<double>(nb);
    s.bucket_bounds.resize(nb + 1);
    for (size_t b = 0; b <= nb; ++b)
      s.bucket_bounds[b] = s.min + width * static_cast<double>(b);
    s.bucket_bounds.back() = s.max;  // exact upper edge, no fp drift
    s.bucket_counts.assign(nb, 0);
    for (double v : sorted) {
      size_t b = static_cast<size_t>((v - s.min) / width);
      if (b >= nb) b = nb - 1;  // v == max lands in the last bucket
      ++s.bucket_counts[b];
    }
  } else {
    s.bucket_bounds = {s.min, s.max};
    s.bucket_counts = {s.window};
  }
  return s;
}

}  // namespace

HistogramSummary summarize_samples(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return summarize(samples, samples.size(), sum);
}

uint64_t current_trace_id() { return t_trace_id; }

namespace {
std::atomic<const SpanHooks*> g_span_hooks{nullptr};
}  // namespace

void install_span_hooks(const SpanHooks* hooks) {
  const SpanHooks* expected = nullptr;
  g_span_hooks.compare_exchange_strong(expected, hooks,
                                       std::memory_order_acq_rel);
}

const SpanHooks* span_hooks() {
  return g_span_hooks.load(std::memory_order_acquire);
}

ScopedTraceId::ScopedTraceId(uint64_t id) : prev_(t_trace_id) {
  t_trace_id = id;
}

ScopedTraceId::~ScopedTraceId() { t_trace_id = prev_; }

void Histogram::record(double sample) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push(sample);
  sum_ += sample;
}

HistogramSummary Histogram::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summarize(ring_.items(), ring_.pushed(), sum_);
}

// The trace epoch is the steady clock's zero (on Linux: machine boot),
// shared by every process on the machine — so a client trace and a daemon
// trace concatenate into one coherent cross-process timeline with no
// offset negotiation.
Telemetry::Telemetry()
    : epoch_(), pid_(static_cast<uint32_t>(::getpid())) {}

Telemetry& Telemetry::instance() {
  static Telemetry telemetry;
  return telemetry;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

double Telemetry::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t Telemetry::tid_of(std::thread::id id) {
  // Caller holds mu_.
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const uint32_t tid = static_cast<uint32_t>(tids_.size()) + 1;
  tids_.emplace(id, tid);
  return tid;
}

void Telemetry::counter_add(std::string_view name, double delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void Telemetry::gauge_set(std::string_view name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    gauges_.emplace(std::string(name), value);
  else
    it->second = value;
}

void Telemetry::hist_record(std::string_view name, double sample) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hists_.find(name);
  if (it == hists_.end()) it = hists_.try_emplace(std::string(name)).first;
  it->second.record(sample);
}

double Telemetry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Telemetry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSummary Telemetry::hist_summary(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hists_.find(name);
  return it == hists_.end() ? HistogramSummary{} : it->second.summary();
}

size_t Telemetry::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<SpanEvent> Telemetry::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.ordered();
}

void Telemetry::set_process_label(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  process_label_ = std::move(label);
}

void Telemetry::record_span(SpanEvent ev) {
  std::lock_guard<std::mutex> lock(mu_);
  ev.tid = tid_of(std::this_thread::get_id());
  if (!events_.push(std::move(ev))) counters_["obs.spans_dropped"] += 1.0;
}

std::string Telemetry::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string pid = json_number(pid_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  if (!process_label_.empty()) {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
           ",\"tid\":0,\"args\":{\"name\":\"" + json_escape(process_label_) +
           "\"}}";
    first = false;
  }
  events_.for_each([&](const SpanEvent& ev) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(ev.name) + "\",\"cat\":\"" +
           json_escape(ev.cat) + "\",\"ph\":\"X\",\"ts\":" +
           json_us(ev.ts_us) + ",\"dur\":" + json_us(ev.dur_us) +
           ",\"pid\":" + pid + ",\"tid\":" + json_number(ev.tid);
    const bool has_args = !ev.args.empty() || ev.trace_id != 0;
    if (has_args) {
      out += ",\"args\":{";
      bool afirst = true;
      if (ev.trace_id != 0) {
        char idbuf[32];
        std::snprintf(idbuf, sizeof(idbuf), "%llu",
                      static_cast<unsigned long long>(ev.trace_id));
        out += std::string("\"trace_id\":") + idbuf;
        afirst = false;
      }
      for (const auto& [k, v] : ev.args) {
        if (!afirst) out += ",";
        afirst = false;
        out += '"';
        out += json_escape(k);
        out += "\":";
        out += json_number(v);
      }
      out += "}";
    }
    out += "}";
  });
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Telemetry::metrics_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(k) + "\": " + json_number(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [k, v] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(k) + "\": " + json_number(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [k, hist] : hists_) {
    const HistogramSummary s = hist.summary();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(k) + "\": {\"count\": " +
           json_number(static_cast<double>(s.count)) +
           ", \"min\": " + json_number(s.min) +
           ", \"max\": " + json_number(s.max) +
           ", \"mean\": " + json_number(s.mean) +
           ", \"sum\": " + json_number(s.sum) +
           ", \"p50\": " + json_number(s.p50) +
           ", \"p90\": " + json_number(s.p90) +
           ", \"p99\": " + json_number(s.p99);
    out += ", \"buckets\": {\"bounds\": [";
    for (size_t b = 0; b < s.bucket_bounds.size(); ++b)
      out += (b ? ", " : "") + json_number(s.bucket_bounds[b]);
    out += "], \"counts\": [";
    for (size_t b = 0; b < s.bucket_counts.size(); ++b)
      out += (b ? ", " : "") +
             json_number(static_cast<double>(s.bucket_counts[b]));
    out += "]}}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

bool Telemetry::write_chrome_trace(const std::string& path) const {
  return util::write_file(path, chrome_trace_json());
}

bool Telemetry::write_metrics(const std::string& path) const {
  return util::write_file(path, metrics_json());
}

Span::Span(const char* name, const char* cat) {
  // The profiler's span-path context works even when telemetry is off, so
  // the hook check precedes the enabled check (both are one relaxed/acquire
  // atomic load when inactive).
  if (const SpanHooks* h = g_span_hooks.load(std::memory_order_acquire)) {
    h->enter(name);
    hooked_ = true;
  }
  auto& tel = Telemetry::instance();
  if (!tel.enabled()) return;
  live_ = true;
  ev_.name = name;
  ev_.cat = cat;
  ev_.trace_id = t_trace_id;
  start_us_ = tel.now_us();
}

Span::Span(std::string name, const char* cat) {
  if (const SpanHooks* h = g_span_hooks.load(std::memory_order_acquire)) {
    h->enter(name.c_str());
    hooked_ = true;
  }
  auto& tel = Telemetry::instance();
  if (!tel.enabled()) return;
  live_ = true;
  ev_.name = std::move(name);
  ev_.cat = cat;
  ev_.trace_id = t_trace_id;
  start_us_ = tel.now_us();
}

Span::~Span() {
  if (hooked_) {
    // Hooks are install-once, so a hooked span always finds them again.
    g_span_hooks.load(std::memory_order_acquire)->exit();
  }
  if (!live_) return;
  auto& tel = Telemetry::instance();
  ev_.ts_us = start_us_;
  ev_.dur_us = tel.now_us() - start_us_;
  tel.record_span(std::move(ev_));
}

void Span::arg(const char* key, double value) {
  if (!live_) return;
  ev_.args.emplace_back(key, value);
}

double Span::elapsed_ms() const {
  if (!live_) return 0.0;
  return (Telemetry::instance().now_us() - start_us_) / 1000.0;
}

}  // namespace smart::obs
