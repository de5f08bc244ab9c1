// Tests for the observability subsystem: span nesting and ordering,
// histogram percentile math, disabled-mode zero cost, thread-safe
// concurrent emission, and well-formedness of both JSON exports (parsed
// back with a minimal JSON reader below — the exported traces must load in
// chrome://tracing, so syntactic validity is part of the contract).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/sizer.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "util/json.h"

namespace smart::obs {
namespace {

// JSON exports are parsed back with the in-tree minimal reader
// (util/json.h); syntactic validity is part of the contract since the
// traces must load in chrome://tracing.

using util::JsonValue;

/// Adapter keeping the historical test spelling `JsonParser(text).parse(&v)`.
struct JsonParser {
  explicit JsonParser(const std::string& text) : text_(text) {}
  bool parse(JsonValue* out) { return util::json_parse(text_, out); }
  const std::string& text_;
};

/// Enables telemetry on a clean buffer; restores the disabled default so
/// test order cannot leak state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& tel = Telemetry::instance();
    tel.enable(true);
    tel.reset();
  }
  void TearDown() override {
    auto& tel = Telemetry::instance();
    tel.enable(false);
    tel.reset();
  }
};

TEST_F(ObsTest, SpanNestingAndOrdering) {
  {
    Span outer("outer");
    {
      Span inner("inner");
      Span sibling("sibling");
    }
  }
  auto& tel = Telemetry::instance();
  ASSERT_EQ(tel.span_count(), 3u);
  const auto spans = tel.spans();
  // Completion order: children end before their parent.
  EXPECT_EQ(spans[2].name, "outer");
  const auto& outer = spans[2];
  for (size_t i = 0; i < 2; ++i) {
    const auto& child = spans[i];
    EXPECT_GE(child.ts_us, outer.ts_us);
    EXPECT_LE(child.ts_us + child.dur_us,
              outer.ts_us + outer.dur_us + 1e-6);
    EXPECT_GE(child.dur_us, 0.0);
  }
}

TEST_F(ObsTest, SpanArgsAndElapsed) {
  Span span("with_args");
  span.arg("k", 42.0);
  EXPECT_GE(span.elapsed_ms(), 0.0);
  // Destruction records the args.
  {
    Span s2("s2");
    s2.arg("x", 1.0);
    s2.arg("y", 2.5);
  }
  const auto spans = Telemetry::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[1].first, "y");
  EXPECT_DOUBLE_EQ(spans[0].args[1].second, 2.5);
}

TEST_F(ObsTest, CountersAndGauges) {
  auto& tel = Telemetry::instance();
  tel.counter_add("c.calls");
  tel.counter_add("c.calls", 2.0);
  tel.gauge_set("g.value", 3.0);
  tel.gauge_set("g.value", 7.0);  // last write wins
  EXPECT_DOUBLE_EQ(tel.counter("c.calls"), 3.0);
  EXPECT_DOUBLE_EQ(tel.gauge("g.value"), 7.0);
  EXPECT_DOUBLE_EQ(tel.counter("absent"), 0.0);
  EXPECT_DOUBLE_EQ(tel.gauge("absent"), 0.0);
}

TEST_F(ObsTest, HistogramPercentiles) {
  auto& tel = Telemetry::instance();
  for (int i = 100; i >= 1; --i)  // insertion order must not matter
    tel.hist_record("h", static_cast<double>(i));
  const HistogramSummary s = tel.hist_summary("h");
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  // Nearest-rank percentiles on 1..100.
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);

  // Single-sample histogram: every statistic collapses to the sample.
  tel.hist_record("one", 4.25);
  const HistogramSummary o = tel.hist_summary("one");
  EXPECT_EQ(o.count, 1u);
  EXPECT_DOUBLE_EQ(o.p50, 4.25);
  EXPECT_DOUBLE_EQ(o.p99, 4.25);

  EXPECT_EQ(tel.hist_summary("absent").count, 0u);
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  auto& tel = Telemetry::instance();
  tel.enable(false);
  {
    Span span("invisible");
    span.arg("k", 1.0);
    EXPECT_DOUBLE_EQ(span.elapsed_ms(), 0.0);
  }
  tel.counter_add("invisible.counter");
  tel.gauge_set("invisible.gauge", 1.0);
  tel.hist_record("invisible.hist", 1.0);
  EXPECT_EQ(tel.span_count(), 0u);
  EXPECT_DOUBLE_EQ(tel.counter("invisible.counter"), 0.0);
  EXPECT_EQ(tel.hist_summary("invisible.hist").count, 0u);
  // The exports are valid JSON even when empty.
  JsonValue trace, metrics;
  EXPECT_TRUE(JsonParser(tel.chrome_trace_json()).parse(&trace));
  EXPECT_TRUE(JsonParser(tel.metrics_json()).parse(&metrics));
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  EXPECT_TRUE(trace.find("traceEvents")->array.empty());
}

TEST_F(ObsTest, ConcurrentEmissionFromManyThreads) {
  auto& tel = Telemetry::instance();
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tel, t] {
      for (int i = 0; i < kIters; ++i) {
        Span span("worker");
        span.arg("thread", t);
        tel.counter_add("mt.count");
        tel.hist_record("mt.hist", static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tel.span_count(), static_cast<size_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(tel.counter("mt.count"), kThreads * kIters);
  EXPECT_EQ(tel.hist_summary("mt.hist").count,
            static_cast<size_t>(kThreads * kIters));
  // Each thread got its own stable tid.
  std::map<uint32_t, int> by_tid;
  for (const auto& ev : tel.spans()) by_tid[ev.tid]++;
  EXPECT_EQ(by_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : by_tid) EXPECT_EQ(count, kIters);
}

TEST_F(ObsTest, ChromeTraceExportParsesBack) {
  auto& tel = Telemetry::instance();
  {
    Span span("outer \"quoted\"\nname");  // exercises escaping
    span.arg("newton_iters", 12.0);
    Span inner("inner");
  }
  JsonValue root;
  ASSERT_TRUE(JsonParser(tel.chrome_trace_json()).parse(&root));
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), 2u);
  for (const auto& ev : events->array) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ph"), nullptr);
    EXPECT_EQ(ev.find("ph")->str, "X");
    ASSERT_NE(ev.find("ts"), nullptr);
    EXPECT_EQ(ev.find("ts")->kind, JsonValue::Kind::kNumber);
    ASSERT_NE(ev.find("dur"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
  }
  // The quoted name round-trips through the escaper.
  EXPECT_EQ(events->array[1].find("name")->str, "outer \"quoted\"\nname");
  const JsonValue* args = events->array[1].find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->find("newton_iters"), nullptr);
  EXPECT_DOUBLE_EQ(args->find("newton_iters")->number, 12.0);
}

TEST_F(ObsTest, MetricsExportParsesBack) {
  auto& tel = Telemetry::instance();
  tel.counter_add("gp.solve.calls", 3.0);
  tel.gauge_set("timing.prune.reduction", 267.5);
  for (int i = 1; i <= 10; ++i)
    tel.hist_record("gp.solve.newton_iters", 10.0 * i);
  JsonValue root;
  ASSERT_TRUE(JsonParser(tel.metrics_json()).parse(&root));
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("gp.solve.calls"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("gp.solve.calls")->number, 3.0);
  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("timing.prune.reduction")->number, 267.5);
  const JsonValue* hists = root.find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->find("gp.solve.newton_iters");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 10.0);
  EXPECT_DOUBLE_EQ(h->find("min")->number, 10.0);
  EXPECT_DOUBLE_EQ(h->find("max")->number, 100.0);
  EXPECT_DOUBLE_EQ(h->find("p50")->number, 50.0);
}

TEST_F(ObsTest, HistogramBucketsRoundTripThroughMetricsJson) {
  auto& tel = Telemetry::instance();
  for (int i = 0; i < 120; ++i)
    tel.hist_record("h.buckets", static_cast<double>(i % 60));
  const HistogramSummary direct = tel.hist_summary("h.buckets");
  ASSERT_EQ(direct.bucket_counts.size(), HistogramSummary::kHistogramBuckets);
  ASSERT_EQ(direct.bucket_bounds.size(), direct.bucket_counts.size() + 1);
  EXPECT_DOUBLE_EQ(direct.bucket_bounds.front(), direct.min);
  EXPECT_DOUBLE_EQ(direct.bucket_bounds.back(), direct.max);

  JsonValue root;
  ASSERT_TRUE(JsonParser(tel.metrics_json()).parse(&root));
  const JsonValue* h = root.find("histograms")->find("h.buckets");
  ASSERT_NE(h, nullptr);
  const JsonValue* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  const auto& bounds = buckets->find("bounds")->array;
  const auto& counts = buckets->find("counts")->array;
  ASSERT_EQ(bounds.size(), direct.bucket_bounds.size());
  ASSERT_EQ(counts.size(), direct.bucket_counts.size());
  size_t total = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    // The exporter prints %.10g; bounds round-trip to 10 significant
    // digits, counts are small integers and round-trip exactly.
    EXPECT_NEAR(bounds[b].number, direct.bucket_bounds[b],
                1e-8 * std::max(1.0, std::fabs(direct.bucket_bounds[b])));
    EXPECT_DOUBLE_EQ(counts[b].number,
                     static_cast<double>(direct.bucket_counts[b]));
    total += direct.bucket_counts[b];
  }
  EXPECT_EQ(total, direct.count);

  // summarize_samples uses the same math as the registry exporter, so an
  // ad-hoc sample set (e.g. scope's slack histogram) round-trips
  // identically.
  std::vector<double> samples;
  for (int i = 0; i < 120; ++i) samples.push_back(static_cast<double>(i % 60));
  const HistogramSummary adhoc = summarize_samples(samples);
  EXPECT_EQ(adhoc.bucket_counts, direct.bucket_counts);
  EXPECT_EQ(adhoc.bucket_bounds, direct.bucket_bounds);
}

TEST_F(ObsTest, DegenerateHistogramCollapsesToOneBucket) {
  auto& tel = Telemetry::instance();
  for (int i = 0; i < 5; ++i) tel.hist_record("h.flat", 4.25);
  const HistogramSummary s = tel.hist_summary("h.flat");
  ASSERT_EQ(s.bucket_counts.size(), 1u);
  EXPECT_EQ(s.bucket_counts[0], 5u);
  ASSERT_EQ(s.bucket_bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(s.bucket_bounds[0], 4.25);
  EXPECT_DOUBLE_EQ(s.bucket_bounds[1], 4.25);
  // Empty histogram: no buckets at all.
  EXPECT_TRUE(summarize_samples({}).bucket_counts.empty());
}

TEST_F(ObsTest, NonFiniteValuesExportAsValidJson) {
  auto& tel = Telemetry::instance();
  tel.gauge_set("bad", std::nan(""));
  tel.hist_record("badh", std::numeric_limits<double>::infinity());
  JsonValue root;
  EXPECT_TRUE(JsonParser(tel.metrics_json()).parse(&root));
}

TEST_F(ObsTest, ResetClearsEverything) {
  auto& tel = Telemetry::instance();
  { Span span("s"); }
  tel.counter_add("c");
  tel.reset();
  EXPECT_EQ(tel.span_count(), 0u);
  EXPECT_DOUBLE_EQ(tel.counter("c"), 0.0);
  EXPECT_TRUE(tel.enabled());  // reset keeps the flag
}

// The span buffer is a window: past kSpanWindow spans it keeps the newest
// ones, in completion order, and exports how many it dropped.
TEST_F(ObsTest, SpanBufferKeepsTheNewestWindow) {
  auto& tel = Telemetry::instance();
  constexpr size_t kExtra = 7;
  for (size_t i = 0; i < kSpanWindow + kExtra; ++i) {
    Span span("windowed");
    span.arg("i", static_cast<double>(i));
  }
  EXPECT_EQ(tel.span_count(), kSpanWindow);
  const std::vector<SpanEvent> spans = tel.spans();
  ASSERT_EQ(spans.size(), kSpanWindow);
  for (size_t j = 0; j < spans.size(); ++j) {
    ASSERT_EQ(spans[j].args.size(), 1u);
    ASSERT_DOUBLE_EQ(spans[j].args[0].second, static_cast<double>(kExtra + j))
        << "span " << j << " of the window";
  }
  EXPECT_DOUBLE_EQ(tel.counter("obs.spans_dropped"), kExtra);

  JsonValue trace;
  ASSERT_TRUE(JsonParser(tel.chrome_trace_json()).parse(&trace));
  EXPECT_EQ(trace.find("traceEvents")->array.size(), kSpanWindow);
  JsonValue metrics;
  ASSERT_TRUE(JsonParser(tel.metrics_json()).parse(&metrics));
  const JsonValue* dropped =
      metrics.find("counters")->find("obs.spans_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->number, kExtra);
}

TEST_F(ObsTest, NoDroppedCounterWhileTheWindowHoldsEverySpan) {
  auto& tel = Telemetry::instance();
  { Span span("one"); }
  JsonValue metrics;
  ASSERT_TRUE(JsonParser(tel.metrics_json()).parse(&metrics));
  EXPECT_EQ(metrics.find("counters")->find("obs.spans_dropped"), nullptr);
}

TEST_F(ObsTest, ScopedTraceIdNestsAndRestores) {
  EXPECT_EQ(current_trace_id(), 0u);
  {
    ScopedTraceId outer(0x111);
    EXPECT_EQ(current_trace_id(), 0x111u);
    {
      ScopedTraceId inner(0x222);
      EXPECT_EQ(current_trace_id(), 0x222u);
    }
    EXPECT_EQ(current_trace_id(), 0x111u);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST_F(ObsTest, SpansInheritTheActiveTraceId) {
  {
    Span before("before");  // no trace context
    ScopedTraceId scope(0xABC);
    Span tagged("tagged");
    { Span nested("nested"); }
  }
  const auto spans = Telemetry::instance().spans();
  ASSERT_EQ(spans.size(), 3u);
  std::map<std::string, uint64_t> by_name;
  for (const auto& ev : spans) by_name[ev.name] = ev.trace_id;
  EXPECT_EQ(by_name["before"], 0u);
  EXPECT_EQ(by_name["tagged"], 0xABCu);
  EXPECT_EQ(by_name["nested"], 0xABCu);

  // The trace export carries the id as an integer arg; untagged spans
  // omit it (zero is "no trace").
  JsonValue root;
  ASSERT_TRUE(JsonParser(Telemetry::instance().chrome_trace_json())
                  .parse(&root));
  for (const auto& ev : root.find("traceEvents")->array) {
    const JsonValue* args = ev.find("args");
    const JsonValue* tid = args != nullptr ? args->find("trace_id") : nullptr;
    if (ev.find("name")->str == "before") {
      EXPECT_EQ(tid, nullptr);
    } else {
      ASSERT_NE(tid, nullptr) << ev.find("name")->str;
      EXPECT_DOUBLE_EQ(tid->number, static_cast<double>(0xABC));
    }
  }
}

TEST_F(ObsTest, TraceIdSurvivesDisabledTelemetry) {
  // The propagation context is orthogonal to the recording flag: a
  // disabled client must still stamp trace ids into its request frames.
  Telemetry::instance().enable(false);
  ScopedTraceId scope(0x42);
  EXPECT_EQ(current_trace_id(), 0x42u);
}

TEST_F(ObsTest, ProcessLabelEmitsMetadataEvent) {
  auto& tel = Telemetry::instance();
  tel.set_process_label("test_proc");
  { Span span("s"); }
  JsonValue root;
  ASSERT_TRUE(JsonParser(tel.chrome_trace_json()).parse(&root));
  const auto& events = root.find("traceEvents")->array;
  ASSERT_GE(events.size(), 2u);
  const JsonValue& meta = events.front();
  EXPECT_EQ(meta.find("ph")->str, "M");
  EXPECT_EQ(meta.find("name")->str, "process_name");
  ASSERT_NE(meta.find("args"), nullptr);
  EXPECT_EQ(meta.find("args")->find("name")->str, "test_proc");
  tel.set_process_label("");
}

TEST(BoundedHistogramTest, WindowsSamplesButCountsAll) {
  Histogram hist;
  const size_t n = kHistogramWindow + 6;
  for (size_t i = 1; i <= n; ++i) hist.record(static_cast<double>(i));
  const HistogramSummary s = hist.summary();
  // Count, sum and mean cover every sample; only the newest window
  // (7..n) remains behind min, max and the buckets.
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(s.window, kHistogramWindow);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(n * (n + 1) / 2));
  EXPECT_DOUBLE_EQ(s.mean, static_cast<double>(n + 1) / 2.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(n));
}

TEST(BoundedHistogramTest, EmptyAndPartialWindows) {
  Histogram hist;
  EXPECT_EQ(hist.summary().count, 0u);
  EXPECT_EQ(hist.summary().window, 0u);
  hist.record(2.5);
  const HistogramSummary s = hist.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.window, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
}

TEST(BoundedHistogramTest, ConcurrentRecordsStayBounded) {
  Histogram hist;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < 1000; ++i) hist.record(static_cast<double>(i));
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSummary s = hist.summary();
  EXPECT_EQ(s.count, 4000u);
  EXPECT_DOUBLE_EQ(s.sum, 4.0 * 999.0 * 1000.0 / 2.0);
  EXPECT_EQ(s.window, kHistogramWindow);
}

// The registry's histograms are bounded too: past the window they keep an
// exact count and sum (the ledger's `.sum` work counts) while the
// percentiles and buckets describe only the newest samples.
TEST_F(ObsTest, RegistryHistogramKeepsWindowButCountsAll) {
  auto& tel = Telemetry::instance();
  const size_t n = 3 * kHistogramWindow + 5;
  for (size_t i = 0; i < n; ++i)
    tel.hist_record("h.long", static_cast<double>(i % 7));
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<double>(i % 7);
  const HistogramSummary s = tel.hist_summary("h.long");
  EXPECT_EQ(s.count, n);
  EXPECT_DOUBLE_EQ(s.sum, sum);
  EXPECT_EQ(s.window, kHistogramWindow);
  size_t held = 0;
  for (const size_t c : s.bucket_counts) held += c;
  EXPECT_EQ(held, kHistogramWindow);

  JsonValue root;
  ASSERT_TRUE(JsonParser(tel.metrics_json()).parse(&root));
  const JsonValue* h = root.find("histograms")->find("h.long");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, static_cast<double>(n));
  EXPECT_DOUBLE_EQ(h->find("sum")->number, sum);
}

// End-to-end: one real sizing run emits the pipeline's span tree and the
// headline metrics the CLI exports (prune reduction, per-solve Newton
// iterations, respec mismatch, rung taken).
TEST_F(ObsTest, SizingRunEmitsPipelineTelemetry) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 2;
  spec.params["bits"] = 4;
  const auto* entry =
      macros::builtin_database().find("mux", "domino_unsplit");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  core::Sizer sizer(tech::default_tech(), models::default_library());
  core::SizerOptions opt;
  opt.delay_spec_ps = 200.0;
  const auto result = sizer.size(nl, opt);
  ASSERT_TRUE(result.ok);

  auto& tel = Telemetry::instance();
  EXPECT_GE(tel.counter("gp.solve.calls"), 1.0);
  EXPECT_GE(tel.counter("sizer.size.calls"), 1.0);
  EXPECT_GE(tel.counter("sizer.rung.gp"), 1.0);
  EXPECT_GE(tel.hist_summary("gp.solve.newton_iters").count, 1u);
  EXPECT_GE(tel.hist_summary("sizer.respec.mismatch").count, 1u);
  EXPECT_GT(tel.gauge("timing.prune.reduction"), 1.0);

  // The span tree contains the full prune -> constraint-gen -> solve ->
  // verify chain, each nested inside a sizer.respec_iter.
  std::map<std::string, int> names;
  for (const auto& ev : tel.spans()) names[ev.name]++;
  EXPECT_GE(names["sizer.size"], 1);
  EXPECT_GE(names["sizer.respec_iter"], 1);
  EXPECT_GE(names["sizer.constraints"], 1);
  EXPECT_GE(names["timing.extract"], 1);
  EXPECT_GE(names["gp.solve"], 1);
  EXPECT_GE(names["sizer.verify"], 1);
}

}  // namespace
}  // namespace smart::obs
