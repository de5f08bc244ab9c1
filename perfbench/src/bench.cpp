#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last (parent links).
thread_local std::vector<int64_t> open_spans;

uint32_t thread_tag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

}  // namespace

int64_t Tracer::begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  SpanRecord rec;
  rec.name = name;
  rec.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  rec.parent = open_spans.empty() ? -1 : open_spans.back();
  rec.request = request;
  rec.tid = thread_tag();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Child spans inherit the request id of their parent.
    if (request < 0 && rec.parent >= 0)
      rec.request = spans_[static_cast<size_t>(rec.parent)].request;
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::end(int64_t index) {
  if (index < 0) return;
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_us = now;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name && s.end_us >= s.start_us)
      out.push_back((s.end_us - s.start_us) / 1000.0);
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const auto all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid, s.start_us,
                 std::max(0.0, s.end_us - s.start_us), i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_latency(const std::vector<double>& v) {
  static const std::pair<const char*, double> kLevels[] = {
      {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}};
  Tail t;
  for (const auto& [name, q] : kLevels) {
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t beyond = v.size() - static_cast<size_t>(rank);
    if (!v.empty() && beyond >= 10) {
      t.name = name;
      t.value = percentile(v, q);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

}  // namespace perfbench
