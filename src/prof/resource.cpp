#include "prof/resource.h"

#include <sys/resource.h>

#include <string>

#include "obs/obs.h"

namespace smart::prof {

namespace {

double tv_ms(const struct timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

ResourceUsage snapshot_usage() {
  ResourceUsage u;
  struct rusage thread_ru;
  if (::getrusage(RUSAGE_THREAD, &thread_ru) == 0) {
    u.utime_ms = tv_ms(thread_ru.ru_utime);
    u.stime_ms = tv_ms(thread_ru.ru_stime);
    u.minflt = thread_ru.ru_minflt;
    u.majflt = thread_ru.ru_majflt;
  }
  struct rusage proc_ru;
  if (::getrusage(RUSAGE_SELF, &proc_ru) == 0)
    u.peak_rss_kb = proc_ru.ru_maxrss;
  return u;
}

ResourceScope::ResourceScope(const char* tag) : tag_(tag) {
  if (!obs::Telemetry::instance().enabled()) return;
  live_ = true;
  start_ = snapshot_usage();
}

ResourceScope::~ResourceScope() {
  if (!live_) return;
  const ResourceUsage d = delta();
  obs::Telemetry& tel = obs::Telemetry::instance();
  const std::string prefix = std::string("rusage.") + tag_;
  tel.counter_add(prefix + ".utime_ms", d.utime_ms);
  tel.counter_add(prefix + ".stime_ms", d.stime_ms);
  tel.counter_add(prefix + ".minflt", static_cast<double>(d.minflt));
  tel.counter_add(prefix + ".majflt", static_cast<double>(d.majflt));
  tel.hist_record(prefix + ".cpu_ms", d.utime_ms + d.stime_ms);
  // Peak RSS is a process high-water mark, not a delta: export the level.
  tel.gauge_set(prefix + ".peak_rss_kb", static_cast<double>(d.peak_rss_kb));
}

ResourceUsage ResourceScope::delta() const {
  if (!live_) return {};
  const ResourceUsage now = snapshot_usage();
  ResourceUsage d;
  d.utime_ms = now.utime_ms - start_.utime_ms;
  d.stime_ms = now.stime_ms - start_.stime_ms;
  d.minflt = now.minflt - start_.minflt;
  d.majflt = now.majflt - start_.majflt;
  d.peak_rss_kb = now.peak_rss_kb;  // high-water level, not a delta
  return d;
}

}  // namespace smart::prof
