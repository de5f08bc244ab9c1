// smartd — the SMART sizing daemon. Serves size/advise/lint/report
// requests over the framed binary protocol (see src/serve/protocol.h and
// DESIGN.md §11) with a fixed worker pool, bounded-queue admission
// control, per-request deadline propagation, and a warm-start result
// cache. SIGTERM/SIGINT drain gracefully: in-flight requests finish, new
// ones are rejected, then the obs exporters are flushed.
//
//   smartd [--port N] [--host ADDR] [--unix PATH] [--workers N]
//          [--max-queue N] [--max-connections N] [--cache-size N]
//          [--no-cache] [--idle-timeout-ms MS] [--write-timeout-ms MS]
//          [--metrics-out FILE] [--trace-out FILE] [--metrics-flush-ms MS]
//          [--access-log FILE] [--access-log-size N]
//          [--slow-spool DIR] [--slow-threshold-ms MS]
//          [--profile-dir DIR] [--profile-hz HZ]
//          [--log-level LVL] [--threads N]
//
// --threads N sets the worker pool that fans out an advise request's
// candidate sweep, and is the worker count when --workers is not given
// (default SMART_THREADS env or hardware concurrency). Each sizing runs on
// one thread; results are identical at any thread count.
//
// Prints "smartd listening on <endpoint>" to stdout once ready (smoke
// scripts and supervisors scrape it, so it is flushed immediately);
// --port 0 (the default) binds an ephemeral port, reported in that line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "par/par.h"
#include "serve/server.h"
#include "tech/tech.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/strfmt.h"

using namespace smart;

namespace {

struct Flags {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) > 0; }
  std::string str(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
};

void usage() {
  std::fprintf(
      stderr,
      "usage: smartd [--port N] [--host ADDR] [--unix PATH] [--workers N]\n"
      "              [--max-queue N] [--max-connections N] [--cache-size N]"
      " [--no-cache]\n"
      "              [--idle-timeout-ms MS] [--write-timeout-ms MS]\n"
      "              [--metrics-out FILE] [--trace-out FILE]"
      " [--metrics-flush-ms MS]\n"
      "              [--access-log FILE] [--access-log-size N]\n"
      "              [--slow-spool DIR] [--slow-threshold-ms MS]\n"
      "              [--profile-dir DIR] [--profile-hz HZ]\n"
      "              [--log-level LVL] [--threads N]\n"
      "              [--arm-fault frame-corrupt|io-fail|worker-stall|"
      "cache-poison]\n");
}

const char* const kKnownFlags[] = {
    "port",           "host",           "unix",
    "workers",        "max-queue",      "max-connections",
    "cache-size",     "no-cache",       "idle-timeout-ms",
    "write-timeout-ms", "metrics-out",  "trace-out",
    "metrics-flush-ms", "access-log",   "access-log-size",
    "slow-spool",     "slow-threshold-ms",
    "profile-dir",    "profile-hz",
    "log-level",      "threads",        "arm-fault"};

/// Chaos mode for smoke runs: arms one serve-layer fault site in situ so an
/// external harness (CI) can drive the daemon through injected failures.
/// Skips the first two matching hits, fires the next eight, then heals —
/// the run must show degraded-but-typed service and a clean drain.
bool arm_fault(const std::string& name) {
  using util::FaultClass;
  struct ChaosEntry {
    const char* name;
    FaultClass fault;
    const char* site;
  };
  static const ChaosEntry kChaos[] = {
      {"frame-corrupt", FaultClass::kServeFrameCorrupt, "serve.frame"},
      {"io-fail", FaultClass::kServeIoFail, "serve."},
      {"worker-stall", FaultClass::kServeWorkerStall, "serve.worker"},
      {"cache-poison", FaultClass::kServeCachePoison, "serve.cache.lookup"},
  };
  for (const auto& e : kChaos) {
    if (name == e.name) {
      util::FaultInjector::instance().arm(e.fault, e.site, /*magnitude=*/10.0,
                                          /*skip_hits=*/2, /*max_fires=*/8);
      util::log_warn(util::strfmt("smartd: chaos mode — %s armed at %s",
                                  e.name, e.site));
      return true;
    }
  }
  std::fprintf(stderr,
               "smartd: unknown --arm-fault '%s' (want frame-corrupt, "
               "io-fail, worker-stall, or cache-poison)\n",
               name.c_str());
  return false;
}

bool parse_flags(int argc, char** argv, Flags* out) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      std::fprintf(stderr, "smartd: unexpected argument '%s'\n",
                   token.c_str());
      return false;
    }
    std::string key = token.substr(2);
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    bool known = false;
    for (const char* k : kKnownFlags) known = known || key == k;
    if (!known) {
      std::fprintf(stderr, "smartd: unknown flag '--%s'\n", key.c_str());
      return false;
    }
    out->values[key] = value;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, &flags)) {
    usage();
    return 2;
  }
  if (flags.has("log-level")) {
    util::LogLevel level;
    if (!util::parse_log_level(flags.str("log-level"), &level)) {
      std::fprintf(stderr, "smartd: unknown log level '%s'\n",
                   flags.str("log-level").c_str());
      return 2;
    }
    util::set_log_level(level);
  }
  if (flags.has("arm-fault") && !arm_fault(flags.str("arm-fault"))) return 2;
  if (flags.has("threads")) {
    int n = 0;
    if (!par::parse_thread_spec(flags.str("threads").c_str(), &n)) {
      std::fprintf(stderr,
                   "smartd: invalid --threads '%s' (want an integer in "
                   "[1, %d])\n",
                   flags.str("threads").c_str(), par::kMaxThreads);
      return 2;
    }
    par::set_thread_count(n);
  }

  serve::ServerOptions opt;
  opt.unix_path = flags.str("unix");
  opt.host = flags.str("host", "127.0.0.1");
  opt.port = static_cast<int>(flags.num("port", 0));
  opt.workers = static_cast<int>(flags.num("workers", 0));
  opt.max_queue = static_cast<size_t>(flags.num("max-queue", 64));
  opt.max_connections =
      static_cast<size_t>(flags.num("max-connections", 128));
  opt.cache_capacity = static_cast<size_t>(flags.num("cache-size", 256));
  opt.enable_cache = !flags.has("no-cache");
  opt.idle_timeout_ms = flags.num("idle-timeout-ms", 30000.0);
  opt.write_timeout_ms = flags.num("write-timeout-ms", 5000.0);
  opt.metrics_out = flags.str("metrics-out");
  opt.trace_out = flags.str("trace-out");
  opt.metrics_flush_ms = flags.num("metrics-flush-ms", 0.0);
  opt.access_log_path = flags.str("access-log");
  opt.access_log_capacity =
      static_cast<size_t>(flags.num("access-log-size", 64));
  opt.slow_spool_dir = flags.str("slow-spool");
  opt.slow_threshold_ms = flags.num("slow-threshold-ms", -1.0);
  opt.profile_dir = flags.str("profile-dir");
  opt.profile_hz = flags.num("profile-hz", 99.0);
  if (!opt.metrics_out.empty() || !opt.trace_out.empty()) {
    obs::Telemetry::instance().enable(true);
    obs::Telemetry::instance().set_process_label("smartd");
  }

  serve::ServeContext ctx;
  ctx.db = &macros::builtin_database();
  ctx.tech = &tech::default_tech();
  ctx.lib = &models::default_library();

  serve::Server server(ctx, opt);
  if (const util::Status st = server.start(); !st.ok()) {
    std::fprintf(stderr, "smartd: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("smartd listening on %s\n", server.endpoint().c_str());
  std::fflush(stdout);
  serve::Server::install_signal_handlers(&server);
  server.wait();
  serve::Server::install_signal_handlers(nullptr);

  const serve::ServerStats stats = server.stats();
  std::printf(
      "smartd exiting: %llu requests, %llu responses, %llu shed, "
      "%llu bad frames, %llu timeouts, %llu abandoned\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.responses),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.bad_frames),
      static_cast<unsigned long long>(stats.timeouts),
      static_cast<unsigned long long>(stats.abandoned));
  return 0;
}
