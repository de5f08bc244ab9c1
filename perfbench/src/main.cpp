// smart_bench: one SMART-Bench run of one workload.
//
//   smart_bench --workload <adder64_sweep|macro_iso_mix|serve_replay>
//               --seed N --seconds S --trace 0|1 [--work-dir DIR]
//               [--git-sha SHA] [--source-digest HEX] [--build-type T]
//
// Prints a readable report, writes a run record (DIR/runs/) and, traced,
// a Chrome trace of its spans (DIR/traces/), and ends stdout with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. Untraced, the
// metrics are the end-to-end ones; traced, the per-layer ones.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "layers.h"
#include "par/par.h"
#include "util/strfmt.h"
#include "workloads.h"

using namespace perfbench;
using smart::util::strfmt;

namespace {

/// Set-up repetitions per run; setup_s is their median. Spreading them
/// over the run matters: on a shared machine, speed drifts by a third over
/// seconds, and back-to-back set-ups all see the same moment.
constexpr size_t kSetupReps = 21;

/// The par pool size of each workload, fixed so every run uses the same
/// value whatever SMART_THREADS or the hardware says. Serving uses one:
/// its 2 workers plus 2 client threads already fill 4 CPUs.
int pool_threads(const std::string& workload) {
  return workload == "serve_replay" ? 1 : 4;
}

struct Args {
  RunOptions run;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string build_type = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      a->run.workload = val;
    } else if (key == "--seed") {
      a->run.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->run.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->run.trace = val == "1";
    } else if (key == "--work-dir") {
      a->run.work_dir = val;
    } else if (key == "--git-sha") {
      a->git_sha = val;
    } else if (key == "--source-digest") {
      a->source_digest = val;
    } else if (key == "--build-type") {
      a->build_type = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->run.workload.empty() && a->run.seconds >= 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value;
  std::string unit;
  size_t samples;  ///< 0 for values that are not sampled timings
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: smart_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const RunOptions& opt = args.run;
  try {
    smart::par::set_thread_count(pool_threads(opt.workload));
    Tracer tracer(opt.trace);
    auto make = [&] {
      if (opt.workload == "adder64_sweep")
        return make_adder64_sweep(opt, tracer);
      if (opt.workload == "macro_iso_mix")
        return make_macro_iso_mix(opt, tracer);
      if (opt.workload == "serve_replay")
        return make_serve_replay(opt, tracer);
      throw std::runtime_error("unknown workload " + opt.workload);
    };
    std::vector<double> setup_ms;
    auto timed_setup = [&](Workload& w) {
      const auto t0 = Clock::now();
      {
        Span span(tracer, "setup");
        w.setup();
      }
      setup_ms.push_back(ms_between(t0, Clock::now()));
    };
    // Extra set-ups of fresh instances, spread over the timed window in
    // proportion to the time passed, the rest after it.
    auto more_setups = [&](size_t upto) {
      while (setup_ms.size() < upto) timed_setup(*make());
    };
    std::unique_ptr<Workload> w = make();
    timed_setup(*w);
    WorkloadResult res;
    const auto start = Clock::now();
    w->run(opt.seconds, res, [&] {
      const double frac =
          ms_between(start, Clock::now()) / (1000.0 * opt.seconds + 1e-9);
      more_setups(std::min<size_t>(
          kSetupReps, 1 + static_cast<size_t>(frac * (kSetupReps - 1))));
    });
    more_setups(kSetupReps);
    if (opt.trace) w->replay(res);
    w.reset();

    const double n_attempted = static_cast<double>(res.attempted);
    std::map<std::string, Metric> e2e;
    e2e["setup_s"] = {median(setup_ms) / 1000.0, "s", setup_ms.size()};
    e2e["sizings_per_s"] = {static_cast<double>(res.sizings) /
                                res.timed_wall_s,
                            "1/s", 0};
    e2e["latency_p50_ms"] = {median(res.latencies_ms), "ms",
                             res.latencies_ms.size()};
    e2e["ok_frac"] = {n_attempted > 0 ? res.ok / n_attempted : 0.0, "ratio",
                      0};
    e2e["total_width_um"] = {res.total_width_um, "um", 0};
    e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", 0};
    // Only where defined: adder64_sweep has too few requests per run for a
    // tail, and its curve points carry no sizing to take clock width from.
    const Tail tail = tail_latency(res.latencies_ms);
    if (!tail.name.empty())
      e2e["latency_tail_ms"] = {tail.value, "ms", res.latencies_ms.size()};
    if (res.clock_width_um >= 0.0)
      e2e["clock_width_um"] = {res.clock_width_um, "um", 0};

    std::map<std::string, Metric> layer;
    if (opt.trace) {
      for (const auto& [name, v] : res.layer) {
        const auto s = res.samples.find(name);
        layer[name] = {v.first, v.second,
                       s == res.samples.end() ? 0 : s->second};
      }
      // Traced end-to-end numbers, to set against the untraced run's: the
      // difference is the tracing overhead.
      layer["trace.sizings_per_s"] = e2e["sizings_per_s"];
      layer["trace.latency_p50_ms"] = e2e["latency_p50_ms"];
      layer["trace.spans"] = {static_cast<double>(tracer.spans().size()),
                              "count", 0};
    }
    const int64_t failed = res.attempted - res.ok;
    const bool correct = failed == 0 && res.failures.empty() &&
                         res.attempted > 0;

    // Readable report.
    std::printf("SMART-Bench %s seed %llu, %s, %d pass(es), %.3f s timed\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "untraced", res.passes,
                res.timed_wall_s);
    std::printf("  pool threads %d, server workers %d, clients %d\n",
                res.pool_threads, res.server_workers, res.clients);
    auto print = [](const std::string& name, const Metric& m) {
      std::printf("  %-28s %14.6g %-6s%s\n", name.c_str(), m.value,
                  m.unit.c_str(),
                  m.samples > 0 ? strfmt(" (n=%zu)", m.samples).c_str() : "");
    };
    for (const auto& [name, m] : e2e) print(name, m);
    if (!tail.name.empty())
      std::printf("  latency_tail_ms is %s, %zu samples beyond it\n",
                  tail.name.c_str(), tail.beyond);
    for (const auto& [name, m] : layer) print(name, m);
    for (const auto& f : res.failures) std::printf("  FAILED %s\n", f.c_str());

    // Run record and span dump.
    namespace fs = std::filesystem;
    const std::string stem = strfmt("%s-s%llu-t%d", opt.workload.c_str(),
                                    static_cast<unsigned long long>(opt.seed),
                                    opt.trace ? 1 : 0);
    fs::create_directories(opt.work_dir + "/runs");
    const std::string record_path = opt.work_dir + "/runs/" + stem + ".json";
    if (FILE* f = std::fopen(record_path.c_str(), "w")) {
      auto metrics_json = [](const std::map<std::string, Metric>& ms) {
        std::string out = "{";
        for (const auto& [name, m] : ms)
          out += strfmt("%s%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%zu}",
                        out.size() > 1 ? "," : "", json_str(name).c_str(),
                        m.value, json_str(m.unit).c_str(), m.samples);
        return out + "}";
      };
      std::string det = "{", plan = "[", fails = "[", lat = "[", sms = "[";
      for (const double v : setup_ms)
        sms += strfmt("%s%.4f", sms.size() > 1 ? "," : "", v);
      for (const double v : res.latencies_ms)
        lat += strfmt("%s%.4f", lat.size() > 1 ? "," : "", v);
      for (const auto& [k, v] : res.deterministic)
        det += strfmt("%s%s:%.17g", det.size() > 1 ? "," : "",
                      json_str(k).c_str(), v);
      auto append = [](std::string& list, const std::string& item) {
        if (list.size() > 1) list += ",";
        list += json_str(item);
      };
      for (const auto& p : res.plan) append(plan, p);
      for (const auto& x : res.failures) append(fails, x);
      std::fprintf(
          f,
          "{\"workload\":%s,\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
          "\"git_sha\":%s,\"source_digest\":%s,\"build_type\":%s,"
          "\"nproc\":%ld,\"pool_threads\":%d,\"server_workers\":%d,"
          "\"clients\":%d,\"setup_reps\":%zu,\"passes\":%d,"
          "\"timed_wall_s\":%.6f,\"attempted\":%lld,\"ok\":%lld,"
          "\"correct\":%s,\"latency_tail\":{\"percentile\":%s,"
          "\"beyond\":%zu},\"end_to_end\":%s,\"per_layer\":%s,"
          "\"deterministic\":%s},\"plan\":%s],\"failures\":%s],"
          "\"setup_ms\":%s],\"latencies_ms\":%s]}\n",
          json_str(opt.workload).c_str(),
          static_cast<unsigned long long>(opt.seed), opt.seconds,
          opt.trace ? 1 : 0, json_str(args.git_sha).c_str(),
          json_str(args.source_digest).c_str(),
          json_str(args.build_type).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
          res.pool_threads, res.server_workers, res.clients, setup_ms.size(),
          res.passes, res.timed_wall_s,
          static_cast<long long>(res.attempted),
          static_cast<long long>(res.ok), correct ? "true" : "false",
          json_str(tail.name).c_str(), tail.beyond,
          metrics_json(e2e).c_str(),
          metrics_json(layer).c_str(), det.c_str(), plan.c_str(),
          fails.c_str(), sms.c_str(), lat.c_str());
      std::fclose(f);
    }
    if (opt.trace) {
      fs::create_directories(opt.work_dir + "/traces");
      tracer.write_chrome(opt.work_dir + "/traces/" + stem + ".json");
    }

    // The result line.
    const auto& shown = opt.trace ? layer : e2e;
    std::string metrics = "{";
    for (const auto& [name, m] : shown)
      metrics += strfmt("%s%s:{\"value\":%.17g,\"unit\":%s}",
                        metrics.size() > 1 ? ", " : "", json_str(name).c_str(),
                        m.value, json_str(m.unit).c_str());
    metrics += "}";
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(res.attempted),
                static_cast<long long>(failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smart_bench: %s\n", e.what());
    return 1;
  }
}
