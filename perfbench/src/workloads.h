#pragma once

/// \file workloads.h
/// The three SMART-Bench workloads. main() calls setup() once, run() once
/// for the timed window and its checks, and replay() in the traced run
/// only. setup_s is the median of several set-ups: this one plus set-ups
/// of fresh instances spread over the run through run()'s between-passes
/// hook, so they sample the machine at different times.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run record, the span dump and the Unix socket.
  std::string work_dir = ".";
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// All one-time work before the first timed request.
  virtual void setup() = 0;
  /// Closed-loop timed window of whole passes over the plan (see
  /// more_passes), then checks.
  /// `between_passes` runs after each pass, outside the timed window.
  virtual void run(double seconds, WorkloadResult& out,
                   const std::function<void()>& between_passes) = 0;
  /// Traced run only: per-request layer replays and per-layer metrics.
  virtual void replay(WorkloadResult& out) = 0;
};

/// Whether to run another pass: the window ends at the whole number of
/// passes whose timed wall comes closest to `seconds` (at least one).
inline bool more_passes(double timed_ms, int passes, double seconds) {
  return timed_ms + 0.5 * timed_ms / passes < seconds * 1000.0;
}

std::unique_ptr<Workload> make_adder64_sweep(const RunOptions& opt,
                                             Tracer& tracer);
std::unique_ptr<Workload> make_macro_iso_mix(const RunOptions& opt,
                                             Tracer& tracer);
std::unique_ptr<Workload> make_serve_replay(const RunOptions& opt,
                                            Tracer& tracer);

/// Runs a small fixed serving trace (one worker, one client) and writes
/// the serve.* metrics, so traced runs of workloads that do not serve
/// still report the serving layer.
void serve_probe(const RunOptions& opt, Tracer& tracer, WorkloadResult& out);

}  // namespace perfbench
