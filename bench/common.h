#pragma once

/// \file common.h
/// Shared scaffolding for the experiment harnesses in bench/. Each binary
/// regenerates one table or figure of the paper (see DESIGN.md §4) and
/// prints the same rows/series the paper reports, normalized the same way
/// (original design = 1.0). Absolute units are synthetic-technology ps/um;
/// the comparisons, ratios and crossovers are the reproduction targets.

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace smart::bench {

inline const tech::Tech& tech() { return tech::default_tech(); }
inline const models::ModelLibrary& library() {
  return models::default_library();
}
inline const core::MacroDatabase& database() {
  return macros::builtin_database();
}

/// Generates a macro by type/topology or aborts with a clear message.
inline netlist::Netlist generate(const std::string& type,
                                 const std::string& topo,
                                 const core::MacroSpec& spec) {
  const auto* entry = database().find(type, topo);
  SMART_CHECK(entry != nullptr, "unknown topology " + type + "/" + topo);
  return entry->generate(spec);
}

/// Runs the §6.1 iso-performance protocol on one macro.
inline core::IsoDelayComparison iso(const netlist::Netlist& nl,
                                    const core::IsoDelayOptions& opt = {}) {
  return core::run_iso_delay(nl, tech(), library(), opt);
}

inline std::string pct(double frac) {
  return util::strfmt("%.0f%%", 100.0 * frac);
}

inline std::string num(double v, int decimals = 2) {
  return util::strfmt("%.*f", decimals, v);
}

/// Prints a paper-reference line under a reproduced table.
inline void paper_note(const std::string& note) {
  std::printf("paper reference: %s\n\n", note.c_str());
}

/// Opt-in metrics export for the table/figure harnesses: every paper bench
/// constructs one at the top of main. When the harness was invoked with `--metrics-out FILE` (or
/// `--metrics-out=FILE`), telemetry is enabled for the run and the whole
/// registry — spans recorded by the sizing pipeline become counters and
/// histograms — is written to FILE on destruction, the same flat metrics
/// JSON perf_microbench emits (BENCH_<name>.json convention, consumed by
/// tools/bench_diff). Without the flag the run stays un-instrumented.
class MetricsExport {
 public:
  MetricsExport(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--metrics-out=", 0) == 0) {
        path_ = arg.substr(14);
      } else if (arg == "--metrics-out" && i + 1 < argc) {
        path_ = argv[++i];
      }
    }
    if (!path_.empty()) {
      auto& tel = obs::Telemetry::instance();
      tel.reset();
      tel.enable(true);
    }
  }
  ~MetricsExport() {
    if (path_.empty()) return;
    auto& tel = obs::Telemetry::instance();
    if (!tel.write_metrics(path_))
      std::fprintf(stderr, "cannot write metrics to %s\n", path_.c_str());
    tel.enable(false);
  }

  MetricsExport(const MetricsExport&) = delete;
  MetricsExport& operator=(const MetricsExport&) = delete;

 private:
  std::string path_;
};

}  // namespace smart::bench
