#pragma once

/// \file layers.h
/// The SMART calls every workload shares: the calibrated environment, the
/// §6.1 option derivation, the outside-in correctness check, and the
/// one-iteration replay that times a sizing's layers one by one.

#include <memory>
#include <string>

#include "bench.h"
#include "core/database.h"
#include "core/sizer.h"
#include "models/arc_model.h"
#include "netlist/netlist.h"
#include "tech/tech.h"

namespace perfbench {

/// Calibrated models plus the macro database: the set-up every workload
/// starts from.
struct Env {
  const smart::tech::Tech* tech = nullptr;
  smart::models::ModelLibrary lib;
  smart::core::MacroDatabase db;
};

/// Calibrates the model library and registers the built-in macros
/// (spans "models.calibrate" and "macros.register").
std::unique_ptr<Env> make_env(Tracer& tracer);

/// Generates an unsized macro netlist (span "macros.generate"); throws on
/// an unknown topology.
smart::netlist::Netlist generate(const Env& env, const std::string& type,
                                 const std::string& topology,
                                 const smart::core::MacroSpec& spec,
                                 Tracer& tracer);

/// The SizerOptions run_iso_delay hands to Sizer::size for this netlist:
/// baseline-size and measure it (span "baseline.size"), then match its
/// delay, precharge, pin caps and slopes.
smart::core::SizerOptions iso_options(const Env& env,
                                      const smart::netlist::Netlist& nl,
                                      smart::core::CostMetric cost,
                                      Tracer& tracer);

/// Re-measures a sizing with Sizer::measure. Passes when the rung is kGp,
/// every width is finite and positive, and measured delay and precharge
/// are within kConvergeTol over their targets (`pre_target` <= 0 means
/// the delay target). On failure `why` says which test failed.
bool check_sizing(const Env& env, const smart::netlist::Netlist& nl,
                  const smart::netlist::Sizing& sizing,
                  smart::core::SizingRung rung, double delay_target,
                  double pre_target, std::string* why);

/// Work counts and status of one replayed respec iteration.
struct ReplayCounts {
  size_t paths = 0;
  double raw_edge_paths = 0.0;
  size_t constraints = 0;
  size_t distinct = 0;  ///< constraints left after dropping exact duplicates
  size_t terms = 0;
  int newton = 0;
  int attempts = 0;
  bool optimal = false;
};

/// Replays the first respec iteration of Sizer::size through the public
/// functions in the order it calls them, one span per call:
/// PathExtractor::extract, generate_problem, gp::verify_problem,
/// GpSolver::solve, sizing_from_solution and RcTimer::analyze.
ReplayCounts replay_iteration(const Env& env, const smart::netlist::Netlist& nl,
                              const smart::core::SizerOptions& opt,
                              Tracer& tracer, int64_t request);

/// Sums replays and sizer results into the per-layer metrics.
class LayerTally {
 public:
  void add(const ReplayCounts& r);
  void add_sizer(const smart::core::SizerResult& r);
  /// Writes the constraints/gp/timing/sizer/refsim/baseline/models/macros
  /// metrics; times are medians of the tracer's spans of each layer.
  void emit(const Tracer& tracer, WorkloadResult& out) const;

 private:
  size_t replays_ = 0, paths_ = 0, constraints_ = 0, distinct_ = 0,
         terms_ = 0, optimal_ = 0;
  double raw_edge_paths_ = 0.0;
  int64_t newton_ = 0, attempts_ = 0;
  size_t sizings_ = 0, gp_rung_ = 0;
  int64_t sizer_respec_ = 0, sizer_newton_ = 0;
};

/// Peak resident set of this process (MB).
double peak_rss_mb();

}  // namespace perfbench
