#pragma once

/// \file sizer.h
/// The SMART sizing engine (paper Fig 4). Fully automated loop:
///   1. generate posynomial constraints for the current delay specification,
///   2. solve the geometric program,
///   3. verify the sized netlist with the reference static timing engine,
///   4. if measured timing differs from the target, re-target the model
///      specification by the mismatch ratio and iterate until convergence.
/// "Better model accuracy leads to faster convergence" — the iteration
/// count is reported so the ablation benches can show exactly that.

#include <memory>
#include <string>

#include "core/baseline.h"
#include "core/constraints.h"
#include "gp/solver.h"
#include "refsim/rc_timer.h"
#include "util/status.h"

namespace smart::core {

/// Convergence of the re-specification loop: a sizing meets its spec when
/// the measured delay is within kConvergeTol * target of it.
inline constexpr double kConvergeTol = 0.02;

struct SizerOptions {
  /// Target delay measured by the reference timer at the macro outputs (ps).
  double delay_spec_ps = 0.0;
  /// Target precharge settle time; < 0 => same as delay_spec_ps.
  double precharge_spec_ps = -1.0;
  double slope_budget_ps = 120.0;
  bool enforce_slopes = true;
  bool otb = true;
  CostMetric cost = CostMetric::kTotalWidth;
  power::PowerOptions activity;
  timing::PruneOptions prune;
  gp::SolverOptions gp;

  /// Input pin capacitance limits (see ConstraintOptions).
  double input_cap_limit_ff = -1.0;
  std::vector<double> input_cap_limits_ff;
  /// Per-output required times (see ConstraintOptions). They shape the
  /// GP's per-port timing constraints (scaled with each respec of the
  /// delay spec); the verification step still checks only the worst
  /// output delay against delay_spec_ps.
  std::vector<double> output_required_ps;

  int max_respec_iters = 10;

  /// Legal width grid (um). > 0 snaps every free label UP to the nearest
  /// grid point after optimization (rounding up preserves timing at a tiny
  /// width cost — the practical answer to the NP-complete discrete-sizing
  /// problem the paper cites as [5]). <= 0 leaves widths continuous.
  double width_grid_um = -1.0;

  /// Degraded-mode ladder (see SizingRung). Rung 2 retries a failed GP with
  /// slope and input-cap constraints dropped; rung 3 falls back to the
  /// proportional baseline sizer (default BaselineOptions) so the caller
  /// always gets *a* sizing.
  bool allow_relaxed_retry = true;
  bool allow_baseline_fallback = true;

  /// Keep the accepted iteration's generated problem + GP solve in
  /// SizerResult::snapshot so report layers (scope) can map binding
  /// constraints back to paths: the loop's own problem, at the accepted
  /// specs; off by default.
  bool keep_solve_snapshot = false;

  /// Warm start: seed the first GP solve from this point instead of the
  /// box midpoint (GpSolver::solve_from). The vector must be a previous
  /// SizerResult::solution_x of the *same* netlist under compatible
  /// options — the variable table is a deterministic function of the
  /// netlist, so points transfer between near-identical requests (the
  /// serving layer's result cache feeds this from a solved neighbor).
  /// Ignored when the size mismatches the generated variable table or any
  /// entry is non-finite/non-positive; a bad warm start degrades to a cold
  /// solve, never to a failure.
  std::vector<double> warm_start;
};

/// Specs taken from the original design (§6.1): sizes `nl` with the
/// baseline policy, sets opt->delay_spec_ps to the reference timer's worst
/// delay, and sets opt->precharge_spec_ps to its worst precharge when the
/// design has a precharge phase (leaving it as is otherwise).
void spec_from_baseline(const netlist::Netlist& nl, const tech::Tech& tech,
                        const BaselineOptions& baseline, SizerOptions* opt);

/// Which rung of the degradation ladder produced a SizerResult.
enum class SizingRung {
  kGp = 0,       ///< the full GP sizing loop
  kGpRelaxed,    ///< GP with slope/input-cap constraints dropped (rung 2)
  kBaseline,     ///< proportional baseline fallback (rung 3)
};

const char* to_string(SizingRung rung);

/// The GP problem and solve behind an accepted sizing, kept only when
/// SizerOptions::keep_solve_snapshot is set. `gen` is the sizing's own
/// problem at the specs and slope budget of SizerResult::accepted_record(),
/// so its constraint order matches `gp.diag.constraints` index-for-index.
struct SolveSnapshot {
  GeneratedProblem gen;
  gp::GpResult gp;                    ///< accepted solve incl. diagnostics
  double target_delay_ps = 0.0;       ///< designer-facing spec
  double target_precharge_ps = 0.0;
};

/// One iteration of the model-vs-STA re-specification loop, recorded for
/// every size_gp run (cheap: a dozen scalars per iteration). Every
/// iteration that built a problem leaves one record, so `iter` runs 0, 1,
/// 2, ... without gaps.
/// An iteration whose GP solve failed outright, or whose problem the
/// pre-solve gate rejected (rejected_pre_solve), carries the status and
/// zeroed measurements.
struct RespecIteration {
  int iter = 0;                     ///< 0-based loop iteration
  double model_spec_ps = 0.0;       ///< model-facing spec the GP sized to
  double model_pre_spec_ps = 0.0;
  double slope_budget_ps = 0.0;     ///< slope budget the problem was built at
  double measured_delay_ps = 0.0;   ///< reference-timer verification
  double measured_precharge_ps = 0.0;
  double mismatch = 0.0;            ///< |measured/model_spec - 1|
  double total_width_um = 0.0;
  double clock_width_um = 0.0;
  size_t constraint_count = 0;      ///< timing + stage + slope constraints
  size_t binding_count = 0;         ///< binding constraints of the solve
  gp::SolveStatus gp_status = gp::SolveStatus::kMaxIter;
  /// The pre-solve gate rejected the problem, so no GP solve ran;
  /// gp_status is the status the rejection maps to.
  bool rejected_pre_solve = false;
  bool meets = false;               ///< measured within kConvergeTol of spec
  bool accepted = false;            ///< became the returned solution
};

struct SizerResult {
  bool ok = false;
  /// The accepted respec record's verdict: measured within kConvergeTol of
  /// the targets. False for baseline-rung and failed results.
  bool meets = false;
  netlist::Sizing sizing;
  double measured_delay_ps = 0.0;      ///< reference-timer delay at outputs
  double measured_precharge_ps = 0.0;  ///< reference-timer precharge settle
  double total_width_um = 0.0;
  double clock_width_um = 0.0;
  double modeled_cost = 0.0;  ///< GP objective at the solution
  int respec_iterations = 0;       ///< iteration of the returned solution
  int converged_iteration = -1;    ///< first iteration that met the spec
  int gp_newton_iterations = 0;
  /// Representative paths the constraints came from (after §5.2 pruning).
  size_t path_count = 0;
  size_t constraint_count = 0;
  /// Constraints active at the GP solution ("what limits this design"):
  /// eval/pre path tags, slope_<net>, incap_<net>, stage<k> deadlines.
  std::vector<std::string> binding_constraints;
  std::string message;
  /// Which ladder rung produced the sizing. kGp/kGpRelaxed results came
  /// from the optimizer; kBaseline means the GP failed and the result is
  /// the proportional fallback (status then records why the GP failed).
  SizingRung rung = SizingRung::kGp;
  /// ok() for healthy GP results; carries the structured FailureReason of
  /// the GP failure for degraded (kBaseline) or failed (!ok) results.
  util::Status status;
  /// Model-vs-STA retargeting trace of the GP respec loop (empty for
  /// baseline-only results). Always recorded; at most max_respec_iters
  /// entries.
  std::vector<RespecIteration> respec_trace;
  /// Set only with SizerOptions::keep_solve_snapshot on a GP-rung result.
  /// shared_ptr keeps SizerResult copyable (GeneratedProblem is move-only).
  std::shared_ptr<SolveSnapshot> snapshot;
  /// GP solution point of the accepted solve (variable-table order);
  /// empty for baseline-rung and failed results. Feeding it back through
  /// SizerOptions::warm_start on a near-identical request skips phase I
  /// and most of the barrier schedule — the result cache's warm-start
  /// currency.
  std::vector<double> solution_x;

  /// A full-GP-rung design that meets its targets: the verdict iso-delay
  /// comparisons, the advisor and topology exploration count (§6.1).
  bool converged() const { return ok && rung == SizingRung::kGp && meets; }
  /// The respec record of the returned solution; nullptr when no iteration
  /// was accepted (baseline-rung and failed results).
  const RespecIteration* accepted_record() const {
    for (const auto& it : respec_trace)
      if (it.accepted) return &it;
    return nullptr;
  }
};

/// Sizes macros against a technology and calibrated model library.
class Sizer {
 public:
  Sizer(const tech::Tech& tech, const models::ModelLibrary& lib)
      : tech_(&tech), lib_(&lib) {}

  /// Runs the full sizing loop on a finalized netlist. Never throws: GP
  /// failures walk the degradation ladder (relaxed constraints, then the
  /// proportional baseline) and the returned result's rung/status/message
  /// say which rung produced it and why degradation was needed.
  SizerResult size(const netlist::Netlist& nl,
                   const SizerOptions& opt) const;

  /// Measures a sizing with the reference timer (delay, precharge, widths).
  SizerResult measure(const netlist::Netlist& nl,
                      const netlist::Sizing& sizing) const;

  /// Capacitance presented at each input port under a sizing (fF), in
  /// Netlist::inputs() order — used to carry a baseline design's pin loads
  /// into the SMART run as load constraints (drop-in replacement). Each is
  /// the reference timer's net_cap of the input net.
  std::vector<double> input_caps(const netlist::Netlist& nl,
                                 const netlist::Sizing& sizing) const;

 private:
  /// Rung 1/2 worker: the GP respec loop. Reports failure through the
  /// result's status instead of throwing.
  SizerResult size_gp(const netlist::Netlist& nl,
                      const SizerOptions& opt) const;
  /// size() without telemetry: the degradation ladder, each rung guarded.
  SizerResult walk_ladder(const netlist::Netlist& nl,
                          const SizerOptions& opt) const;

  const tech::Tech* tech_;
  const models::ModelLibrary* lib_;
};

}  // namespace smart::core
