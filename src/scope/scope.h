#pragma once

/// \file scope.h
/// SMART-Scope: the introspection and reporting layer over the solve path.
/// Takes a sizing result that carries its solve snapshot
/// (SizerOptions::keep_solve_snapshot) and produces a PrimeTime-style
/// report_timing view of it: top-K critical paths mapped from binding GP
/// constraints back to concrete netlist arcs, with per-stage delay/slope/
/// borrow breakdown (model vs reference-STA), a slack histogram, the
/// solver's binding set with log-barrier dual estimates, per-size-label
/// sensitivity ("what limits this width"), the barrier convergence trace
/// and the sizer's model-vs-STA retargeting trace — in text and JSON.
///
/// The mapping relies on the constraint-generation invariant that path i of
/// GeneratedProblem::paths is bounded end to end by the constraint
/// GeneratedProblem::path_constraint[i] (none when its delay is constant).
/// One constraint can stand for several paths or arcs (canonical classes);
/// the binding set names every member.

#include <string>
#include <vector>

#include "core/sizer.h"
#include "obs/obs.h"

namespace smart::scope {

/// Report-level binding cut on the normalized GP slack |1 - lhs(x)|. Much
/// tighter than the solver's designer-facing binding set (lhs within 2% of
/// 1): with the solver run at tolerance <= this value, constraints under
/// the cut are active at the KKT point to working precision.
inline constexpr double kBindingSlackTol = 1e-6;

/// Report-grade sizing: keep the snapshot a report reads, and solve until
/// active constraints sit at |1 - lhs| <= kBindingSlackTol, so the binding
/// set reported is the KKT active set to working precision.
inline void make_report_grade(core::SizerOptions* opt) {
  opt->keep_solve_snapshot = true;
  opt->gp.tolerance = kBindingSlackTol;
}

struct ScopeOptions {
  /// Critical paths reported (ranked by reference-STA slack, worst first).
  size_t top_k = 5;
};

/// One arc of a reported path, replayed through the reference timer at the
/// accepted sizing.
struct StageReport {
  std::string from;        ///< source net name
  std::string to;          ///< destination net name
  std::string comp;        ///< component instance name
  std::string kind;        ///< arc kind (static_data, domino_eval, ...)
  bool out_rise = false;
  double delay_ps = 0.0;   ///< reference-STA arc delay
  double slope_ps = 0.0;   ///< output slope of the transition
  double arrival_ps = 0.0; ///< cumulative arrival after the arc
  /// Time borrowed past the stage's even phase share when entering this
  /// domino stage (OTB view, paper §5.3); 0 for non-stage-entry arcs.
  double borrow_ps = 0.0;
  int domino_stage = 0;    ///< 1-based stage index entered; 0 = none
};

/// One reported timing path: the GP's model view (template posynomial at
/// the solved point, normalized slack/dual) next to the reference timer's
/// replay of the same arcs at the accepted sizing.
struct PathReport {
  size_t path_index = 0;      ///< index into GeneratedProblem::paths
  std::string tag;            ///< "eval_path<i>" or "pre_path<i>"
  std::string constraint;     ///< tag of the GP constraint standing for it
  std::string phase;          ///< "evaluate" | "precharge"
  std::string startpoint;     ///< "<net> (R|F)"
  std::string endpoint;
  double spec_ps = 0.0;       ///< model-facing spec the GP normalized by
  double target_ps = 0.0;     ///< designer-facing spec for the phase
  double model_delay_ps = 0.0;///< template posynomial at the solved point
  double model_slack_ps = 0.0;///< spec_ps - model_delay_ps
  double gp_slack = 0.0;      ///< 1 - lhs(x) of its constraint
  double gp_dual = 0.0;       ///< log-barrier dual of its constraint
  bool binding = false;       ///< |gp_slack| <= kBindingSlackTol
  double sta_arrival_ps = 0.0;///< reference-STA replay of the path
  double sta_slack_ps = 0.0;  ///< target_ps - sta_arrival_ps
  std::vector<StageReport> stages;
};

/// One binding constraint of the solved GP (report-level tight cut).
struct BindingReport {
  std::string tag;
  /// Every path / arc / port constraint it stands for (one entry when it
  /// merged nothing). The dual is the members' summed dual.
  std::vector<std::string> members;
  double lhs = 0.0;
  double slack = 0.0;  ///< 1 - lhs(x); |slack| <= kBindingSlackTol
  double dual = 0.0;
};

struct SensitivityDriver {
  std::string tag;     ///< constraint doing the limiting
  double score = 0.0;  ///< dual-weighted log-sensitivity d(lhs)/d(log w)
};

/// "What limits this width": for each free size label, the binding
/// constraints with the largest dual-weighted sensitivity to it. A
/// positive score means the constraint pushes the width down (growing the
/// device moves the constraint toward violation); negative means it holds
/// the width up.
struct LabelSensitivity {
  std::string label;
  double width_um = 0.0;
  bool at_lower = false;  ///< pinned at its box lower bound
  bool at_upper = false;
  std::vector<SensitivityDriver> drivers;
};

/// The full introspection report.
struct ScopeReport {
  std::string macro;
  std::string message;       ///< "ok" or why the report is empty
  std::string solve_status;  ///< gp::to_string of the accepted solve
  double objective = 0.0;
  double target_delay_ps = 0.0;
  double target_precharge_ps = 0.0;
  double model_delay_spec_ps = 0.0;
  double model_precharge_spec_ps = 0.0;
  double measured_delay_ps = 0.0;
  double measured_precharge_ps = 0.0;
  size_t total_paths = 0;        ///< representative paths in the GP
  size_t total_constraints = 0;  ///< constraints in the solved problem
  double final_t = 0.0;          ///< barrier weight at solver exit
  double duality_gap = -1.0;
  std::vector<PathReport> paths;       ///< top-K, worst STA slack first
  obs::HistogramSummary slack_hist;    ///< STA slack (ps) over all paths
  std::vector<BindingReport> binding;  ///< tight binding set
  std::vector<LabelSensitivity> sensitivities;
  std::vector<gp::StageTrace> trace;          ///< barrier convergence
  std::vector<core::RespecIteration> respec;  ///< model-vs-STA retargeting
};

/// Builds the report from a sizing result. Requires result.snapshot
/// (SizerOptions::keep_solve_snapshot); without one, returns a stub report
/// whose message says so. Never throws.
ScopeReport build_report(const netlist::Netlist& nl,
                         const core::SizerResult& result,
                         const tech::Tech& tech,
                         const ScopeOptions& opt = {});

/// PrimeTime-style multi-line text rendering.
std::string render_text(const ScopeReport& report);

/// JSON rendering (parses back with util::json).
std::string render_json(const ScopeReport& report);

}  // namespace smart::scope
