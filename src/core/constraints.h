#pragma once

/// \file constraints.h
/// Constraint generation (paper Fig 4 / §5.3): turns a macro netlist plus
/// designer constraints (delay spec, loads, slopes) into a geometric
/// program over the size-label variables.
///
/// Constraint families generated:
///   * timing      — one constraint per representative path (after §5.2
///                   pruning) per phase: sum of posynomial arc delays +
///                   source arrival <= spec. Pass-gate control arcs yield
///                   both output transitions (the "four constraints per
///                   pass gate"); domino precharge paths check the reset.
///   * stage       — without OTB (opportunistic time borrowing), every
///                   domino stage along a path must finish within its even
///                   share of the spec; with OTB only the end-to-end
///                   constraint remains (paper §5.3, [12]).
///   * slope       — per-arc output slope <= slope budget (reliability).
///   * device size — variable box bounds (min/max width), designer-fixed
///                   labels become constants.

#include <memory>

#include "gp/problem.h"
#include "models/arc_model.h"
#include "power/power.h"
#include "timing/paths.h"

namespace smart::core {

/// What the sizer minimizes (paper: "a specified cost function (area,
/// power)"); clock load is the Fig-7 metric.
enum class CostMetric { kTotalWidth, kPower, kClockLoad };

struct ConstraintOptions {
  double delay_spec_ps = 0.0;      ///< evaluate-phase spec at the outputs
  double precharge_spec_ps = -1.0; ///< < 0 => same as delay_spec
  double slope_budget_ps = 120.0;  ///< reliability bound and model in-slope
  bool enforce_slopes = true;
  bool otb = true;                 ///< opportunistic time borrowing
  CostMetric cost = CostMetric::kTotalWidth;
  power::PowerOptions activity;    ///< used by the kPower objective
  timing::PruneOptions prune;

  /// Per-output required times (ps), aligned with Netlist::outputs(); an
  /// entry <= 0 falls back to the uniform delay spec. A datapath macro's
  /// ports rarely share one deadline — result bits feeding a bypass leave
  /// earlier than flags feeding a branch unit.
  std::vector<double> output_required_ps;

  /// Load constraints (paper Fig 4): cap the macro's input pin capacitance
  /// so the optimizer cannot buy delay with arbitrarily large first-stage
  /// devices the upstream driver would have to pay for. A uniform limit,
  /// or per-input-port limits aligned with Netlist::inputs(). < 0 => off.
  double input_cap_limit_ff = -1.0;
  std::vector<double> input_cap_limits_ff;  ///< overrides the uniform limit
  /// Headroom applied to input cap limits. Limits are usually taken from a
  /// reference design whose drivers may already be at minimum width; a few
  /// percent of slack keeps the constraint strictly satisfiable.
  double input_cap_slack = 1.05;

  /// Optional wall-clock budget for generate_problem, polled per arc model,
  /// path template and slope arc, and forwarded to path extraction
  /// (prune.deadline is overridden when this is set). Expiry throws
  /// util::TimeoutError; the sizer maps it to FailureReason::kTimeout.
  /// Non-owning; may be nullptr.
  const util::Deadline* deadline = nullptr;
};

/// Spec-independent template of one path's timing constraint: the raw
/// (unnormalized) delay posynomial plus the domino stage prefixes. The
/// re-specification loop rescales these instead of regenerating them.
struct PathConstraintTemplate {
  posy::Posynomial total;          ///< arrival + sum of arc delays
  netlist::Phase phase = netlist::Phase::kEvaluate;
  netlist::NetId end = -1;
  int stages_total = 0;
  /// (stage index k >= 2, prefix delay before entering stage k).
  std::vector<std::pair<int, posy::Posynomial>> stage_prefixes;
};

/// A generated geometric program, owning its variable table. Movable; the
/// GpProblem keeps a pointer to the VarTable held by unique_ptr.
/// The spec-independent parts (objective, path templates, slope and
/// input-cap constraints) are kept so assemble_problem() can re-normalize
/// for a new delay/precharge spec without re-extracting anything.
struct GeneratedProblem {
  std::unique_ptr<posy::VarTable> vars;
  models::LabelVarMap labels;  ///< label -> monomial over *vars
  std::unique_ptr<gp::GpProblem> problem;
  timing::PathStats path_stats;
  size_t timing_constraints = 0;
  size_t stage_constraints = 0;
  size_t slope_constraints = 0;

  // Spec-independent templates (see assemble_problem).
  posy::Posynomial objective;
  std::vector<PathConstraintTemplate> path_templates;
  std::vector<gp::Constraint> static_constraints;
  ConstraintOptions built_options;  ///< options the templates were built at

  /// The representative paths the templates were generated from, aligned
  /// with path_templates (path i produced template i, and constraint tags
  /// "eval_path<i>"/"pre_path<i>"/"stage<k>_of_path<i>"). Kept so report
  /// layers can map a binding constraint back to concrete netlist arcs.
  std::vector<timing::Path> paths;
  /// Per-template spec (ps) the last assemble_problem() normalized by —
  /// the denominator that turns a template's delay posynomial into its
  /// <= 1 constraint. Aligned with path_templates.
  std::vector<double> path_specs;
};

/// Rebuilds gen.problem for new delay/precharge specs (and OTB setting)
/// from the stored templates. Much cheaper than generate_problem: no path
/// extraction, no model evaluation — only re-normalization. The slope
/// budget and pruning options must match the ones the templates were
/// generated with (callers regenerate when those change).
void assemble_problem(GeneratedProblem& gen, double delay_spec_ps,
                      double precharge_spec_ps, bool otb,
                      const std::vector<double>& output_required_ps,
                      const netlist::Netlist& nl);

/// Builds the GP for a finalized netlist. The model library supplies the
/// posynomial coefficients; tech supplies R/C parameters.
GeneratedProblem generate_problem(const netlist::Netlist& nl,
                                  const ConstraintOptions& opt,
                                  const models::ModelLibrary& lib,
                                  const tech::Tech& tech);

/// Converts a GP solution vector into a label sizing for the netlist.
netlist::Sizing sizing_from_solution(const netlist::Netlist& nl,
                                     const GeneratedProblem& gen,
                                     const util::Vec& x);

/// The cost objective as a posynomial (also usable standalone, e.g. for
/// reporting the modeled cost of a sizing).
posy::Posynomial cost_posy(const netlist::Netlist& nl, CostMetric cost,
                           const models::LabelVarMap& labels,
                           const power::PowerOptions& activity,
                           const tech::Tech& tech);

}  // namespace smart::core
