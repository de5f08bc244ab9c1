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
///
/// Regular macros repeat the same arc sequence on many paths, so most of
/// those per-path and per-arc constraints are exact copies of each other.
/// Each family is grouped into canonical classes at generation time and
/// the GP gets one constraint per class (§5.2's regularity argument applied
/// one level below paths); GeneratedProblem records which paths and arcs
/// every emitted constraint stands for.

#include <memory>

#include "gp/problem.h"
#include "lint/diagnostics.h"
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

  /// Optional wall-clock budget for generate_problem, polled per arc model,
  /// path and slope arc, and forwarded to path extraction
  /// (prune.deadline is overridden when this is set). Expiry throws
  /// util::TimeoutError; the sizer maps it to FailureReason::kTimeout.
  /// Non-owning; may be nullptr.
  const util::Deadline* deadline = nullptr;
};

/// A canonical timing class: paths with the same phase and delay
/// posynomial and, without OTB, the same domino stage prefixes and count.
/// Members differ at most in their spec, and T/s_i <= 1 for every member i
/// is the same constraint as T/min(s_i) <= 1, so the class is emitted
/// once, at its smallest spec.
struct PathClass {
  std::vector<size_t> paths;  ///< member paths, ascending; [0] emits
  /// The smallest member spec (ps): the limit of the class's end-to-end
  /// row, and the base of its stage rows' limits.
  double spec = 0.0;
};

/// A canonical static class: slope or input-cap constraints whose
/// posynomials are identical (e.g. two inputs of one gate driving the same
/// output transition through the same devices).
struct StaticClass {
  std::vector<std::string> members;  ///< one name per arc / input port
};

/// Which class an emitted constraint stands for.
struct ConstraintOrigin {
  enum class Kind : uint8_t { kPath, kStage, kStatic };
  Kind kind = Kind::kPath;
  uint32_t cls = 0;  ///< index into path_classes or static_classes
  int stage = 0;     ///< domino stage k of a kStage constraint
};

/// A generated geometric program, owning its variable table. Movable; the
/// GpProblem keeps a pointer to the VarTable held by unique_ptr.
/// Each posynomial lives once, in `problem`; the classes record which paths
/// and arcs each constraint stands for.
struct GeneratedProblem {
  std::unique_ptr<posy::VarTable> vars;
  models::LabelVarMap labels;  ///< label -> monomial over *vars
  std::unique_ptr<gp::GpProblem> problem;
  /// Emitted constraints per family (one per canonical class).
  size_t timing_constraints = 0;
  size_t stage_constraints = 0;
  size_t slope_constraints = 0;

  std::vector<PathClass> path_classes;      ///< in first-member order
  std::vector<StaticClass> static_classes;  ///< input caps, then slopes

  /// The representative paths (after §5.2 pruning) the timing constraints
  /// were built from, kept for rebuilds (build_problem()) and so report
  /// layers can map a binding constraint back to concrete netlist arcs.
  std::vector<timing::Path> paths;
  /// Per-path spec (ps) of the last build or assemble_problem(), aligned
  /// with paths; a class is emitted at the smallest spec of its members.
  std::vector<double> path_specs;

  /// Aligned with problem->constraints(): the class each emitted
  /// constraint stands for (see constraint_members()).
  std::vector<ConstraintOrigin> origins;
  /// Path i's end-to-end timing constraint is problem->constraints()
  /// [path_constraint[i]], a row even when its delay is constant. Its tag
  /// is "eval_path<j>"/"pre_path<j>" where j is the first member of i's
  /// class; stage constraints are "stage<k>_of_path<j>".
  std::vector<size_t> path_constraint;
};

/// The logical constraints emitted constraint `index` stands for: the
/// per-path tags ("eval_path<i>", "stage<k>_of_path<i>") of every member
/// path, or the per-arc / per-port names of a static class. One entry for
/// a constraint that merged nothing.
std::vector<std::string> constraint_members(const GeneratedProblem& gen,
                                            size_t index);

/// gp::verify_problem over gen.problem, with every finding on a merged
/// constraint saying which members it stands for.
lint::Report verify_generated(const GeneratedProblem& gen,
                              const lint::Options& options,
                              const std::string& name);

/// Moves gen.problem to new delay/precharge specs by writing each timing
/// and stage row's offset, -log(limit): no extraction, no model
/// evaluation, no new GpProblem, and the result is bit-identical to a
/// build at these specs. The slope budget, pruning and OTB stay those of
/// the build (build_problem()).
void assemble_problem(GeneratedProblem& gen, double delay_spec_ps,
                      double precharge_spec_ps,
                      const std::vector<double>& output_required_ps,
                      const netlist::Netlist& nl);

/// Rebuilds everything of `gen` but its paths, which depend only on the
/// netlist and opt.prune and are extracted (bounded by opt.deadline) only
/// when gen has none. The old problem is freed first.
void build_problem(GeneratedProblem& gen, const netlist::Netlist& nl,
                   const ConstraintOptions& opt,
                   const models::ModelLibrary& lib, const tech::Tech& tech);

/// Builds the GP for a finalized netlist. The model library supplies the
/// posynomial coefficients; tech supplies R/C parameters.
GeneratedProblem generate_problem(const netlist::Netlist& nl,
                                  const ConstraintOptions& opt,
                                  const models::ModelLibrary& lib,
                                  const tech::Tech& tech);

/// Path `path`'s modeled delay (ps) at x: its class's end-to-end row's
/// lhs, the delay before the row's offset.
double path_model_delay(const GeneratedProblem& gen, size_t path,
                        const util::Vec& x);

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
