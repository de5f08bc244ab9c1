#pragma once

/// \file solver.h
/// Interior-point solver for geometric programs. In y = log x the GP is a
/// convex program (a GpProblem compiles each row to a log-sum-exp function
/// when it is added, paper refs [3][6][7]; a solve reads the compiled rows
/// at their current offsets) solved with a two-phase barrier Newton method:
///   phase I  — minimize a smoothed max of constraint functions until a
///              strictly feasible point is found;
///   phase II — standard log-barrier path following with damped Newton.
///
/// Working set (DESIGN.md §10). Few constraints decide a sizing (§5.2), so
/// the barrier solve carries only a working set of them. A GP with
/// m <= 4n constraints is solved whole, in one round. A larger one starts
/// from the max(n, 8) constraints with the largest value at the start
/// point; after each optimal round every omitted constraint with lhs > 0.95
/// joins the set and the GP is re-solved from the last point. The rounds
/// end when nothing is added. An infeasible relaxation certifies an
/// infeasible GP, and a relaxation optimum at which every omitted
/// constraint is strictly slack is optimal for the full GP. Diagnostics
/// always cover every constraint of the GpProblem.
///
/// Guardrails: the solver never throws and never returns non-finite
/// variable values. Malformed problems, NaN/Inf surfacing mid-solve,
/// iteration exhaustion and wall-clock overrun all come back as a
/// SolveStatus plus a structured util::Status diagnostic. Each solve is one
/// attempt: the log-domain program is convex, so it has one optimum that a
/// second attempt could only find again; recovery from a failed solve
/// belongs to the caller (core::Sizer's relaxed-GP / baseline degradation
/// ladder).

#include <cstddef>
#include <string>
#include <vector>

#include "gp/problem.h"
#include "util/linalg.h"
#include "util/status.h"

namespace smart::gp {

/// Per-call solver settings. The barrier schedule (growth factor, initial
/// weight, stage and Newton budgets, feasibility margin), the binding
/// threshold and the working-set rules are fixed constants in solver.cpp,
/// tuned for SMART sizing problems (tens to a few hundred variables,
/// hundreds to thousands of constraints).
struct SolverOptions {
  double tolerance = 3e-5;  ///< duality-gap-style stopping criterion

  /// Wall-clock budget for one solve() call (ms); < 0 disables the
  /// deadline. Checked once per Newton iteration.
  double deadline_ms = -1.0;
};

enum class SolveStatus {
  kOptimal,         ///< converged to tolerance
  kInfeasible,      ///< phase I could not find a strictly feasible point
  kMaxIter,         ///< iteration limit hit; best point returned
  kTimeout,         ///< deadline_ms exceeded; best point returned
  kNumericalError,  ///< NaN/Inf in the problem data or a Newton step
  kInvalidInput,    ///< malformed problem (no vars, empty box, zero objective)
};

const char* to_string(SolveStatus status);

/// Post-solve view of one constraint, evaluated at the returned point; its
/// tag is the GpProblem's (constraints()[j].tag).
/// `dual` is the log-barrier dual estimate lambda_j = 1 / (t_final * u_j)
/// with u_j = -log lhs_j(x) the log-domain slack; by barrier
/// complementarity lambda_j * u_j = 1/t_final, so at convergence the dual
/// is large exactly on the constraints that bind. Duals are only populated
/// for kOptimal solves (phase II finished) and only on the working set;
/// elsewhere they stay 0.
struct ConstraintDiagnostics {
  double lhs = 0.0;       ///< lhs(x), feasible iff <= 1
  double slack = 0.0;     ///< 1 - lhs(x)
  double log_slack = 0.0; ///< u_j = -log lhs(x)
  double dual = 0.0;      ///< barrier dual estimate (kOptimal only)
};

/// One barrier stage of the convergence trace. Phase I stages minimize the
/// feasibility auxiliary (gap stays < 0); phase II stages report the
/// duality-gap estimate m_total / t after the stage's Newton solve.
struct StageTrace {
  int stage = 0;          ///< 0-based across both phases of the attempt
  bool phase1 = false;
  double t = 0.0;         ///< barrier weight for the stage
  int newton_iters = 0;
  bool converged = false; ///< Newton decrement criterion met
  double gap = -1.0;      ///< duality-gap estimate; < 0 in phase I
};

/// Introspection record exported by every solve without perturbing it: all
/// quantities are derived from values the solver already computes (the
/// final point, the per-constraint evaluations, the barrier schedule).
struct SolveDiagnostics {
  /// Per-constraint view in GpProblem constraint order.
  std::vector<ConstraintDiagnostics> constraints;
  /// Indices into `constraints` of the binding set (kOptimal solves): the
  /// rows with lhs within 2% of 1 at the solution — the designer's answer
  /// to "what is limiting this design".
  std::vector<size_t> binding_set;
  /// Barrier-stage convergence trace, across every working-set round.
  std::vector<StageTrace> trace;
  /// Barrier weight at exit of the last round; 0 if it had no phase II.
  double final_t = 0.0;
  /// m_total / final_t at exit, with m_total = |working_set| + 2n barrier
  /// terms; < 0 if the last round had no phase II.
  double duality_gap = -1.0;
  /// Ascending indices into `constraints` of the constraints the last
  /// barrier solve carried; every other constraint has dual 0 and, at an
  /// optimum, lhs <= 0.95. All of them when m <= 4n.
  std::vector<size_t> working_set;
  int ws_rounds = 0;  ///< barrier solves run: 1 + re-solves after additions
};

/// Result of a GP solve. x is in the original (positive) domain and always
/// finite, even on failure (failed solves return a clamped best-effort
/// point so downstream reporting never sees NaN widths).
struct GpResult {
  SolveStatus status = SolveStatus::kMaxIter;
  util::Vec x;               ///< variable values (size = vars in table)
  double objective = 0.0;    ///< objective value at x
  double max_violation = 0;  ///< max over constraints of (lhs(x) - 1)
  int newton_iterations = 0;
  /// Always 1: the solver makes one attempt per solve. Kept so consumers
  /// that aggregate per-solve effort (the perfbench `gp.attempts` layer
  /// metric) keep reading a stable field.
  int attempts = 1;
  std::string message;
  /// Structured failure reason mirroring `status` (ok() iff kOptimal).
  util::Status diagnostics;
  /// Full introspection record (slacks, duals, convergence trace).
  SolveDiagnostics diag;

  bool ok() const { return status == SolveStatus::kOptimal; }
};

/// Solves a geometric program. Thread-compatible (no shared state).
class GpSolver {
 public:
  explicit GpSolver(SolverOptions options = {}) : options_(options) {}

  /// Solves from the box midpoint. Never throws.
  GpResult solve(const GpProblem& problem) const;

  /// Solves warm-started from `x0` (clipped into the variable box). When
  /// x0 is already strictly feasible — the common case in the sizer's
  /// re-specification loop, where consecutive solves differ only in their
  /// row offsets — phase I is skipped entirely. Never throws.
  GpResult solve_from(const GpProblem& problem, const util::Vec& x0) const;

 private:
  GpResult run(const GpProblem& problem, const util::Vec* x0) const;

  SolverOptions options_;
};

}  // namespace smart::gp
