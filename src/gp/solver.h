#pragma once

/// \file solver.h
/// Interior-point solver for geometric programs. The GP is transformed to a
/// convex program via y = log x (posynomials become log-sum-exp functions,
/// paper refs [3][6][7]) and solved with a two-phase barrier Newton method:
///   phase I  — minimize a smoothed max of constraint functions until a
///              strictly feasible point is found;
///   phase II — standard log-barrier path following with damped Newton.
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

/// Solver knobs; defaults are tuned for SMART sizing problems (tens to a few
/// hundred variables, hundreds of constraints).
struct SolverOptions {
  double tolerance = 3e-5;       ///< duality-gap-style stopping criterion
  double binding_tol = 0.02;     ///< |lhs - 1| threshold to report binding
  double barrier_mu = 18.0;      ///< barrier parameter growth factor
  double t_initial = 1.0;        ///< initial barrier weight
  int max_newton_iters = 400;    ///< per barrier stage
  int max_barrier_stages = 60;
  double feas_margin = 1e-7;     ///< required slack to call a point feasible

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

/// Post-solve view of one constraint, evaluated at the returned point.
/// `dual` is the log-barrier dual estimate lambda_j = 1 / (t_final * u_j)
/// with u_j = -log lhs_j(x) the log-domain slack; by barrier
/// complementarity lambda_j * u_j = 1/t_final, so at convergence the dual
/// is large exactly on the constraints that bind. Duals are only populated
/// for kOptimal solves (phase II finished); elsewhere they stay 0.
struct ConstraintDiagnostics {
  std::string tag;        ///< constraint tag from the GpProblem
  double lhs = 0.0;       ///< lhs(x), feasible iff <= 1
  double slack = 0.0;     ///< 1 - lhs(x)
  double log_slack = 0.0; ///< u_j = -log lhs(x)
  double dual = 0.0;      ///< barrier dual estimate (kOptimal only)
  bool binding = false;   ///< lhs within binding_tol of 1 at an optimum
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
  /// Indices into `constraints` of the binding set (kOptimal solves).
  std::vector<size_t> binding_set;
  /// Barrier-stage convergence trace of the accepted attempt.
  std::vector<StageTrace> trace;
  double final_t = 0.0;     ///< barrier weight at exit; 0 if no phase II
  double duality_gap = -1.0;///< m_total / final_t at exit; < 0 if no phase II
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
  /// Tags of constraints active at the solution (lhs within binding_tol of
  /// 1) — the designer's answer to "what is limiting this design".
  std::vector<std::string> binding;
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
  /// re-specification loop, where consecutive problems differ only in
  /// their constraint scaling — phase I is skipped entirely. Never throws.
  GpResult solve_from(const GpProblem& problem, const util::Vec& x0) const;

 private:
  GpResult run(const GpProblem& problem, const util::Vec* x0) const;

  SolverOptions options_;
};

}  // namespace smart::gp
