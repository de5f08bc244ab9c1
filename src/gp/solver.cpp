#include "gp/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/obs.h"
#include "prof/resource.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/strfmt.h"
#include "util/vecmath.h"

namespace smart::gp {
namespace {

using util::FailureReason;
using util::Matrix;
using util::Status;
using util::Vec;

// Barrier schedule, tuned for SMART sizing problems (tens to a few hundred
// variables, hundreds of constraints).
constexpr double kBarrierMu = 18.0;    ///< barrier weight growth per stage
constexpr double kTInitial = 1.0;      ///< phase II initial barrier weight
constexpr int kMaxNewtonIters = 400;   ///< per barrier stage
constexpr int kMaxBarrierStages = 60;  ///< per phase
constexpr double kFeasMargin = 1e-7;   ///< slack required to call y feasible
/// A constraint with lhs >= 1 - kBindingTol at an optimum is reported
/// binding.
constexpr double kBindingTol = 0.02;

/// A compiled convex function in the log domain:
///   F(y) = log sum_k exp(logc_k + a_k . y)  +  linear . y + linear_const
/// The optional linear part supports the phase-I auxiliary variable
/// (F_j(y) - s) without special-casing the Newton machinery.
///
/// Evaluation is support-local: gradients and Hessians are produced on the
/// function's own variable support and scattered by the caller, so the
/// per-constraint cost is O(|support|^2), not O(n^2).
struct Func {
  struct Term {
    double logc = 0.0;
    // (support-local index, exponent) pairs
    std::vector<std::pair<int, double>> factors;
  };
  std::vector<Term> terms;
  std::vector<int> support;        ///< global var ids touched by LSE part
  std::vector<int> linear_vars;    ///< global var ids of linear part
  std::vector<double> linear_coef;
  double linear_const = 0.0;
  /// union of support and linear_vars; gradient lives on these entries.
  std::vector<int> full_support;

  void finish() {
    full_support = support;
    for (int v : linear_vars)
      if (std::find(full_support.begin(), full_support.end(), v) ==
          full_support.end())
        full_support.push_back(v);
  }

  /// Value only; `scratch_z` is a caller-owned buffer reused across calls
  /// (the per-call vector churn dominated small-problem solve profiles).
  double value_at(const Vec& y, std::vector<double>& scratch_z) const {
    double value = linear_const;
    for (size_t i = 0; i < linear_vars.size(); ++i)
      value += linear_coef[i] * y[static_cast<size_t>(linear_vars[i])];
    if (terms.empty()) return value;
    double zmax = -std::numeric_limits<double>::infinity();
    scratch_z.resize(terms.size());
    for (size_t k = 0; k < terms.size(); ++k) {
      double zk = terms[k].logc;
      for (const auto& [li, e] : terms[k].factors)
        zk += e * y[static_cast<size_t>(support[static_cast<size_t>(li)])];
      scratch_z[k] = zk;
      zmax = std::max(zmax, zk);
    }
    const double denom =
        util::sum_exp_shifted(scratch_z.data(), zmax, terms.size());
    return value + zmax + std::log(denom);
  }

  /// Value only (allocating convenience overload for cold paths).
  double value_at(const Vec& y) const {
    std::vector<double> z;
    return value_at(y, z);
  }

  /// Value plus local derivatives. g_local is indexed by full_support
  /// (gradient), h_local row-major |support| x |support| (LSE Hessian; the
  /// linear part has none). Buffers are resized here; callers reuse them.
  double eval_local(const Vec& y, std::vector<double>& g_local,
                    std::vector<double>& h_local,
                    std::vector<double>& scratch_z,
                    std::vector<double>& scratch_g) const {
    g_local.assign(full_support.size(), 0.0);
    double value = linear_const;
    for (size_t i = 0; i < linear_vars.size(); ++i) {
      value += linear_coef[i] * y[static_cast<size_t>(linear_vars[i])];
      // linear vars are appended after support in full_support order; find
      // their slot (few entries, linear scan is fine).
      for (size_t fi = 0; fi < full_support.size(); ++fi)
        if (full_support[fi] == linear_vars[i]) {
          g_local[fi] += linear_coef[i];
          break;
        }
    }
    const size_t sz = support.size();
    h_local.assign(sz * sz, 0.0);
    if (terms.empty()) return value;

    scratch_z.resize(terms.size());
    double zmax = -std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < terms.size(); ++k) {
      double zk = terms[k].logc;
      for (const auto& [li, e] : terms[k].factors)
        zk += e * y[static_cast<size_t>(support[static_cast<size_t>(li)])];
      scratch_z[k] = zk;
      zmax = std::max(zmax, zk);
    }
    const double denom = util::exp_shifted(scratch_z.data(), zmax,
                                           scratch_z.data(), terms.size());
    value += zmax + std::log(denom);

    // softmax weights p_k; gradient over support slots [0, sz).
    scratch_g.assign(sz, 0.0);
    std::vector<double>& g_lse = scratch_g;
    for (size_t k = 0; k < terms.size(); ++k) {
      const double pk = scratch_z[k] / denom;
      for (const auto& [li, e] : terms[k].factors) {
        g_lse[static_cast<size_t>(li)] += pk * e;
        for (const auto& [lj, ej] : terms[k].factors)
          h_local[static_cast<size_t>(li) * sz + static_cast<size_t>(lj)] +=
              pk * e * ej;
      }
    }
    for (size_t i = 0; i < sz; ++i) {
      g_local[i] += g_lse[i];
      for (size_t j = 0; j < sz; ++j)
        h_local[i * sz + j] -= g_lse[i] * g_lse[j];
    }
    return value;
  }
};

/// Compiles a posynomial into a Func over n_total log-variables.
Func compile(const posy::Posynomial& p) {
  Func f;
  std::vector<int> support;
  for (const auto& t : p.terms())
    for (const auto& fac : t.factors()) support.push_back(fac.var);
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  f.support = support;
  auto local = [&](int var) {
    return static_cast<int>(
        std::lower_bound(support.begin(), support.end(), var) -
        support.begin());
  };
  for (const auto& t : p.terms()) {
    SMART_CHECK(t.coeff() > 0.0, "GP terms must have positive coefficients");
    Func::Term ct;
    ct.logc = std::log(t.coeff());
    for (const auto& fac : t.factors())
      ct.factors.emplace_back(local(fac.var), fac.exp);
    f.terms.push_back(std::move(ct));
  }
  f.finish();
  return f;
}

/// Validates problem data before any numerics touch it: every coefficient
/// must be finite and positive, every exponent finite, the box non-empty.
/// Returns the structured reason a solve cannot proceed, or Ok.
Status validate_problem(const GpProblem& problem) {
  if (problem.vars().size() == 0)
    return Status::Fail(FailureReason::kInvalidInput, "GP has no variables");
  if (problem.objective().is_zero())
    return Status::Fail(FailureReason::kInvalidInput, "GP objective not set");
  for (size_t i = 0; i < problem.vars().size(); ++i) {
    const auto& info = problem.vars().info(static_cast<posy::VarId>(i));
    if (!(info.lower > 0.0) || !std::isfinite(info.lower) ||
        !std::isfinite(info.upper) || info.upper < info.lower * (1 - 1e-12))
      return Status::Fail(
          FailureReason::kInvalidInput,
          util::strfmt("variable %s has empty or non-positive box",
                       info.name.c_str()));
  }
  auto check_posy = [](const posy::Posynomial& p,
                       const std::string& where) -> Status {
    for (const auto& t : p.terms()) {
      if (!std::isfinite(t.coeff()))
        return Status::Fail(FailureReason::kNumericalError,
                            "non-finite coefficient in " + where);
      if (!(t.coeff() > 0.0))
        return Status::Fail(FailureReason::kInvalidInput,
                            "non-positive coefficient in " + where);
      for (const auto& fac : t.factors())
        if (!std::isfinite(fac.exp))
          return Status::Fail(FailureReason::kNumericalError,
                              "non-finite exponent in " + where);
    }
    return Status::Ok();
  };
  if (auto s = check_posy(problem.objective(), "objective"); !s.ok())
    return s;
  for (const auto& c : problem.constraints())
    if (auto s = check_posy(c.lhs, "constraint " + c.tag); !s.ok()) return s;
  return Status::Ok();
}

/// Barrier-method state shared by both phases. Non-owning: the compiled
/// functions and bounds live in the caller.
struct BarrierProblem {
  const std::vector<Func>* constraints = nullptr;  ///< F_j(y) <= 0
  const Func* objective = nullptr;  ///< minimized (times barrier weight t)
  const Vec* ylo = nullptr;         ///< strict box bounds in log domain
  const Vec* yhi = nullptr;
};

/// Scratch buffers reused across barrier evaluations.
struct BarrierScratch {
  std::vector<double> g_local;
  std::vector<double> h_local;
  std::vector<double> z;
  std::vector<double> g_lse;
  /// Constraint slacks at the last evaluation with derivatives (the
  /// current Newton iterate), and the smallest ratio of a later value-only
  /// evaluation's slacks to them (the line search's trial point).
  std::vector<double> slack;
  double min_slack_ratio = 1.0;
};

/// Wall-clock budget for one solve() call (shared by both phases).
using Deadline = util::Deadline;

/// Evaluates the barrier objective
///   phi(y) = t * f0(y) - sum_j log(-F_j(y)) - sum_i log box slacks
/// Returns +inf when outside the domain. grad/hess optional; local
/// derivatives are scattered per function, so cost scales with the total
/// constraint support, not with constraints x n^2. An evaluation with
/// derivatives records the constraint slacks; a value-only one records in
/// scratch.min_slack_ratio how far its slacks shrank relative to them.
double barrier_eval(const BarrierProblem& bp, double t, const Vec& y,
                    Vec* grad, Matrix* hess, BarrierScratch& scratch) {
  const size_t n = y.size();
  if (grad) std::fill(grad->begin(), grad->end(), 0.0);
  double phi = 0.0;

  auto scatter = [&](const Func& f, double g_scale, double h_scale,
                     double outer_scale) {
    // grad += g_scale * g_local ; hess += h_scale * h_lse
    //                            + outer_scale * g_local g_local^T
    const auto& fs = f.full_support;
    if (grad) {
      for (size_t i = 0; i < fs.size(); ++i)
        (*grad)[static_cast<size_t>(fs[i])] +=
            g_scale * scratch.g_local[i];
    }
    if (hess) {
      const size_t sz = f.support.size();
      for (size_t i = 0; i < sz; ++i) {
        const auto gi = static_cast<size_t>(f.support[i]);
        for (size_t j = 0; j < sz; ++j)
          (*hess)(gi, static_cast<size_t>(f.support[j])) +=
              h_scale * scratch.h_local[i * sz + j];
      }
      if (outer_scale != 0.0) {
        for (size_t i = 0; i < fs.size(); ++i) {
          const double gi = scratch.g_local[i];
          if (gi == 0.0) continue;
          for (size_t j = 0; j < fs.size(); ++j)
            (*hess)(static_cast<size_t>(fs[i]), static_cast<size_t>(fs[j])) +=
                outer_scale * gi * scratch.g_local[j];
        }
      }
    }
  };

  const bool derivs = grad != nullptr || hess != nullptr;
  {
    const double f0 =
        derivs ? bp.objective->eval_local(y, scratch.g_local,
                                          scratch.h_local, scratch.z,
                                          scratch.g_lse)
               : bp.objective->value_at(y, scratch.z);
    phi += t * f0;
    if (derivs) scatter(*bp.objective, t, t, 0.0);
  }

  const size_t m = bp.constraints->size();
  if (derivs) scratch.slack.resize(m);
  const bool ratio = !derivs && scratch.slack.size() == m;
  scratch.min_slack_ratio = 1.0;
  for (size_t j = 0; j < m; ++j) {
    const Func& fj = (*bp.constraints)[j];
    const double v =
        derivs ? fj.eval_local(y, scratch.g_local, scratch.h_local,
                               scratch.z, scratch.g_lse)
               : fj.value_at(y, scratch.z);
    const double u = -v;  // slack, must stay positive
    if (u <= 0.0 || !std::isfinite(u))
      return std::numeric_limits<double>::infinity();
    if (derivs)
      scratch.slack[j] = u;
    else if (ratio)
      scratch.min_slack_ratio =
          std::min(scratch.min_slack_ratio, u / scratch.slack[j]);
    phi += -std::log(u);
    // d(-log(-F)) = F'/u ; d2 = F''/u + F' F'^T / u^2.
    if (derivs) scatter(fj, 1.0 / u, 1.0 / u, 1.0 / (u * u));
  }

  for (size_t i = 0; i < n; ++i) {
    const double a = y[i] - (*bp.ylo)[i];
    const double b = (*bp.yhi)[i] - y[i];
    if (a <= 0.0 || b <= 0.0) return std::numeric_limits<double>::infinity();
    phi += -std::log(a) - std::log(b);
    if (grad) (*grad)[i] += -1.0 / a + 1.0 / b;
    if (hess) (*hess)(i, i) += 1.0 / (a * a) + 1.0 / (b * b);
  }
  return phi;
}

/// How a Newton minimization ended. kNonFinite covers both NaN/Inf in the
/// barrier value or step and an unsolvable (indefinite) Newton system.
enum class NewtonFailure { kNone, kNonFinite, kTimeout };

struct NewtonOutcome {
  int iterations = 0;
  bool converged = false;
  NewtonFailure failure = NewtonFailure::kNone;
};

/// Damped Newton minimization of the barrier objective for fixed t.
/// early_exit, when set, is checked after every accepted step and stops the
/// minimization as soon as it returns true (used by phase I). `y` only ever
/// moves to finite accepted points: a failed iteration leaves it at the
/// last good iterate, so callers can always report a usable point.
NewtonOutcome newton_minimize(const BarrierProblem& bp, double t, Vec& y,
                              const SolverOptions& opt,
                              const Deadline& deadline,
                              const std::function<bool(const Vec&)>&
                                  early_exit = {}) {
  const size_t n = y.size();
  NewtonOutcome out;
  if (util::fault_fires(util::FaultClass::kSolverExhaustIters, "gp.newton")) {
    out.iterations = kMaxNewtonIters;
    return out;
  }
  Vec grad(n, 0.0);
  BarrierScratch scratch;

  // Assembly buffer lives across iterations; only the values are cleared.
  Matrix hess(n, n, 0.0);

  for (int it = 0; it < kMaxNewtonIters; ++it) {
    if (deadline.expired()) {
      out.failure = NewtonFailure::kTimeout;
      return out;
    }
    hess.fill(0.0);
    double phi = barrier_eval(bp, t, y, &grad, &hess, scratch);
    phi = util::fault_corrupt(util::FaultClass::kSolverNonFinite,
                              "gp.newton.phi", phi);
    if (!std::isfinite(phi)) {
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    // Levenberg-style floor keeps the system solvable when the Hessian is
    // nearly singular (e.g. slack variables far from activity).
    for (size_t i = 0; i < n; ++i) hess(i, i) += 1e-12;
    Vec step;
    try {
      step = util::cholesky_solve(hess, util::scaled(grad, -1.0));
    } catch (const util::Error&) {
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    const double decrement2 = -util::dot(grad, step);
    if (!std::isfinite(decrement2)) {
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    out.iterations = it + 1;
    if (decrement2 / 2.0 < opt.tolerance * 1e-2) {
      out.converged = true;
      return out;
    }
    // Backtracking line search: Armijo on phi, domain-respecting, and a
    // fraction-to-boundary rule — no step may halve a constraint's slack.
    // Far from the central path (just after t grows) an Armijo step can
    // otherwise dive to within 1e-7 of one curved constraint surface,
    // where Newton only creeps along it at the scale of that slack. A
    // constraint repeated k times used to hide this behind a k-fold
    // barrier weight; canonical constraint classes emit it once.
    double alpha = 1.0;
    bool accepted = false;
    for (int ls = 0; ls < 70; ++ls) {
      Vec trial = y;
      util::axpy(alpha, step, trial);
      const double phi_trial =
          barrier_eval(bp, t, trial, nullptr, nullptr, scratch);
      if (std::isfinite(phi_trial) && scratch.min_slack_ratio >= 0.5 &&
          phi_trial <= phi - 1e-4 * alpha * decrement2) {
        y = std::move(trial);
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      out.converged = true;  // cannot make progress; treat as stationary
      return out;
    }
    if (early_exit && early_exit(y)) {
      out.converged = true;
      return out;
    }
  }
  return out;
}

/// Status/diagnostic pairing shared by run-attempt exits.
FailureReason reason_of(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return FailureReason::kNone;
    case SolveStatus::kInfeasible:
      return FailureReason::kInfeasible;
    case SolveStatus::kMaxIter:
      return FailureReason::kMaxIter;
    case SolveStatus::kTimeout:
      return FailureReason::kTimeout;
    case SolveStatus::kNumericalError:
      return FailureReason::kNumericalError;
    case SolveStatus::kInvalidInput:
      return FailureReason::kInvalidInput;
  }
  return FailureReason::kInternal;
}

}  // namespace

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kMaxIter:
      return "max_iterations";
    case SolveStatus::kTimeout:
      return "timeout";
    case SolveStatus::kNumericalError:
      return "numerical_error";
    case SolveStatus::kInvalidInput:
      return "invalid_input";
  }
  return "unknown";
}

namespace {

/// Finite best-effort point for solves that fail before producing one.
GpResult failed_result(const GpProblem& problem, SolveStatus status,
                       std::string detail) {
  GpResult result;
  result.status = status;
  result.message = detail;
  result.diagnostics = Status::Fail(reason_of(status), std::move(detail));
  const size_t n = problem.vars().size();
  result.x.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const auto& info = problem.vars().info(static_cast<posy::VarId>(i));
    if (info.lower > 0.0 && std::isfinite(info.lower) &&
        std::isfinite(info.upper) && info.upper >= info.lower)
      result.x[i] = std::sqrt(info.lower * info.upper);
  }
  return result;
}

/// Per-solve telemetry: status/iteration counters, barrier stage count and
/// the final duality-gap estimate (< 0 = never reached phase II). One
/// relaxed atomic load when telemetry is disabled.
void record_solve(obs::Span& span, const GpResult& result, int barrier_stages,
                  double duality_gap) {
  auto& tel = obs::Telemetry::instance();
  if (!tel.enabled()) return;
  tel.counter_add("gp.solve.calls");
  tel.counter_add(std::string("gp.solve.status.") + to_string(result.status));
  tel.hist_record("gp.solve.newton_iters", result.newton_iterations);
  tel.hist_record("gp.solve.barrier_stages", barrier_stages);
  if (duality_gap >= 0.0) tel.hist_record("gp.solve.duality_gap", duality_gap);
  span.arg("newton_iters", result.newton_iterations);
  span.arg("barrier_stages", barrier_stages);
  if (duality_gap >= 0.0) span.arg("duality_gap", duality_gap);
}

}  // namespace

GpResult GpSolver::solve(const GpProblem& problem) const {
  try {
    return run(problem, nullptr);
  } catch (const std::exception& e) {
    return failed_result(problem, SolveStatus::kNumericalError, e.what());
  }
}

GpResult GpSolver::solve_from(const GpProblem& problem,
                              const util::Vec& x0) const {
  if (x0.size() != problem.vars().size()) {
    return failed_result(problem, SolveStatus::kInvalidInput,
                         "warm start size mismatch");
  }
  try {
    return run(problem, &x0);
  } catch (const std::exception& e) {
    return failed_result(problem, SolveStatus::kNumericalError, e.what());
  }
}

GpResult GpSolver::run(const GpProblem& problem, const util::Vec* x0) const {
  obs::Span solve_span("gp.solve");
  prof::ResourceScope solve_rusage("gp.solve");
  const auto& vars = problem.vars();
  const size_t n = vars.size();
  GpResult result;

  // Reject malformed data up front; the fallback point is finite by
  // construction so downstream consumers never see NaN widths.
  if (Status v = validate_problem(problem); !v.ok()) {
    GpResult rejected =
        failed_result(problem,
                      v.reason == FailureReason::kNumericalError
                          ? SolveStatus::kNumericalError
                          : SolveStatus::kInvalidInput,
                      v.detail);
    record_solve(solve_span, rejected, 0, -1.0);
    return rejected;
  }

  // Log-domain box bounds.
  Vec ylo(n), yhi(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& info = vars.info(static_cast<posy::VarId>(i));
    ylo[i] = std::log(info.lower);
    yhi[i] = std::log(std::max(info.upper, info.lower));
  }

  std::vector<Func> constraints;
  constraints.reserve(problem.constraints().size());
  for (const auto& c : problem.constraints())
    constraints.push_back(compile(c.lhs));
  Func objective = compile(problem.objective());
  // Conditioning guardrail: shift the objective's log-coefficients so its
  // largest term has logc 0 (equivalent to scaling the objective by a
  // positive constant, which moves no argmin). Keeps t * f0 tame when cost
  // coefficients are huge (e.g. power objectives in fF*V^2 units).
  if (!objective.terms.empty()) {
    double logc_max = -std::numeric_limits<double>::infinity();
    for (const auto& t : objective.terms)
      logc_max = std::max(logc_max, t.logc);
    if (std::fabs(logc_max) > 30.0)
      for (auto& t : objective.terms) t.logc -= logc_max;
  }

  const Deadline deadline = Deadline::from_ms(options_.deadline_ms);

  auto max_constraint = [&](const Vec& yy) {
    double m = -std::numeric_limits<double>::infinity();
    for (const auto& f : constraints) m = std::max(m, f.value_at(yy));
    return m;
  };

  // Telemetry accumulators: barrier stages consumed and the most recent
  // duality-gap estimate (m_total / t; < 0 until phase II).
  int total_stages = 0;
  double last_gap = -1.0;

  // The barrier solve from a given starting point. Writes into `out`.
  auto attempt = [&](const Vec& y_init, GpResult& out) {
    Vec y = y_init;
    int total_newton = 0;
    // Introspection state accumulated as the solve runs: the barrier-stage
    // trace and the final phase-II barrier weight (0 until phase II runs).
    // All of it is derived from values the solve computes anyway, so the
    // iterate trajectory is untouched.
    const double m_total = static_cast<double>(constraints.size()) +
                           2.0 * static_cast<double>(n);
    std::vector<StageTrace> trace;
    double t_final = 0.0;
    auto finish = [&](SolveStatus status, const std::string& msg) {
      out.x.assign(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        double xi = std::exp(y[i]);
        if (!std::isfinite(xi))
          xi = std::exp(0.5 * (ylo[i] + yhi[i]));
        out.x[i] = xi;
      }
      out.objective = problem.objective().eval(out.x);
      double viol = 0.0;
      out.binding.clear();
      out.diag = SolveDiagnostics{};
      out.diag.trace = std::move(trace);
      out.diag.final_t = t_final;
      out.diag.duality_gap = t_final > 0.0 ? m_total / t_final : -1.0;
      out.diag.constraints.reserve(problem.constraints().size());
      for (const auto& c : problem.constraints()) {
        const double v = c.lhs.eval(out.x);
        viol = std::max(viol, v - 1.0);
        ConstraintDiagnostics cd;
        cd.tag = c.tag;
        cd.lhs = v;
        cd.slack = 1.0 - v;
        cd.log_slack = v > 0.0 ? -std::log(v)
                               : std::numeric_limits<double>::infinity();
        if (status == SolveStatus::kOptimal && t_final > 0.0 &&
            cd.log_slack > 0.0 && std::isfinite(cd.log_slack))
          cd.dual = 1.0 / (t_final * cd.log_slack);
        if (status == SolveStatus::kOptimal &&
            v >= 1.0 - kBindingTol) {
          cd.binding = true;
          out.diag.binding_set.push_back(out.diag.constraints.size());
          out.binding.push_back(c.tag);
        }
        out.diag.constraints.push_back(std::move(cd));
      }
      out.max_violation = viol;
      out.newton_iterations = total_newton;
      out.status = status;
      out.message = msg;
      out.diagnostics = status == SolveStatus::kOptimal
                            ? Status::Ok()
                            : Status::Fail(reason_of(status), msg);
    };

    // ---- Phase I: find a strictly feasible point ----
    if (!constraints.empty() && max_constraint(y) >= -kFeasMargin) {
      obs::Span phase1_span("gp.phase1");
      // Augment with auxiliary s: minimize s subject to F_j(y) - s <= 0.
      Vec ylo1 = ylo, yhi1 = yhi;
      const double s0 = max_constraint(y) + 1.0;
      if (!std::isfinite(s0)) {
        finish(SolveStatus::kNumericalError,
               "non-finite constraint value at the starting point");
        return;
      }
      // Generous box for s keeps the barrier well-behaved.
      ylo1.push_back(std::min(-10.0, s0 - 100.0));
      yhi1.push_back(s0 + 100.0);
      std::vector<Func> aug;
      aug.reserve(constraints.size());
      for (const auto& f : constraints) {
        Func fa = f;
        fa.linear_vars.push_back(static_cast<int>(n));
        fa.linear_coef.push_back(-1.0);
        fa.finish();
        aug.push_back(std::move(fa));
      }
      Func obj_s;  // objective = s (pure linear)
      obj_s.linear_vars.push_back(static_cast<int>(n));
      obj_s.linear_coef.push_back(1.0);
      obj_s.finish();
      BarrierProblem p1{&aug, &obj_s, &ylo1, &yhi1};

      Vec ys = y;
      ys.push_back(s0);
      const double want = -2.0 * kFeasMargin;
      auto feasible_now = [&](const Vec& yy) {
        Vec ycore(yy.begin(), yy.begin() + static_cast<long>(n));
        return max_constraint(ycore) < want;
      };
      double t = 1.0;
      NewtonFailure p1_failure = NewtonFailure::kNone;
      for (int stage = 0; stage < kMaxBarrierStages; ++stage) {
        ++total_stages;
        auto outcome =
            newton_minimize(p1, t, ys, options_, deadline, feasible_now);
        total_newton += outcome.iterations;
        trace.push_back({static_cast<int>(trace.size()), true, t,
                         outcome.iterations, outcome.converged, -1.0});
        if (outcome.failure != NewtonFailure::kNone) {
          p1_failure = outcome.failure;
          break;
        }
        if (feasible_now(ys)) break;
        if (static_cast<double>(aug.size()) / t < options_.tolerance) break;
        t *= kBarrierMu;
      }
      y.assign(ys.begin(), ys.begin() + static_cast<long>(n));
      if (p1_failure == NewtonFailure::kTimeout) {
        finish(SolveStatus::kTimeout, "deadline exceeded in phase I");
        return;
      }
      if (p1_failure == NewtonFailure::kNonFinite) {
        finish(SolveStatus::kNumericalError,
               "non-finite value in a phase I Newton step");
        return;
      }
      if (max_constraint(y) >= 0.0) {
        finish(SolveStatus::kInfeasible,
               util::strfmt(
                   "phase I failed: max constraint value %.4g (want < 1)",
                   std::exp(max_constraint(y))));
        return;
      }
    }

    // ---- Phase II: barrier path following ----
    obs::Span phase2_span("gp.phase2");
    const BarrierProblem p2{&constraints, &objective, &ylo, &yhi};

    double t = kTInitial;
    // A warm start that is strictly feasible sits near the previous
    // optimum — close to its active constraints. Low-t centering would
    // drag the iterate back toward the analytic center only to return, so
    // skip two stages of the barrier schedule. Jumping further (e.g.
    // straight to the terminal weight) backfires: far from the central
    // path at high t, Newton exhausts its per-stage budget and the solve
    // settles on an uncentered point. Phase I above restores strict
    // feasibility when the raw warm point sat on its binding set.
    if (x0 != nullptr && max_constraint(y) < -kFeasMargin)
      t *= kBarrierMu * kBarrierMu;
    bool hit_limit = true;
    bool stage_exhausted = false;
    for (int stage = 0; stage < kMaxBarrierStages; ++stage) {
      ++total_stages;
      auto outcome = newton_minimize(p2, t, y, options_, deadline);
      total_newton += outcome.iterations;
      t_final = t;
      trace.push_back({static_cast<int>(trace.size()), false, t,
                       outcome.iterations, outcome.converged, m_total / t});
      if (outcome.failure == NewtonFailure::kTimeout) {
        finish(SolveStatus::kTimeout, "deadline exceeded in phase II");
        return;
      }
      if (outcome.failure == NewtonFailure::kNonFinite) {
        finish(SolveStatus::kNumericalError,
               "non-finite value in a phase II Newton step");
        return;
      }
      stage_exhausted = !outcome.converged &&
                        outcome.iterations >= kMaxNewtonIters;
      last_gap = m_total / t;
      if (m_total / t < options_.tolerance) {
        hit_limit = false;
        break;
      }
      t *= kBarrierMu;
    }

    if (hit_limit || stage_exhausted)
      finish(SolveStatus::kMaxIter, "iteration budget exhausted");
    else
      finish(SolveStatus::kOptimal, "optimal");
  };

  // Initial point: warm start (clipped strictly inside the box) or the box
  // midpoint (geometric mean of the bounds).
  Vec y0(n);
  for (size_t i = 0; i < n; ++i) {
    if (x0 != nullptr) {
      const double margin = 1e-3 * std::max(1.0, yhi[i] - ylo[i]);
      y0[i] = std::clamp(std::log(std::max((*x0)[i], 1e-300)),
                         ylo[i] + margin, yhi[i] - margin);
      if (!std::isfinite(y0[i])) y0[i] = 0.5 * (ylo[i] + yhi[i]);
    } else {
      y0[i] = 0.5 * (ylo[i] + yhi[i]);
    }
    if (yhi[i] - ylo[i] < 1e-12) y0[i] = ylo[i];  // effectively fixed var
  }

  // One attempt: the log-domain program is convex, so a second attempt
  // from a perturbed point could only reach the same optimum. Transient
  // faults are handled a level up, by the sizer's degradation ladder.
  attempt(y0, result);
  record_solve(solve_span, result, total_stages, last_gap);
  return result;
}

}  // namespace smart::gp
