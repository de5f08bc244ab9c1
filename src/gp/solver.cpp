#include "gp/solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "obs/obs.h"
#include "prof/resource.h"
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

// Working set (DESIGN.md §10). A GP with at most kWholeSolveRatio * n
// constraints is solved whole. A larger one is seeded with the
// max(n, kMinSeed) constraints that have the largest value at the start
// point; after each optimal round every omitted constraint with
// lhs > kAddLhs joins the set and the GP is re-solved.
constexpr size_t kWholeSolveRatio = 4;
constexpr size_t kMinSeed = 8;
constexpr double kAddLhs = 0.95;

// A compiled row F(y) = offset + log sum_k exp(logc_k + a_k . y) (problem.h)
// is evaluated support-local: gradients on the row's own variable support,
// Hessian entries straight into the caller's global matrix, so a row costs
// O(terms x factors^2), not O(n^2). The offset leaves its derivatives alone.

/// Fills z[k] = logc_k + a_k . y and returns max_k z[k].
double exponents(const LogPosy& f, const Vec& y, std::vector<double>& z) {
  z.resize(f.logc.size());
  double zmax = -std::numeric_limits<double>::infinity();
  for (size_t k = 0, q = 0; k < f.logc.size(); ++k) {
    double zk = f.logc[k];
    for (; q < f.ends[k]; ++q)
      zk += f.factors[q].second * y[f.support[f.factors[q].first]];
    z[k] = zk;
    zmax = std::max(zmax, zk);
  }
  return zmax;
}

/// F(y); `z` is a caller-owned buffer reused across calls (the per-call
/// vector churn dominated small-problem solve profiles).
double value_at(const LogPosy& f, const Vec& y, std::vector<double>& z) {
  const double zmax = exponents(f, y, z);
  return f.offset +
         (zmax + std::log(util::sum_exp_shifted(z.data(), zmax, z.size())));
}

/// F(y), leaving the softmax weights p_k in `p` and the gradient
/// g = sum_k p_k a_k on the support in `g`.
double value_grad(const LogPosy& f, const Vec& y, std::vector<double>& p,
                  std::vector<double>& g) {
  const double zmax = exponents(f, y, p);
  const double denom = util::exp_shifted(p.data(), zmax, p.data(), p.size());
  g.assign(f.support.size(), 0.0);
  for (size_t k = 0, q = 0; k < f.logc.size(); ++k) {
    p[k] /= denom;
    for (; q < f.ends[k]; ++q)
      g[f.factors[q].first] += p[k] * f.factors[q].second;
  }
  return f.offset + (zmax + std::log(denom));
}

/// hess += w * sum_k p_k a_k a_k^T + c * g g^T on the lower triangle of
/// the support block, with p and g from value_grad. F's own Hessian is
/// sum_k p_k a_k a_k^T - g g^T, so a barrier term folds its F''/u and
/// F' F'^T / u^2 parts into one (w, c) pair and one rank-1 pass.
void add_hessian(const LogPosy& f, const std::vector<double>& p,
                 const std::vector<double>& g, double w, double c,
                 Matrix& hess) {
  const auto& sup = f.support;
  for (size_t k = 0, q = 0; k < f.logc.size(); q = f.ends[k++]) {
    const double wk = w * p[k];
    for (size_t a = q; a < f.ends[k]; ++a) {
      const double wa = wk * f.factors[a].second;
      const size_t ga = sup[f.factors[a].first];
      for (size_t b = q; b <= a; ++b)
        hess(ga, sup[f.factors[b].first]) += wa * f.factors[b].second;
    }
  }
  for (size_t i = 0; i < sup.size(); ++i) {
    const double ci = c * g[i];
    if (ci == 0.0) continue;
    for (size_t j = 0; j <= i; ++j) hess(sup[i], sup[j]) += ci * g[j];
  }
}

/// One barrier problem over the working set. Non-owning: the compiled
/// functions, the set and the bounds live in the caller.
///   phase II: phi = t f0(y) - sum_{j in W} log(-F_j(y)) - box terms
///   phase I:  phi = t s - sum_{j in W} log(s - F_j(y)) - box terms, where
///             s = y[n] is an auxiliary last coordinate (objective null)
struct BarrierProblem {
  const std::vector<LogPosy>* funcs = nullptr;   ///< every constraint
  const std::vector<size_t>* active = nullptr;   ///< working set W
  const LogPosy* objective = nullptr;  ///< nullptr selects phase I
  const Vec* ylo = nullptr;         ///< strict box bounds in log domain
  const Vec* yhi = nullptr;
};

/// Buffers one solve reuses across every barrier evaluation, Newton step
/// and line-search trial, in both phases and all working-set rounds.
struct BarrierScratch {
  std::vector<double> p;  ///< per-term exponents / softmax weights
  std::vector<double> g;  ///< one function's gradient on its support
  /// Constraint slacks at the last evaluation with derivatives (the
  /// current Newton iterate), and the smallest ratio of a later value-only
  /// evaluation's slacks to them (the line search's trial point).
  std::vector<double> slack;
  double min_slack_ratio = 1.0;
  /// Largest working-set row value F_j(y) at the last value-only
  /// evaluation that stayed in the domain (the line search's trial point).
  double max_row = -std::numeric_limits<double>::infinity();
  /// Every barrier log argument of one evaluation: the slacks, then both
  /// box sides of each coordinate.
  std::vector<double> log_args;
  Vec grad;
  Matrix hess;  ///< lower triangle only; cholesky_solve reads no more
  Matrix chol;  ///< Cholesky factor of hess
  Vec step;     ///< Newton step
  Vec trial;    ///< line-search point
};

/// Wall-clock budget for one solve() call (shared by every round).
using Deadline = util::Deadline;

/// Evaluates the barrier objective phi(y) (see BarrierProblem). Returns
/// +inf when outside the domain. With `derivs` it also assembles
/// scratch.grad and the lower triangle of scratch.hess, straight from each
/// function's terms, and records the constraint slacks; a value-only
/// evaluation records in scratch.min_slack_ratio how far its slacks shrank
/// relative to them, and in scratch.max_row its largest row value. The
/// barrier's logs are summed in one batched util::sum_log.
double barrier_eval(const BarrierProblem& bp, double t, const Vec& y,
                    bool derivs, BarrierScratch& s) {
  const size_t n = y.size();
  const bool phase1 = bp.objective == nullptr;
  const size_t aux = n - 1;  // s, in phase I
  if (derivs) {
    s.grad.assign(n, 0.0);
    if (s.hess.rows() != n)
      s.hess = Matrix(n, n, 0.0);
    else
      s.hess.fill(0.0);
  }
  auto add_grad = [&](const LogPosy& f, double scale) {
    for (size_t i = 0; i < f.support.size(); ++i)
      s.grad[f.support[i]] += scale * s.g[i];
  };

  double phi = 0.0;
  if (phase1) {
    phi = t * y[aux];
    if (derivs) s.grad[aux] += t;
  } else if (derivs) {
    phi = t * value_grad(*bp.objective, y, s.p, s.g);
    add_grad(*bp.objective, t);
    add_hessian(*bp.objective, s.p, s.g, t, -t, s.hess);
  } else {
    phi = t * value_at(*bp.objective, y, s.p);
  }

  const auto& active = *bp.active;
  const size_t m = active.size();
  if (derivs) s.slack.resize(m);
  const bool ratio = !derivs && s.slack.size() == m;
  s.min_slack_ratio = 1.0;
  s.log_args.resize(m + 2 * n);
  double max_row = -std::numeric_limits<double>::infinity();
  for (size_t w = 0; w < m; ++w) {
    const LogPosy& fj = (*bp.funcs)[active[w]];
    const double v =
        derivs ? value_grad(fj, y, s.p, s.g) : value_at(fj, y, s.p);
    const double u = (phase1 ? y[aux] : 0.0) - v;  // slack, must stay > 0
    if (u <= 0.0 || !std::isfinite(u))
      return std::numeric_limits<double>::infinity();
    s.log_args[w] = u;
    if (derivs)
      s.slack[w] = u;
    else if (ratio)
      s.min_slack_ratio = std::min(s.min_slack_ratio, u / s.slack[w]);
    if (!derivs) {
      max_row = std::max(max_row, v);
      continue;
    }
    // d(-log u) = F'/u ; d2 = F''/u + F' F'^T / u^2, where phase I's F'
    // carries an extra -1 on s.
    const double inv_u = 1.0 / u;
    const double inv_u2 = inv_u * inv_u;
    add_grad(fj, inv_u);
    add_hessian(fj, s.p, s.g, inv_u, inv_u2 - inv_u, s.hess);
    if (phase1) {
      s.grad[aux] -= inv_u;
      for (size_t i = 0; i < fj.support.size(); ++i)
        s.hess(aux, fj.support[i]) -= inv_u2 * s.g[i];
      s.hess(aux, aux) += inv_u2;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const double a = y[i] - (*bp.ylo)[i];
    const double b = (*bp.yhi)[i] - y[i];
    // sum_log (built with -ffast-math) needs positive, finite arguments.
    if (!(a > 0.0 && b > 0.0 && std::isfinite(a) && std::isfinite(b)))
      return std::numeric_limits<double>::infinity();
    s.log_args[m + 2 * i] = a;
    s.log_args[m + 2 * i + 1] = b;
    if (derivs) {
      s.grad[i] += -1.0 / a + 1.0 / b;
      s.hess(i, i) += 1.0 / (a * a) + 1.0 / (b * b);
    }
  }
  if (!derivs) s.max_row = max_row;
  return phi - util::sum_log(s.log_args.data(), s.log_args.size());
}

/// How a Newton minimization ended. kNonFinite covers both NaN/Inf in the
/// barrier value or step and an unsolvable (indefinite) Newton system.
enum class NewtonFailure { kNone, kNonFinite, kTimeout };

struct NewtonOutcome {
  int iterations = 0;
  bool converged = false;
  bool exited_early = false;  ///< early_exit returned true
  NewtonFailure failure = NewtonFailure::kNone;
};

/// Damped Newton minimization of the barrier objective for fixed t.
/// early_exit, when set, is checked after every accepted step with the
/// largest working-set row value at the new point (which the line search
/// has just evaluated) and stops the minimization as soon as it returns
/// true (used by phase I). `y` only ever moves to finite accepted points: a
/// failed iteration leaves it at the last good iterate, so callers can
/// always report a usable point.
NewtonOutcome newton_minimize(const BarrierProblem& bp, double t, Vec& y,
                              double tolerance, const Deadline& deadline,
                              BarrierScratch& scratch,
                              const std::function<bool(double)>& early_exit =
                                  {}) {
  const size_t n = y.size();
  NewtonOutcome out;
  if (util::fault_fires(util::FaultClass::kSolverExhaustIters, "gp.newton")) {
    out.iterations = kMaxNewtonIters;
    return out;
  }

  for (int it = 0; it < kMaxNewtonIters; ++it) {
    if (deadline.expired()) {
      out.failure = NewtonFailure::kTimeout;
      return out;
    }
    double phi = barrier_eval(bp, t, y, true, scratch);
    phi = util::fault_corrupt(util::FaultClass::kSolverNonFinite,
                              "gp.newton.phi", phi);
    if (!std::isfinite(phi)) {
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    // Levenberg-style floor keeps the system solvable when the Hessian is
    // nearly singular (e.g. slack variables far from activity).
    for (size_t i = 0; i < n; ++i) scratch.hess(i, i) += 1e-12;
    // Solves H d = grad and negates: the substitutions are linear and IEEE
    // rounding is sign-symmetric, so this is bit-identical to solving for
    // -grad, without a negated copy of it.
    Vec& step = scratch.step;
    try {
      util::cholesky_solve(scratch.hess, scratch.grad, scratch.chol, step);
    } catch (const util::Error&) {
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    for (double& v : step) v = -v;
    const double decrement2 = -util::dot(scratch.grad, step);
    if (!std::isfinite(decrement2)) {
      out.failure = NewtonFailure::kNonFinite;
      return out;
    }
    out.iterations = it + 1;
    if (decrement2 / 2.0 < tolerance * 1e-2) {
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
    //
    // An accepted step that leaves phi unchanged means the decrease the
    // Newton decrement predicts is below phi's rounding: at a high barrier
    // weight (t ~ 6e8 at a 1e-6 tolerance, phi ~ 5e9) the iterate is then
    // stationary to working precision, and another step only creeps.
    double alpha = 1.0;
    bool accepted = false;
    bool stalled = false;
    for (int ls = 0; ls < 70; ++ls) {
      scratch.trial.assign(y.begin(), y.end());
      util::axpy(alpha, step, scratch.trial);
      const double phi_trial =
          barrier_eval(bp, t, scratch.trial, false, scratch);
      if (std::isfinite(phi_trial) && scratch.min_slack_ratio >= 0.5 &&
          phi_trial <= phi - 1e-4 * alpha * decrement2) {
        y.swap(scratch.trial);
        accepted = true;
        stalled = !(phi_trial < phi);
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted || stalled) {
      out.converged = true;  // cannot make progress; treat as stationary
      return out;
    }
    if (early_exit && early_exit(scratch.max_row)) {
      out.converged = true;
      out.exited_early = true;
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

/// The fixed data of one solve, shared by its working-set rounds.
struct CompiledGp {
  const std::vector<LogPosy>& constraints;
  const LogPosy& objective;
  Vec ylo, yhi;  ///< log-domain box
};

/// What the working-set rounds accumulate: the iterate, the effort spent
/// and the barrier-stage trace (stage numbers run on across rounds), plus
/// the last round's phase-II barrier weight (0 if it never reached phase
/// II).
struct SolveState {
  Vec y;
  int newton = 0;
  int stages = 0;
  std::vector<StageTrace> trace;
  double t_final = 0.0;
};

struct RoundOutcome {
  SolveStatus status = SolveStatus::kOptimal;
  std::string message = "optimal";
};

/// Largest constraint value over `set` at yy (which may carry phase I's
/// auxiliary coordinate; Funcs never read it).
double max_constraint(const CompiledGp& gp, const std::vector<size_t>& set,
                      const Vec& yy, std::vector<double>& z) {
  double m = -std::numeric_limits<double>::infinity();
  for (size_t j : set) m = std::max(m, value_at(gp.constraints[j], yy, z));
  return m;
}

/// One barrier solve over the working set `ws` from st.y: phase I when
/// st.y is not strictly feasible for ws, then phase II. `warm` lets a
/// strictly feasible start skip the first barrier stages.
RoundOutcome barrier_solve(const CompiledGp& gp,
                           const std::vector<size_t>& ws, bool warm,
                           const SolverOptions& options,
                           const Deadline& deadline, BarrierScratch& scratch,
                           SolveState& st) {
  const size_t n = gp.ylo.size();
  Vec& y = st.y;
  st.t_final = 0.0;

  // ---- Phase I: find a strictly feasible point ----
  if (!ws.empty() && max_constraint(gp, ws, y, scratch.p) >= -kFeasMargin) {
    obs::Span phase1_span("gp.phase1");
    // Augment with auxiliary s: minimize s subject to F_j(y) - s <= 0.
    Vec ylo1 = gp.ylo, yhi1 = gp.yhi;
    const double s0 = max_constraint(gp, ws, y, scratch.p) + 1.0;
    if (!std::isfinite(s0))
      return {SolveStatus::kNumericalError,
              "non-finite constraint value at the starting point"};
    // Generous box for s keeps the barrier well-behaved.
    ylo1.push_back(std::min(-10.0, s0 - 100.0));
    yhi1.push_back(s0 + 100.0);
    const BarrierProblem p1{&gp.constraints, &ws, nullptr, &ylo1, &yhi1};

    Vec ys = y;
    ys.push_back(s0);
    const double want = -2.0 * kFeasMargin;
    const double m1 = static_cast<double>(ws.size() + 2 * (n + 1));
    auto feasible = [&](double worst_row) { return worst_row < want; };
    double t = 1.0;
    NewtonFailure p1_failure = NewtonFailure::kNone;
    for (int stage = 0; stage < kMaxBarrierStages; ++stage) {
      ++st.stages;
      auto outcome = newton_minimize(p1, t, ys, options.tolerance, deadline,
                                     scratch, feasible);
      st.newton += outcome.iterations;
      st.trace.push_back({static_cast<int>(st.trace.size()), true, t,
                          outcome.iterations, outcome.converged, -1.0});
      if (outcome.failure != NewtonFailure::kNone) {
        p1_failure = outcome.failure;
        break;
      }
      if (outcome.exited_early ||
          feasible(max_constraint(gp, ws, ys, scratch.p)))
        break;
      // A centered phase-I point is within m/t of the least reachable s,
      // m counting every barrier term (the working set and both box sides
      // of y and s). Once s exceeds twice that gap, the least s is
      // positive: the working set, and so the GP, is infeasible.
      if (outcome.converged && ys[n] - 2.0 * m1 / t > 0.0) break;
      if (static_cast<double>(ws.size()) / t < options.tolerance) break;
      t *= kBarrierMu;
    }
    y.assign(ys.begin(), ys.begin() + static_cast<long>(n));
    if (p1_failure == NewtonFailure::kTimeout)
      return {SolveStatus::kTimeout, "deadline exceeded in phase I"};
    if (p1_failure == NewtonFailure::kNonFinite)
      return {SolveStatus::kNumericalError,
              "non-finite value in a phase I Newton step"};
    const double worst = max_constraint(gp, ws, y, scratch.p);
    if (worst >= 0.0)
      return {SolveStatus::kInfeasible,
              util::strfmt(
                  "phase I failed: max constraint value %.4g (want < 1)",
                  std::exp(worst))};
  }

  // ---- Phase II: barrier path following ----
  obs::Span phase2_span("gp.phase2");
  const BarrierProblem p2{&gp.constraints, &ws, &gp.objective, &gp.ylo,
                          &gp.yhi};
  const double m_total =
      static_cast<double>(ws.size()) + 2.0 * static_cast<double>(n);

  double t = kTInitial;
  // A warm start that is strictly feasible sits near the previous
  // optimum — close to its active constraints. Low-t centering would
  // drag the iterate back toward the analytic center only to return, so
  // skip two stages of the barrier schedule. Jumping further (e.g.
  // straight to the terminal weight) backfires: far from the central
  // path at high t, Newton exhausts its per-stage budget and the solve
  // settles on an uncentered point. Phase I above restores strict
  // feasibility when the raw warm point sat on its binding set.
  if (warm && max_constraint(gp, ws, y, scratch.p) < -kFeasMargin)
    t *= kBarrierMu * kBarrierMu;
  bool hit_limit = true;
  bool stage_exhausted = false;
  for (int stage = 0; stage < kMaxBarrierStages; ++stage) {
    ++st.stages;
    auto outcome =
        newton_minimize(p2, t, y, options.tolerance, deadline, scratch);
    st.newton += outcome.iterations;
    st.t_final = t;
    st.trace.push_back({static_cast<int>(st.trace.size()), false, t,
                        outcome.iterations, outcome.converged, m_total / t});
    if (outcome.failure == NewtonFailure::kTimeout)
      return {SolveStatus::kTimeout, "deadline exceeded in phase II"};
    if (outcome.failure == NewtonFailure::kNonFinite)
      return {SolveStatus::kNumericalError,
              "non-finite value in a phase II Newton step"};
    stage_exhausted =
        !outcome.converged && outcome.iterations >= kMaxNewtonIters;
    if (m_total / t < options.tolerance) {
      hit_limit = false;
      break;
    }
    t *= kBarrierMu;
  }
  if (hit_limit || stage_exhausted)
    return {SolveStatus::kMaxIter, "iteration budget exhausted"};
  return {};
}

/// The first working set: every constraint when m <= kWholeSolveRatio * n,
/// else the max(n, kMinSeed) constraints with the largest value at y0
/// (ties to the lower index). Ascending, so a whole-problem set walks the
/// constraints in problem order.
std::vector<size_t> seed_working_set(const CompiledGp& gp, const Vec& y0,
                                     std::vector<double>& z) {
  const size_t n = gp.ylo.size();
  const size_t m = gp.constraints.size();
  std::vector<size_t> ws(m);
  std::iota(ws.begin(), ws.end(), size_t{0});
  if (m <= kWholeSolveRatio * n) return ws;
  std::vector<double> value(m);
  for (size_t j = 0; j < m; ++j) {
    value[j] = value_at(gp.constraints[j], y0, z);
    // A NaN value orders as most violated (and keeps the order strict).
    if (std::isnan(value[j]))
      value[j] = std::numeric_limits<double>::infinity();
  }
  const size_t k = std::min(m, std::max(n, kMinSeed));
  std::partial_sort(ws.begin(), ws.begin() + static_cast<long>(k), ws.end(),
                    [&](size_t a, size_t b) {
                      return value[a] > value[b] ||
                             (value[a] == value[b] && a < b);
                    });
  ws.resize(k);
  std::sort(ws.begin(), ws.end());
  return ws;
}

/// Adds to `ws` every omitted constraint with lhs > kAddLhs at y (NaN
/// counts as above) and returns how many were added; `ws` stays ascending.
size_t grow_working_set(const CompiledGp& gp, const Vec& y,
                        std::vector<size_t>& ws, std::vector<double>& z) {
  const double add_above = std::log(kAddLhs);
  const size_t before = ws.size();
  size_t next = 0;  // cursor into the ascending set
  for (size_t j = 0; j < gp.constraints.size(); ++j) {
    if (next < before && ws[next] == j) {
      ++next;
      continue;
    }
    if (!(value_at(gp.constraints[j], y, z) <= add_above)) ws.push_back(j);
  }
  std::inplace_merge(ws.begin(), ws.begin() + static_cast<long>(before),
                     ws.end());
  return ws.size() - before;
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

/// Builds the result over the full GpProblem from the last round's point:
/// every constraint's lhs and slack, duals on the working set (omitted
/// constraints have dual 0), and the duality gap over the working set's
/// barrier terms.
GpResult finish(const GpProblem& problem, const CompiledGp& gp,
                SolveState& st, const std::vector<size_t>& ws, int rounds,
                RoundOutcome outcome) {
  const size_t n = gp.ylo.size();
  const bool optimal = outcome.status == SolveStatus::kOptimal;
  GpResult out;
  out.x.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double xi = std::exp(st.y[i]);
    if (!std::isfinite(xi)) xi = std::exp(0.5 * (gp.ylo[i] + gp.yhi[i]));
    out.x[i] = xi;
  }
  out.objective = problem.objective().eval(out.x);
  out.diag.trace = std::move(st.trace);
  out.diag.final_t = st.t_final;
  out.diag.duality_gap =
      st.t_final > 0.0
          ? (static_cast<double>(ws.size()) + 2.0 * static_cast<double>(n)) /
                st.t_final
          : -1.0;
  out.diag.working_set = ws;
  out.diag.ws_rounds = rounds;
  out.diag.constraints.reserve(problem.constraints().size());
  double viol = 0.0;
  size_t next = 0;  // cursor into the ascending working set
  for (size_t j = 0; j < problem.constraints().size(); ++j) {
    const bool in_ws = next < ws.size() && ws[next] == j;
    if (in_ws) ++next;
    const double v = problem.constraints()[j].lhs.eval(out.x) *
                     problem.scale(j);
    viol = std::max(viol, v - 1.0);
    ConstraintDiagnostics cd;
    cd.lhs = v;
    cd.slack = 1.0 - v;
    cd.log_slack =
        v > 0.0 ? -std::log(v) : std::numeric_limits<double>::infinity();
    if (optimal && in_ws && st.t_final > 0.0 && cd.log_slack > 0.0 &&
        std::isfinite(cd.log_slack))
      cd.dual = 1.0 / (st.t_final * cd.log_slack);
    if (optimal && v >= 1.0 - kBindingTol) out.diag.binding_set.push_back(j);
    out.diag.constraints.push_back(std::move(cd));
  }
  out.max_violation = viol;
  out.newton_iterations = st.newton;
  out.status = outcome.status;
  out.message = outcome.message;
  out.diagnostics = optimal ? Status::Ok()
                            : Status::Fail(reason_of(outcome.status),
                                           std::move(outcome.message));
  return out;
}

/// Per-solve telemetry: status/iteration counters, barrier stage count,
/// working-set size and rounds, and the final duality-gap estimate (< 0 =
/// never reached phase II). One relaxed atomic load when telemetry is
/// disabled.
void record_solve(obs::Span& span, const GpResult& result,
                  int barrier_stages) {
  auto& tel = obs::Telemetry::instance();
  if (!tel.enabled()) return;
  const double gap = result.diag.duality_gap;
  const auto ws = static_cast<double>(result.diag.working_set.size());
  tel.counter_add("gp.solve.calls");
  tel.counter_add(std::string("gp.solve.status.") + to_string(result.status));
  tel.hist_record("gp.solve.newton_iters", result.newton_iterations);
  tel.hist_record("gp.solve.barrier_stages", barrier_stages);
  tel.hist_record("gp.working_set", ws);
  tel.hist_record("gp.solve.ws_rounds", result.diag.ws_rounds);
  if (gap >= 0.0) tel.hist_record("gp.solve.duality_gap", gap);
  span.arg("newton_iters", result.newton_iterations);
  span.arg("barrier_stages", barrier_stages);
  span.arg("working_set", ws);
  span.arg("ws_rounds", result.diag.ws_rounds);
  if (gap >= 0.0) span.arg("duality_gap", gap);
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

  // Reject malformed data up front; the fallback point is finite by
  // construction so downstream consumers never see NaN widths.
  Status why =
      n == 0 ? Status::Fail(FailureReason::kInvalidInput, "GP has no variables")
      : problem.objective().is_zero()
          ? Status::Fail(FailureReason::kInvalidInput, "GP objective not set")
          : problem.status();
  CompiledGp gp{problem.compiled(), problem.compiled_objective(), Vec(n),
                Vec(n)};
  for (size_t i = 0; i < n && why.ok(); ++i) {
    const auto& info = vars.info(static_cast<posy::VarId>(i));
    if (!(info.lower > 0.0) || !std::isfinite(info.lower) ||
        !std::isfinite(info.upper) || info.upper < info.lower * (1 - 1e-12))
      why = Status::Fail(FailureReason::kInvalidInput,
                         "variable " + info.name +
                             " has empty or non-positive box");
    gp.ylo[i] = std::log(info.lower);
    gp.yhi[i] = std::log(std::max(info.upper, info.lower));
  }
  if (!why.ok()) {
    GpResult rejected =
        failed_result(problem,
                      why.reason == FailureReason::kNumericalError
                          ? SolveStatus::kNumericalError
                          : SolveStatus::kInvalidInput,
                      why.detail);
    record_solve(solve_span, rejected, 0);
    return rejected;
  }

  const Deadline deadline = Deadline::from_ms(options_.deadline_ms);

  // Initial point: warm start (clipped strictly inside the box) or the box
  // midpoint (geometric mean of the bounds).
  SolveState st;
  st.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double lo = gp.ylo[i], hi = gp.yhi[i];
    if (x0 != nullptr) {
      const double margin = 1e-3 * std::max(1.0, hi - lo);
      st.y[i] = std::clamp(std::log(std::max((*x0)[i], 1e-300)), lo + margin,
                           hi - margin);
      if (!std::isfinite(st.y[i])) st.y[i] = 0.5 * (lo + hi);
    } else {
      st.y[i] = 0.5 * (lo + hi);
    }
    if (hi - lo < 1e-12) st.y[i] = lo;  // effectively fixed var
  }

  // Working-set rounds. A relaxation's infeasibility is the full GP's; a
  // relaxation optimum at which every omitted constraint is strictly
  // slack (lhs <= kAddLhs) is feasible, hence optimal, for the full GP.
  // Each further round adds at least one constraint, so the loop ends. One
  // attempt per round: the log-domain program is convex, and transient
  // faults are handled a level up, by the sizer's degradation ladder.
  BarrierScratch scratch;
  std::vector<size_t> ws = seed_working_set(gp, st.y, scratch.p);
  int rounds = 0;
  RoundOutcome outcome;
  for (;;) {
    ++rounds;
    outcome = barrier_solve(gp, ws, x0 != nullptr || rounds > 1, options_,
                            deadline, scratch, st);
    if (outcome.status != SolveStatus::kOptimal ||
        grow_working_set(gp, st.y, ws, scratch.p) == 0)
      break;
  }
  GpResult result = finish(problem, gp, st, ws, rounds, std::move(outcome));
  record_solve(solve_span, result, st.stages);
  return result;
}

}  // namespace smart::gp
