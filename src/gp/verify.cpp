#include "gp/verify.h"

#include <cmath>
#include <vector>

#include "obs/obs.h"
#include "util/strfmt.h"

namespace smart::gp {

namespace {

using lint::Report;
using lint::Severity;
using util::strfmt;

/// Sign/usage summary of one variable across the whole exponent matrix.
struct VarUse {
  bool used = false;          ///< appears anywhere
  bool in_objective = false;  ///< appears in the objective
  bool obj_all_negative = true;   ///< every objective exponent < 0
  bool positive_anywhere = false; ///< any exponent > 0, obj or constraint
};

/// GPV101 over one posynomial; also accumulates variable usage. Returns
/// false when the posynomial contains non-finite data (so interval
/// analysis on it would be garbage).
bool check_terms(const posy::Posynomial& p, const std::string& where,
                 const std::function<std::string()>& note, bool is_objective,
                 const std::string& name, std::vector<VarUse>& use,
                 Report& rep) {
  bool finite = true;
  for (const auto& t : p.terms()) {
    if (!std::isfinite(t.coeff())) {
      rep.add("GPV101", Severity::kError, name, where,
              strfmt("non-finite coefficient %g", t.coeff()) + note());
      finite = false;
    } else if (!(t.coeff() > 0.0)) {
      rep.add("GPV101", Severity::kError, name, where,
              strfmt("non-positive coefficient %g", t.coeff()) + note());
    }
    for (const auto& fac : t.factors()) {
      if (!std::isfinite(fac.exp)) {
        rep.add("GPV101", Severity::kError, name, where,
                "non-finite exponent" + note());
        finite = false;
        continue;
      }
      if (fac.var < 0 || static_cast<size_t>(fac.var) >= use.size()) continue;
      auto& u = use[static_cast<size_t>(fac.var)];
      u.used = true;
      if (fac.exp > 0.0) u.positive_anywhere = true;
      if (is_objective) {
        u.in_objective = true;
        if (fac.exp >= 0.0) u.obj_all_negative = false;
      }
    }
  }
  return finite;
}

/// Smallest value the posynomial can take inside the variable box, by
/// interval analysis in the log domain (each monomial is monotone in every
/// variable, so its minimum is at a box corner). Requires finite data and
/// valid boxes.
double interval_min(const posy::Posynomial& p, const posy::VarTable& vars) {
  double total = 0.0;
  for (const auto& t : p.terms()) {
    double log_min = std::log(t.coeff());
    for (const auto& fac : t.factors()) {
      const auto& info = vars.info(fac.var);
      const double bound = fac.exp > 0.0 ? info.lower : info.upper;
      log_min += fac.exp * std::log(bound);
    }
    // Past exp-overflow territory the sum is infeasible regardless.
    if (log_min > 690.0) return HUGE_VAL;
    total += std::exp(log_min);
  }
  return total;
}

}  // namespace

lint::Report verify_problem(const GpProblem& problem,
                            const lint::Options& options,
                            const std::string& name,
                            const std::function<std::string(size_t)>& note) {
  Report rep(options);
  const auto note_of = [&](size_t c) {
    return note ? note(c) : std::string();
  };
  const posy::VarTable& vars = problem.vars();

  if (vars.size() == 0)
    rep.add("GPV100", Severity::kError, name, "problem",
            "problem has no variables");
  if (problem.objective().is_zero())
    rep.add("GPV100", Severity::kError, name, "objective",
            "objective not set");

  // GPV105: the solver works in log(x); an empty or non-positive box has
  // no log image.
  bool boxes_ok = true;
  for (size_t i = 0; i < vars.size(); ++i) {
    const auto& info = vars.info(static_cast<posy::VarId>(i));
    if (info.lower > 0.0 && std::isfinite(info.lower) &&
        std::isfinite(info.upper) && info.upper >= info.lower * (1 - 1e-12))
      continue;
    rep.add("GPV105", Severity::kError, name, info.name,
            strfmt("variable box [%g, %g] is empty or non-positive",
                   info.lower, info.upper));
    boxes_ok = false;
  }

  std::vector<VarUse> use(vars.size());
  bool obj_finite = check_terms(
      problem.objective(), "objective", [] { return std::string(); }, true,
      name, use, rep);
  (void)obj_finite;
  std::vector<char> con_finite(problem.constraints().size(), 1);
  for (size_t c = 0; c < problem.constraints().size(); ++c) {
    const auto& con = problem.constraints()[c];
    con_finite[c] = check_terms(
                        con.lhs, "constraint " + con.tag,
                        [&] { return note_of(c); }, false, name, use, rep)
                        ? 1
                        : 0;
  }

  for (size_t i = 0; i < vars.size(); ++i) {
    const auto& u = use[i];
    const auto& info = vars.info(static_cast<posy::VarId>(i));
    // GPV102: the objective strictly decreases as this variable grows and
    // nothing in the constraint matrix grows with it — a certificate that
    // the GP is unbounded below (the box upper bound is the only thing the
    // solver can rail against).
    if (u.in_objective && u.obj_all_negative && !u.positive_anywhere) {
      rep.add("GPV102", Severity::kError, name, info.name,
              "objective decreases without bound in this variable; no "
              "constraint bounds it from above");
    }
    // GPV103: a registered variable no term mentions — usually a label
    // mapping bug upstream.
    if (!u.used) {
      rep.add("GPV103", Severity::kWarn, name, info.name,
              "variable appears in no objective or constraint term");
    }
  }

  // GPV104: a constraint whose smallest achievable lhs already exceeds 1
  // is a certificate of infeasibility — phase I would grind to the same
  // answer the hard way.
  if (boxes_ok) {
    for (size_t c = 0; c < problem.constraints().size(); ++c) {
      if (!con_finite[c]) continue;
      const auto& con = problem.constraints()[c];
      const double lo = interval_min(con.lhs, vars) * problem.scale(c);
      if (lo > 1.0 + 1e-9) {
        rep.add("GPV104", Severity::kError, name, "constraint " + con.tag,
                strfmt("lhs >= %.4g everywhere in the variable box", lo) +
                    note_of(c));
      }
    }
  }

  auto& tel = obs::Telemetry::instance();
  if (tel.enabled()) {
    if (rep.errors() > 0)
      tel.counter_add("lint.findings.error",
                      static_cast<double>(rep.errors()));
    if (rep.warnings() > 0)
      tel.counter_add("lint.findings.warn",
                      static_cast<double>(rep.warnings()));
  }
  return rep;
}

util::Status verify_status(const lint::Report& report) {
  using util::FailureReason;
  if (report.errors() == 0) return util::Status::Ok();
  bool non_finite = false;
  bool infeasible = false;
  for (const auto& f : report.findings()) {
    if (f.severity != lint::Severity::kError) continue;
    if (f.rule == "GPV101" && f.message.rfind("non-finite", 0) == 0)
      non_finite = true;
    if (f.rule == "GPV104") infeasible = true;
  }
  const auto* first = report.first(lint::Severity::kError);
  const std::string detail =
      first->rule + " " + first->location + ": " + first->message;
  if (non_finite)
    return util::Status::Fail(FailureReason::kNumericalError, detail);
  if (infeasible)
    return util::Status::Fail(FailureReason::kInfeasible, detail);
  return util::Status::Fail(FailureReason::kInvalidInput, detail);
}

}  // namespace smart::gp
