#include "gp/problem.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/check.h"

namespace smart::gp {
namespace {

using util::FailureReason;
using util::Status;

/// Compiles a posynomial into the log domain over the global variables.
/// Its first term a solve cannot use (non-finite data, a non-positive
/// coefficient) fails `status`, if still ok, naming `what` + `tag`.
LogPosy compile(const posy::Posynomial& p, double offset, const char* what,
                const std::string& tag, Status& status) {
  LogPosy f;
  f.offset = offset;
  std::vector<uint32_t>& support = f.support;
  for (const auto& t : p.terms())
    for (const auto& fac : t.factors())
      support.push_back(static_cast<uint32_t>(fac.var));
  f.logc.reserve(p.num_terms());
  f.ends.reserve(p.num_terms());
  f.factors.reserve(support.size());  // one entry per factor, until unique
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  support.shrink_to_fit();
  auto local = [&](int var) {
    return static_cast<uint32_t>(
        std::lower_bound(support.begin(), support.end(),
                         static_cast<uint32_t>(var)) -
        support.begin());
  };
  for (const auto& t : p.terms()) {
    f.logc.push_back(std::log(t.coeff()));
    bool finite = std::isfinite(t.coeff());
    for (const auto& fac : t.factors()) {
      f.factors.emplace_back(local(fac.var), fac.exp);
      finite = finite && std::isfinite(fac.exp);
    }
    f.ends.push_back(static_cast<uint32_t>(f.factors.size()));
    if (status.ok() && !finite)
      status = Status::Fail(FailureReason::kNumericalError,
                            std::string("non-finite coefficient or exponent "
                                        "in ") + what + tag);
    else if (status.ok() && !(t.coeff() > 0.0))
      status = Status::Fail(FailureReason::kInvalidInput,
                            std::string("non-positive coefficient in ") +
                                what + tag);
  }
  auto& tel = obs::Telemetry::instance();
  if (tel.enabled()) tel.counter_add("gp.compile.rows");
  return f;
}

}  // namespace

void GpProblem::set_objective(posy::Posynomial objective) {
  SMART_CHECK(!objective.is_zero(), "GP objective must be nonzero");
  objective_ = std::move(objective);
  compiled_objective_ = compile(objective_, 0.0, "objective", {}, status_);
  // Conditioning guardrail: shift the log-coefficients so the largest term
  // has logc 0 (scaling the objective by a positive constant, which moves
  // no argmin). Keeps t * f0 tame when cost coefficients are huge (e.g.
  // power objectives in fF*V^2 units).
  double logc_max = -std::numeric_limits<double>::infinity();
  for (const double logc : compiled_objective_.logc)
    logc_max = std::max(logc_max, logc);
  if (std::fabs(logc_max) > 30.0)
    for (double& logc : compiled_objective_.logc) logc -= logc_max;
}

void GpProblem::add_constraint(posy::Posynomial lhs, std::string tag) {
  // 0 <= 1 and c <= 1 hold everywhere.
  if (lhs.is_constant() && lhs.constant_value() <= 1.0 + 1e-12) return;
  add_row(std::move(lhs), std::move(tag), 0.0);
}

void GpProblem::add_le(const posy::Posynomial& lhs, const posy::Monomial& rhs,
                       std::string tag) {
  SMART_CHECK(rhs.coeff() > 0.0, "rhs monomial must be positive");
  add_constraint(lhs * rhs.inverse(), std::move(tag));
}

size_t GpProblem::add_row(posy::Posynomial lhs, std::string tag,
                          double offset) {
  SMART_CHECK(!lhs.is_zero(), "a GP row needs a nonzero lhs");
  SMART_CHECK(std::isfinite(offset), "row offset must be finite");
  compiled_.push_back(compile(lhs, offset, "constraint ", tag, status_));
  constraints_.push_back(Constraint{std::move(lhs), std::move(tag)});
  return constraints_.size() - 1;
}

void GpProblem::set_offset(size_t j, double offset) {
  SMART_CHECK(std::isfinite(offset), "row offset must be finite");
  compiled_.at(j).offset = offset;
}

}  // namespace smart::gp
