// Robustness tests for the resilient sizing pipeline: the fault injector
// itself, the GP solver's never-throw/never-NaN contract on degenerate and
// poisoned problems, the sizer's degradation ladder, and the acceptance
// sweep — the advisor must complete a full mux topology sweep under every
// fault class, reporting poisoned candidates with a concrete FailureReason
// while un-poisoned candidates size identically to the fault-free run.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "core/advisor.h"
#include "gp/solver.h"
#include "helpers.h"
#include "models/fitter.h"
#include "par/par.h"
#include "util/fault.h"

namespace smart {
namespace {

using core::AdvisorRequest;
using core::DesignAdvisor;
using core::Sizer;
using core::SizerOptions;
using core::SizingRung;
using gp::GpProblem;
using gp::GpResult;
using gp::GpSolver;
using gp::SolveStatus;
using posy::Monomial;
using posy::Posynomial;
using posy::VarId;
using posy::VarTable;
using util::FailureReason;
using util::FaultClass;
using util::FaultInjector;
using util::FaultScope;

// util::Vec and netlist::Sizing are both std::vector<double>.
void expect_finite(const std::vector<double>& x) {
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// FaultInjector mechanics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedPassesValuesThrough) {
  FaultInjector::instance().disarm();
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelNonFinite, "model.coeff",
                                3.25),
            3.25);
  EXPECT_FALSE(util::fault_fires(FaultClass::kSolverExhaustIters,
                                 "gp.newton"));
}

TEST(FaultInjectorTest, SiteFilterSkipHitsAndFireBudget) {
  auto& fi = FaultInjector::instance();
  fi.arm(FaultClass::kModelCoeffPerturb, "model.coeff", /*magnitude=*/2.0,
         /*skip_hits=*/1, /*max_fires=*/2);
  // Non-matching site: passes through, no hit counted.
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb, "gp.newton",
                                1.0),
            1.0);
  EXPECT_EQ(fi.hits(), 0);
  // First matching hit is skipped, the next two fire, then the budget is
  // spent and later hits pass through untouched.
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            1.0);
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            2.0);
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            2.0);
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            1.0);
  EXPECT_EQ(fi.hits(), 4);
  EXPECT_EQ(fi.fired(), 2);
  fi.disarm();
  EXPECT_EQ(util::fault_corrupt(FaultClass::kModelCoeffPerturb,
                                "model.coeff.a_rc", 1.0),
            1.0);
}

TEST(FaultInjectorTest, NonFiniteClassesPoisonWithNaN) {
  FaultScope scope(FaultClass::kTimerNonFinite);
  EXPECT_TRUE(std::isnan(
      util::fault_corrupt(FaultClass::kTimerNonFinite, "refsim.delay", 5.0)));
}

// ---------------------------------------------------------------------------
// GpSolver guardrails: degenerate problems come back as structured
// failures with finite fallback points — never an exception, never NaN.
// ---------------------------------------------------------------------------

GpProblem simple_problem(VarTable& vars) {
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)),
                   "x>=3");
  return p;
}

TEST(GpResilienceTest, MissingObjectiveIsInvalidInput) {
  VarTable vars;
  vars.add("x", 0.5, 2.0);
  GpProblem p(vars);
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kInvalidInput);
  ASSERT_EQ(r.x.size(), 1u);
  expect_finite(r.x);
}

TEST(GpResilienceTest, NonFiniteExponentIsNumericalError) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  p.add_constraint(Posynomial(Monomial(0.5) * Monomial::variable(x, nan)),
                   "poisoned");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kNumericalError);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kNumericalError);
  expect_finite(r.x);
}

TEST(GpResilienceTest, InfeasibleCarriesDiagnosticsAndFinitePoint) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x)),
                   "x<=0.5");
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kInfeasible);
  EXPECT_FALSE(r.diagnostics.detail.empty());
  expect_finite(r.x);
}

TEST(GpResilienceTest, ExpiredDeadlineReturnsTimeout) {
  VarTable vars;
  GpProblem p = simple_problem(vars);
  gp::SolverOptions opt;
  opt.deadline_ms = 0.0;  // already expired when solve starts
  const GpResult r = GpSolver(opt).solve(p);
  EXPECT_EQ(r.status, SolveStatus::kTimeout);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kTimeout);
  expect_finite(r.x);
}

TEST(GpResilienceTest, ForcedIterationExhaustionIsMaxIter) {
  // Unconstrained problem: phase I is skipped, so the forced exhaustion in
  // phase II surfaces as kMaxIter rather than a phase I infeasibility.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  FaultScope scope(FaultClass::kSolverExhaustIters, "gp.newton");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kMaxIter);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kMaxIter);
  expect_finite(r.x);
}

TEST(GpResilienceTest, NonFiniteNewtonValueIsNumericalError) {
  VarTable vars;
  GpProblem p = simple_problem(vars);
  FaultScope scope(FaultClass::kSolverNonFinite, "gp.newton.phi");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kNumericalError);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kNumericalError);
  expect_finite(r.x);
}

TEST(GpResilienceTest, TransientFaultFailsTheSingleAttempt) {
  // Poison exactly the first Newton evaluation. The solver makes one
  // attempt per solve, so it reports the numerical error (with a finite
  // point) instead of retrying; recovery is the sizer ladder's job.
  VarTable vars;
  GpProblem p = simple_problem(vars);
  FaultScope scope(FaultClass::kSolverNonFinite, "gp.newton.phi",
                   /*magnitude=*/10.0, /*skip_hits=*/0, /*max_fires=*/1);
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kNumericalError);
  EXPECT_EQ(r.diagnostics.reason, FailureReason::kNumericalError);
  EXPECT_EQ(r.attempts, 1);
  expect_finite(r.x);
}

// ---------------------------------------------------------------------------
// Sizer degradation ladder
// ---------------------------------------------------------------------------

class SizerResilienceTest : public ::testing::Test {
 protected:
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
  Sizer sizer_{tech_, lib_};
  netlist::Netlist nl_ = test::inverter_chain(3, 30.0);

  SizerOptions options() const {
    SizerOptions opt;
    opt.delay_spec_ps = 150.0;
    return opt;
  }
};

TEST_F(SizerResilienceTest, TransientModelPoisonDegradesToRelaxedGp) {
  // One poisoned coefficient kills the rung-1 constraint generation, and
  // one non-finite Newton value kills the rung-1 solve (the GP solver does
  // not retry). Either way the rung-2 relaxed retry runs clean and still
  // optimizes.
  const struct {
    FaultClass fault;
    const char* site;
  } transients[] = {
      {FaultClass::kModelNonFinite, "model.coeff"},
      {FaultClass::kSolverNonFinite, "gp.newton.phi"},
  };
  for (const auto& [fault, site] : transients) {
    SCOPED_TRACE(site);
    FaultScope scope(fault, site, /*magnitude=*/10.0, /*skip_hits=*/0,
                     /*max_fires=*/1);
    const auto res = sizer_.size(nl_, options());
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_EQ(res.rung, SizingRung::kGpRelaxed);
    EXPECT_NE(res.message.find("relaxed"), std::string::npos);
    expect_finite(res.sizing);
  }
}

TEST_F(SizerResilienceTest, PersistentModelPoisonFallsBackToBaseline) {
  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff");
  const auto res = sizer_.size(nl_, options());
  ASSERT_TRUE(res.ok) << res.message;
  EXPECT_EQ(res.rung, SizingRung::kBaseline);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  EXPECT_NE(res.message.find("baseline"), std::string::npos);
  expect_finite(res.sizing);
  EXPECT_TRUE(std::isfinite(res.measured_delay_ps));
}

TEST_F(SizerResilienceTest, LadderDisabledReportsStructuredFailure) {
  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff");
  SizerOptions opt = options();
  opt.allow_relaxed_retry = false;
  opt.allow_baseline_fallback = false;
  const auto res = sizer_.size(nl_, opt);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  EXPECT_FALSE(res.status.detail.empty());
}

TEST_F(SizerResilienceTest, PoisonedTimerNeverThrowsOrReturnsNaN) {
  // With the reference timer poisoned even the baseline fallback cannot be
  // verified; the sizer must fail with a structured reason, not throw.
  FaultScope scope(FaultClass::kTimerNonFinite, "refsim.delay");
  const auto res = sizer_.size(nl_, options());
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  expect_finite(res.sizing);
}

TEST_F(SizerResilienceTest, SolverPoisonFallsBackToBaseline) {
  FaultScope scope(FaultClass::kSolverNonFinite, "gp.newton.phi");
  const auto res = sizer_.size(nl_, options());
  ASSERT_TRUE(res.ok) << res.message;
  EXPECT_EQ(res.rung, SizingRung::kBaseline);
  EXPECT_EQ(res.status.reason, FailureReason::kNumericalError);
  expect_finite(res.sizing);
}

// ---------------------------------------------------------------------------
// Acceptance sweep: the advisor completes a full mux topology sweep under
// every fault class.
// ---------------------------------------------------------------------------

class AdvisorResilienceTest : public ::testing::Test {
 protected:
  // One pool thread: the candidates are sized in order on the calling
  // thread, so each fault class hits the same sites every run.
  void SetUp() override { par::set_thread_count(1); }
  void TearDown() override { par::set_thread_count(saved_threads_); }

  const int saved_threads_ = par::thread_count();
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
  DesignAdvisor advisor_{macros::builtin_database(), tech_, lib_};

  AdvisorRequest request() const {
    AdvisorRequest req;
    req.spec.type = "mux";
    req.spec.n = 4;
    req.spec.params["bits"] = 4;
    req.spec.load_ff = 12.0;
    req.delay_spec_ps = 200.0;  // explicit: keep spec derivation off the
                                // fault-injected paths
    return req;
  }

  size_t applicable_count() const {
    const auto req = request();
    return macros::builtin_database().topologies("mux", &req.spec).size();
  }
};

TEST_F(AdvisorResilienceTest, SweepCompletesUnderEveryFaultClass) {
  const FaultClass classes[] = {
      FaultClass::kModelCoeffPerturb, FaultClass::kModelNonFinite,
      FaultClass::kSolverNonFinite,   FaultClass::kSolverExhaustIters,
      FaultClass::kTimerPerturb,      FaultClass::kTimerNonFinite,
  };
  const size_t total = applicable_count();
  ASSERT_GE(total, 2u);
  for (const FaultClass fault : classes) {
    SCOPED_TRACE(util::to_string(fault));
    FaultScope scope(fault);
    const auto advice = advisor_.advise(request());
    // Every applicable topology is accounted for: ranked or reported.
    EXPECT_EQ(advice.solutions.size() + advice.failures.size(), total);
    for (const auto& fail : advice.failures) {
      EXPECT_NE(fail.status.reason, FailureReason::kNone)
          << fail.topology << ": " << fail.message;
      EXPECT_FALSE(fail.topology.empty());
      // Failed candidates carry their wall time too — a sweep report must
      // show where the time went even when a candidate died early.
      EXPECT_GT(fail.wall_ms, 0.0) << fail.topology;
    }
    for (const auto& sol : advice.solutions) {
      expect_finite(sol.sizing.sizing);
      EXPECT_TRUE(std::isfinite(sol.cost_value));
    }
  }
  // NaN fault classes must actually surface failures, not silently rank
  // poisoned candidates.
  {
    FaultScope scope(FaultClass::kModelNonFinite);
    const auto advice = advisor_.advise(request());
    EXPECT_EQ(advice.failures.size(), total);
    for (const auto& fail : advice.failures)
      EXPECT_EQ(fail.status.reason, FailureReason::kNumericalError);
  }
  {
    FaultScope scope(FaultClass::kTimerNonFinite);
    const auto advice = advisor_.advise(request());
    EXPECT_EQ(advice.failures.size(), total);
    EXPECT_TRUE(advice.solutions.empty());
  }
}

TEST_F(AdvisorResilienceTest, UnpoisonedCandidatesMatchFaultFreeSizing) {
  // Poison only the first candidate (single fire, ladder shortened to the
  // baseline fallback): it must land in failures with a concrete reason
  // while every other topology sizes exactly as in the fault-free sweep.
  AdvisorRequest req = request();
  req.sizer.allow_relaxed_retry = false;

  const auto clean = advisor_.advise(req);
  ASSERT_GE(clean.solutions.size(), 2u) << clean.message;
  EXPECT_TRUE(clean.failures.empty());
  std::map<std::string, double> clean_width;
  for (const auto& sol : clean.solutions)
    clean_width[sol.topology] = sol.sizing.total_width_um;

  FaultScope scope(FaultClass::kModelNonFinite, "model.coeff",
                   /*magnitude=*/10.0, /*skip_hits=*/0, /*max_fires=*/1);
  const auto faulted = advisor_.advise(req);
  ASSERT_EQ(faulted.failures.size(), 1u) << faulted.message;
  const auto& fail = faulted.failures.front();
  EXPECT_EQ(fail.status.reason, FailureReason::kNumericalError);
  EXPECT_EQ(fail.rung, SizingRung::kBaseline);
  EXPECT_GT(fail.wall_ms, 0.0);
  EXPECT_EQ(faulted.solutions.size(), clean.solutions.size() - 1u);
  for (const auto& sol : faulted.solutions) {
    ASSERT_NE(sol.topology, fail.topology);
    const auto it = clean_width.find(sol.topology);
    ASSERT_NE(it, clean_width.end()) << sol.topology;
    EXPECT_NEAR(sol.sizing.total_width_um, it->second,
                1e-6 * it->second + 1e-9)
        << sol.topology;
  }
}

}  // namespace
}  // namespace smart
