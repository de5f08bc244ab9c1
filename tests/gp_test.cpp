// Tests for the geometric-program solver: analytic optima, infeasibility
// detection, box bounds, randomized feasible-by-construction problems, and
// the working-set rounds and their certificate.

#include <gtest/gtest.h>

#include <cmath>

#include "gp/solver.h"
#include "gp/verify.h"
#include "obs/obs.h"
#include "helpers.h"
#include "util/rng.h"
#include "util/strfmt.h"

namespace smart::gp {
namespace {

using posy::Monomial;
using posy::Posynomial;
using posy::VarId;
using posy::VarTable;

TEST(GpProblemTest, DropsTrivialAndRejectsImpossibleConstants) {
  VarTable vars;
  const VarId x = vars.add("x");
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(0.5), "ok");
  EXPECT_TRUE(p.constraints().empty());
  // An impossible constant is a row, which GPV104 and the solve both
  // report infeasible.
  p.add_constraint(Posynomial(2.0), "bad");
  ASSERT_EQ(p.constraints().size(), 1u);
  EXPECT_EQ(verify_status(verify_problem(p)).reason,
            util::FailureReason::kInfeasible);
  EXPECT_EQ(GpSolver().solve(p).status, SolveStatus::kInfeasible);
}

TEST(GpProblemTest, RowsAreCompiledOncePerAddNotPerSolve) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  auto& tel = obs::Telemetry::instance();
  tel.reset();
  tel.enable(true);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + Posynomial::variable(y));
  p.add_constraint(
      Posynomial(Monomial::variable(x, -1) * Monomial::variable(y, -1)),
      "xy>=1");
  p.add_row(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)), "x>=3",
            -std::log(2.0));
  const double compiled = tel.counter("gp.compile.rows");
  // Two solves and an offset write compile nothing more.
  const GpResult a = GpSolver().solve(p);
  p.set_offset(1, -std::log(3.0));
  const GpResult b = GpSolver().solve_from(p, a.x);
  tel.enable(false);
  EXPECT_EQ(compiled, 3.0);  // the objective and two rows
  EXPECT_EQ(tel.counter("gp.compile.rows"), compiled);
  ASSERT_TRUE(a.ok()) << a.message;
  ASSERT_TRUE(b.ok()) << b.message;
  EXPECT_NEAR(a.x[0], 1.5, 1e-3);
  EXPECT_NEAR(b.x[0], 1.0, 1e-3);
}

TEST(GpSolverTest, AnalyticOptimum) {
  // min x + 2y s.t. xy >= 1: optimum x = sqrt(2), y = 1/sqrt(2).
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + 2.0 * Posynomial::variable(y));
  p.add_constraint(
      Posynomial(Monomial::variable(x, -1) * Monomial::variable(y, -1)),
      "xy>=1");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.objective, 2.0 * std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(r.x[0], std::sqrt(2.0), 1e-2);
  EXPECT_NEAR(r.x[1], 1.0 / std::sqrt(2.0), 1e-2);
  EXPECT_LE(r.max_violation, 1e-6);
}

TEST(GpSolverTest, UnconstrainedGoesToLowerBounds) {
  VarTable vars;
  const VarId x = vars.add("x", 0.25, 8.0);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 0.25, 0.02);
}

TEST(GpSolverTest, DetectsInfeasible) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + Posynomial::variable(y));
  // x <= 0.5 and x >= 2 simultaneously.
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x)),
                   "x<=0.5");
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(GpSolverTest, BoundsInfeasibilityViaConstraint) {
  VarTable vars;
  const VarId x = vars.add("x", 1.0, 2.0);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  // Requires x >= 5 but the box caps x at 2.
  p.add_constraint(Posynomial(Monomial(5.0) * Monomial::variable(x, -1)),
                   "x>=5");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(GpSolverTest, PhaseOneStopsOnceInfeasibilityIsCertified) {
  // x0 >= 1 and x_i >= 1.5 x_(i-1) force x11 >= 1.5^11 ~ 86.5, against
  // x11 <= 50. Phase I stops at the first centered point whose s exceeds
  // twice its barrier gap: 38 Newton iterations, where running on until the
  // gap falls under the tolerance took 58.
  VarTable vars;
  std::vector<VarId> x;
  for (int i = 0; i < 12; ++i)
    x.push_back(vars.add(util::strfmt("x%d", i), 1e-2, 1e4));
  GpProblem p(vars);
  Posynomial cost;
  for (const VarId v : x) cost += Posynomial::variable(v);
  p.set_objective(cost);
  p.add_constraint(Posynomial::variable(x[0], -1.0), "x0>=1");
  for (size_t i = 1; i < x.size(); ++i)
    p.add_constraint(Posynomial(Monomial(1.5) * Monomial::variable(x[i - 1]) *
                                Monomial::variable(x[i], -1.0)),
                     util::strfmt("grow%zu", i));
  p.add_constraint(Posynomial(Monomial(1.0 / 50.0) * Monomial::variable(x[11])),
                   "x11<=50");
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_LE(r.newton_iterations, 45);
  ASSERT_FALSE(r.diag.trace.empty());
  const StageTrace& last = r.diag.trace.back();
  EXPECT_TRUE(last.phase1);
  // Stopped before the barrier gap closed (13 / t < tolerance).
  EXPECT_LT(last.t, 13.0 / SolverOptions().tolerance);
}

TEST(GpSolverTest, BarelyFeasibleGpStillSolves) {
  // 0.4999 <= x <= 0.5: phase I's least s is just below 0, so no
  // certificate of infeasibility may fire.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x)),
                   "x<=0.5");
  p.add_constraint(
      Posynomial(Monomial(0.4999) * Monomial::variable(x, -1.0)),
      "x>=0.4999");
  const GpResult r = GpSolver().solve(p);
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << r.message;
  EXPECT_GE(r.x[0], 0.4999 * (1 - 1e-9));
  EXPECT_LE(r.x[0], 0.5 * (1 + 1e-9));
}

TEST(GpSolverTest, EqualityPinnedOptimum) {
  // min x s.t. 3/x <= 1: optimum exactly at the constraint, x = 3.
  VarTable vars;
  const VarId x = vars.add("x", 1e-2, 1e4);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)),
                   "x>=3");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 3.0, 1e-2);
}

TEST(GpSolverTest, MultiTermConstraint) {
  // min x + y s.t. 1/x + 1/y <= 1 -> x = y = 2 by symmetry.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + Posynomial::variable(y));
  p.add_constraint(Posynomial::variable(x, -1.0) +
                       Posynomial::variable(y, -1.0),
                   "harmonic");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 2.0, 2e-2);
  EXPECT_NEAR(r.x[1], 2.0, 2e-2);
}

TEST(GpSolverTest, AddLeNormalizes) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  // x >= 4 expressed as 4 <= x.
  p.add_le(Posynomial(4.0), Monomial::variable(x), "4<=x");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.x[0], 4.0, 4e-2);
}

// Property: random GPs constructed around a known strictly feasible point
// must solve, satisfy all constraints, and beat (or match) that point.
TEST(GpSolverProperty, RandomFeasibleProblems) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.uniform_int(2, 5);
    VarTable vars;
    std::vector<VarId> ids;
    for (int i = 0; i < n; ++i)
      ids.push_back(vars.add(util::strfmt("v%d", i), 1e-3, 1e3));
    util::Vec feasible(static_cast<size_t>(n));
    for (auto& v : feasible) v = rng.uniform(0.5, 5.0);

    GpProblem p(vars);
    Posynomial obj;
    for (int i = 0; i < n; ++i)
      obj += Monomial(rng.uniform(0.5, 2.0)) * Monomial::variable(ids[static_cast<size_t>(i)]);
    p.set_objective(obj);

    const int m = rng.uniform_int(1, 5);
    for (int c = 0; c < m; ++c) {
      Posynomial lhs;
      const int terms = rng.uniform_int(1, 3);
      for (int t = 0; t < terms; ++t) {
        Monomial mono(rng.uniform(0.1, 2.0));
        for (int i = 0; i < n; ++i)
          mono.mul_var(ids[static_cast<size_t>(i)],
                       static_cast<double>(rng.uniform_int(-2, 2)));
        lhs += mono;
      }
      if (lhs.is_zero() || lhs.is_constant()) continue;
      // Scale so the feasible point satisfies lhs <= 1 with 20% slack.
      const double at = lhs.eval(feasible);
      lhs *= 0.8 / at;
      p.add_constraint(lhs, util::strfmt("c%d", c));
    }

    const GpResult r = GpSolver().solve(p);
    ASSERT_TRUE(r.ok()) << "trial " << trial << ": " << r.message;
    EXPECT_LE(r.max_violation, 1e-5) << "trial " << trial;
    EXPECT_LE(r.objective, obj.eval(feasible) * (1.0 + 1e-6))
        << "trial " << trial;
  }
}

TEST(GpSolverTest, OffsetMovedSolveEqualsANormalizedBuild) {
  // Rows kept raw, as a timing row keeps its delay in ps, and moved to
  // their limits by an offset write solve like the same GP built with
  // every row divided by its limit. 40 rows over 6 variables take the
  // working-set path.
  constexpr int kVars = 6;
  constexpr int kRows = 40;
  util::Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    VarTable vars;
    for (int i = 0; i < kVars; ++i)
      vars.add(util::strfmt("v%d", i), 1e-3, 1e3);
    util::Vec feasible(kVars);
    for (auto& v : feasible) v = rng.uniform(0.5, 5.0);
    GpProblem moved(vars), normalized(vars);
    Posynomial obj;
    for (int i = 0; i < kVars; ++i)
      obj += Monomial(rng.uniform(0.5, 2.0)) * Monomial::variable(i);
    moved.set_objective(obj);
    normalized.set_objective(obj);
    for (int c = 0; c < kRows; ++c) {
      Posynomial lhs;
      for (int t = rng.uniform_int(1, 3); t > 0; --t) {
        Monomial mono(rng.uniform(10.0, 200.0));
        for (int i = 0; i < kVars; ++i)
          mono.mul_var(i, static_cast<double>(rng.uniform_int(-2, 1)));
        lhs += mono;
      }
      if (lhs.is_zero() || lhs.is_constant()) continue;
      const double limit = lhs.eval(feasible) / rng.uniform(0.1, 1.0);
      const std::string tag = util::strfmt("c%d", c);
      // Built at twice the limit, then moved to it.
      moved.set_offset(moved.add_row(lhs, tag, -std::log(2.0 * limit)),
                       -std::log(limit));
      normalized.add_constraint(lhs * (1.0 / limit), tag);
    }
    ASSERT_EQ(moved.constraints().size(), normalized.constraints().size());
    ASSERT_GT(moved.constraints().size(), 4u * kVars);
    const GpResult a = GpSolver().solve(moved);
    const GpResult b = GpSolver().solve(normalized);
    ASSERT_TRUE(b.ok()) << "trial " << trial << ": " << b.message;
    ASSERT_EQ(a.status, b.status) << "trial " << trial << ": " << a.message;
    EXPECT_EQ(a.newton_iterations, b.newton_iterations) << "trial " << trial;
    EXPECT_EQ(a.diag.working_set, b.diag.working_set) << "trial " << trial;
    EXPECT_EQ(a.diag.binding_set, b.diag.binding_set) << "trial " << trial;
    for (size_t i = 0; i < a.x.size(); ++i)
      EXPECT_NEAR(a.x[i], b.x[i], 1e-9 * b.x[i]) << "trial " << trial;
    EXPECT_NEAR(a.objective, b.objective, 1e-9 * b.objective);
  }
}

TEST(GpSolverTest, WarmStartFromOptimumIsCheap) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + 2.0 * Posynomial::variable(y));
  p.add_constraint(
      Posynomial(Monomial::variable(x, -1) * Monomial::variable(y, -1)),
      "xy>=1");
  const GpResult cold = GpSolver().solve(p);
  ASSERT_TRUE(cold.ok());
  const GpResult warm = GpSolver().solve_from(p, cold.x);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-4 * cold.objective);
  // Starting at the optimum can never cost more Newton steps than the
  // cold solve (it skips phase I and all centering line searches accept
  // immediately).
  EXPECT_LE(warm.newton_iterations, cold.newton_iterations);
}

TEST(GpSolverTest, WarmStartFromInfeasiblePointRecovers) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(3.0) * Monomial::variable(x, -1)),
                   "x>=3");
  const GpResult r = GpSolver().solve_from(p, {0.01});  // violates x>=3
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 3.0, 0.05);
}

TEST(GpSolverTest, WarmStartRejectsWrongSize) {
  VarTable vars;
  vars.add("x");
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(0));
  // The solver never throws: a malformed call comes back as a structured
  // kInvalidInput result with a finite fallback point.
  const auto r = GpSolver().solve_from(p, {1.0, 2.0});
  EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(r.diagnostics.reason, util::FailureReason::kInvalidInput);
  ASSERT_EQ(r.x.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.x[0]));
}

TEST(GpSolverTest, ReportsNewtonIterations) {
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(x, -1)),
                   "x>=2");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.newton_iterations, 0);
}

// A one-variable GP with m > 4n constraints whose start point (the box
// midpoint, x = 10) ranks twelve loose upper bounds c_i x <= 1 above
// `hidden_lower` (x >= hidden_lower reads 0.2 there), so the first working
// set omits it. `extra` adds further constraints.
GpProblem hidden_constraint_problem(const VarTable& vars, Posynomial extra) {
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(0));
  for (int i = 0; i < 12; ++i)
    p.add_constraint(Posynomial(Monomial(0.03 + 0.002 * i) *
                                Monomial::variable(0)),
                     "x<=" + std::to_string(1.0 / (0.03 + 0.002 * i)));
  p.add_constraint(Posynomial(Monomial(2.0) * Monomial::variable(0, -1)),
                   "x>=2");
  if (!extra.is_zero()) p.add_constraint(extra, "extra");
  return p;
}

TEST(GpWorkingSetTest, ResolvesWithAConstraintTheSeedOmitted) {
  VarTable vars;
  vars.add("x", 1e-2, 1e4);
  const GpProblem p = hidden_constraint_problem(vars, {});
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.x[0], 2.0, 2e-2);
  // Round 1 solves over the 8 largest bounds and lands on the box floor,
  // which violates x >= 2; round 2 adds it and certifies.
  EXPECT_EQ(r.diag.ws_rounds, 2);
  EXPECT_EQ(r.diag.working_set.size(), 9u);
  EXPECT_EQ(r.diag.working_set.back(), 12u);  // x>=2
  ASSERT_EQ(r.diag.binding_set.size(), 1u);
  EXPECT_EQ(p.constraints()[r.diag.binding_set[0]].tag, "x>=2");
  test::expect_working_set_certificate(r);
  // The duality gap counts the working set's barrier terms only.
  EXPECT_NEAR(r.diag.duality_gap, (9.0 + 2.0) / r.diag.final_t,
              1e-9 * r.diag.duality_gap);
}

TEST(GpWorkingSetTest, InfeasibleRelaxationMeansInfeasibleGp) {
  VarTable vars;
  vars.add("x", 1e-2, 1e4);
  // x <= 1 reads 10 at the start point, so it is seeded; x >= 2 is not.
  const GpProblem p =
      hidden_constraint_problem(vars, Posynomial::variable(0));
  const GpResult r = GpSolver().solve(p);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
  EXPECT_EQ(r.diag.ws_rounds, 2);
  for (size_t j = 0; j < r.diag.constraints.size(); ++j)
    EXPECT_EQ(r.diag.constraints[j].dual, 0.0) << p.constraints()[j].tag;
}

TEST(GpWorkingSetTest, SmallProblemsSolveWholeInOneRound) {
  // m = 2 <= 4n: the seed is every constraint and no round follows.
  VarTable vars;
  const VarId x = vars.add("x", 1e-3, 1e3);
  const VarId y = vars.add("y", 1e-3, 1e3);
  GpProblem p(vars);
  p.set_objective(Posynomial::variable(x) + Posynomial::variable(y));
  p.add_constraint(Posynomial::variable(x, -1.0) +
                       Posynomial::variable(y, -1.0),
                   "harmonic");
  p.add_constraint(Posynomial(Monomial(1e-3) * Monomial::variable(x)),
                   "x<=1000");
  const GpResult r = GpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.diag.ws_rounds, 1);
  EXPECT_EQ(r.diag.working_set, (std::vector<size_t>{0, 1}));
}

// Property: a working-set solve (m > 4n) reaches the optimum of the same
// GP solved whole. The reference pads the variable table with unused
// variables until m <= 4n, which makes the solver carry every constraint
// and leaves the optimum over the real variables unchanged.
TEST(GpWorkingSetProperty, MatchesTheWholeSolve) {
  util::Rng rng(77);
  constexpr int kVars = 3;
  constexpr int kConstraints = 40;
  for (int trial = 0; trial < 10; ++trial) {
    VarTable vars, padded;
    for (int i = 0; i < kVars; ++i) {
      vars.add(util::strfmt("v%d", i), 1e-3, 1e3);
      padded.add(util::strfmt("v%d", i), 1e-3, 1e3);
    }
    for (int i = kVars; i * 4 < kConstraints; ++i)
      padded.add(util::strfmt("pad%d", i), 1.0, 2.0);
    util::Vec feasible(kVars);
    for (auto& v : feasible) v = rng.uniform(0.5, 5.0);

    GpProblem p(vars), whole(padded);
    Posynomial obj;
    for (int i = 0; i < kVars; ++i)
      obj += Monomial(rng.uniform(0.5, 2.0)) * Monomial::variable(i);
    p.set_objective(obj);
    whole.set_objective(obj);
    for (int c = 0; c < kConstraints; ++c) {
      Posynomial lhs;
      const int terms = rng.uniform_int(1, 3);
      for (int t = 0; t < terms; ++t) {
        Monomial mono(rng.uniform(0.1, 2.0));
        for (int i = 0; i < kVars; ++i)
          mono.mul_var(i, static_cast<double>(rng.uniform_int(-2, 1)));
        lhs += mono;
      }
      if (lhs.is_zero() || lhs.is_constant()) continue;
      // Slack at the feasible point ranges from none to a factor of 10.
      lhs *= rng.uniform(0.1, 1.0) / lhs.eval(feasible);
      p.add_constraint(lhs, util::strfmt("c%d", c));
      whole.add_constraint(lhs, util::strfmt("c%d", c));
    }
    ASSERT_GT(p.constraints().size(), 4u * kVars);

    const GpResult r = GpSolver().solve(p);
    const GpResult ref = GpSolver().solve(whole);
    ASSERT_TRUE(ref.ok()) << "trial " << trial << ": " << ref.message;
    ASSERT_EQ(ref.diag.working_set.size(), whole.constraints().size());
    ASSERT_TRUE(r.ok()) << "trial " << trial << ": " << r.message;
    EXPECT_LT(r.diag.working_set.size(), p.constraints().size())
        << "trial " << trial;
    EXPECT_NEAR(r.objective, ref.objective, 1e-4 * ref.objective)
        << "trial " << trial;
    EXPECT_LE(r.max_violation, 1e-5) << "trial " << trial;
    test::expect_working_set_certificate(r);
  }
}

}  // namespace
}  // namespace smart::gp
