// End-to-end integration tests tying the whole flow together on scaled-down
// versions of the paper's experiments (the full-size runs live in bench/).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/advisor.h"
#include "core/experiment.h"
#include "helpers.h"
#include "models/fitter.h"
#include <cmath>

#include "refsim/logic_sim.h"
#include "refsim/rc_timer.h"
#include "timing/paths.h"

namespace smart {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
};

TEST_F(IntegrationTest, Table1StyleRowForStrongPassMux) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 8;
  const auto nl = test::generate("mux", "strong_pass", spec);
  const auto cmp = core::run_iso_delay(nl, tech_, lib_);
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  // Paper Table 1 reports 15% for this topology; require the right regime.
  EXPECT_GT(cmp.width_saving(), 0.05);
  EXPECT_LT(cmp.width_saving(), 0.60);
}

TEST_F(IntegrationTest, Table1StyleRowForDominoMux) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 8;
  spec.params["bits"] = 8;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  core::IsoDelayOptions opt;
  opt.sizer.cost = core::CostMetric::kPower;
  const auto cmp = core::run_iso_delay(nl, tech_, lib_, opt);
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  // Domino macros show the largest savings in the paper (45% / 39%).
  EXPECT_GT(cmp.width_saving(), 0.2);
  EXPECT_GT(cmp.clock_saving(), 0.0);
  EXPECT_GT(cmp.power_saving(), 0.1);
}

TEST_F(IntegrationTest, Fig6StyleTradeoffOnSmallAdder) {
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 8;
  const auto nl = test::generate("adder", "domino_cla", spec);
  core::DesignAdvisor advisor(macros::builtin_database(), tech_, lib_);
  // Find a reachable delay range first.
  const auto cmp = core::run_iso_delay(nl, tech_, lib_);
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  const double d0 = cmp.baseline.measured_delay_ps;
  core::SizerOptions base;
  // Same phase-budget precharge rule as run_iso_delay.
  base.precharge_spec_ps =
      std::max(cmp.baseline.measured_precharge_ps * 1.2, d0 * 1.3);
  const auto curve =
      advisor.tradeoff_curve(nl, {d0 * 1.0, d0 * 1.2, d0 * 1.45}, base);
  ASSERT_EQ(curve.size(), 3u);
  // The area-delay curve shape of Fig 6: relaxing delay reduces area.
  ASSERT_TRUE(curve[0].feasible);
  ASSERT_TRUE(curve[2].feasible);
  EXPECT_GT(curve[0].total_width_um, curve[2].total_width_um);
}

TEST_F(IntegrationTest, Fig6AdderTradeoffShape) {
  // The full Fig 6 sweep of bench/fig6_adder_tradeoff: the 64-bit adder,
  // normalized delay 0.9-1.3 around 1.25x the baseline delay.
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 64;
  spec.load_ff = 12.0;
  const auto nl = test::generate("adder", "domino_cla", spec);
  const auto anchor = core::run_iso_delay(nl, tech_, lib_);
  ASSERT_TRUE(anchor.ok) << anchor.smart.message;
  const double d1 = anchor.baseline.measured_delay_ps * 1.25;
  core::SizerOptions opt;
  opt.precharge_spec_ps =
      std::max(anchor.baseline.measured_precharge_ps, d1) * 1.2;
  opt.slope_budget_ps = 240.0;
  // DesignAdvisor::tradeoff_curve's per-point options.
  opt.allow_relaxed_retry = false;
  opt.allow_baseline_fallback = false;
  const core::Sizer sizer(tech_, lib_);
  std::vector<double> area;
  for (const double rel : {0.90, 0.95, 1.00, 1.10, 1.20, 1.30}) {
    opt.delay_spec_ps = rel * d1;
    const auto r = sizer.size(nl, opt);
    ASSERT_TRUE(r.ok) << rel << ": " << r.message;
    EXPECT_TRUE(r.converged()) << rel << ": " << r.message;
    // Every GP solve of every point reaches its tolerance.
    for (const auto& it : r.respec_trace)
      EXPECT_EQ(it.gp_status, gp::SolveStatus::kOptimal)
          << rel << " iteration " << it.iter;
    area.push_back(r.total_width_um);
  }
  // Monotone: relaxing the delay never costs area.
  for (size_t i = 1; i < area.size(); ++i)
    EXPECT_LE(area[i], area[i - 1] * (1.0 + 1e-9)) << i;
  // Fast-end premium over the most relaxed point; the paper reads ~1.27.
  const double premium = area.front() / area.back();
  EXPECT_GE(premium, 1.15);
  EXPECT_LE(premium, 1.40);
}

TEST_F(IntegrationTest, SizedMacroRemainsFunctionallyCorrect) {
  // Sizing only changes widths, never connectivity — verify the invariant
  // end to end by re-simulating after SMART sizing.
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 8;
  const auto nl = test::generate("incrementor", "ks_prefix", spec);
  const auto cmp = core::run_iso_delay(nl, tech_, lib_);
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  refsim::LogicSim sim(nl);
  for (uint64_t v : {0ull, 37ull, 255ull, 128ull}) {
    std::map<netlist::NetId, bool> in;
    for (int i = 0; i < 8; ++i)
      test::set_input(nl, in, util::strfmt("in%d", i), (v >> i) & 1);
    const auto st = sim.evaluate(in);
    const uint64_t want = (v + 1) & 0xff;
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(test::net_value(nl, st, util::strfmt("out%d", i)),
                refsim::from_bool((want >> i) & 1));
  }
}

TEST_F(IntegrationTest, Sec52PruningShapeOnMidSizeAdder) {
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 16;
  const auto nl = test::generate("adder", "domino_cla", spec);
  timing::PathExtractor ex(nl);
  timing::PathStats stats;
  const auto paths = ex.extract({}, &stats);
  // Orders-of-magnitude reduction, as in §5.2.
  EXPECT_GT(stats.raw_topological, 1000.0);
  EXPECT_LT(static_cast<double>(paths.size()), stats.raw_topological / 10.0);
  EXPECT_GT(paths.size(), 10u);
}

TEST_F(IntegrationTest, AdvisorPicksSplitDominoForWideMux) {
  // Paper Fig 2(f): the partitioned mux wins for large n. The advisor must
  // discover that on its own under a power cost.
  core::AdvisorRequest req;
  req.spec.type = "mux";
  req.spec.n = 16;
  req.spec.params["bits"] = 4;
  req.cost = core::CostMetric::kPower;
  core::DesignAdvisor advisor(macros::builtin_database(), tech_, lib_);
  const auto advice = advisor.advise(req);
  ASSERT_NE(advice.best(), nullptr) << advice.message;
  // The split topology must rank above the unsplit one (which may not even
  // be feasible at this size).
  size_t split_rank = 999, unsplit_rank = 999;
  for (size_t i = 0; i < advice.solutions.size(); ++i) {
    if (advice.solutions[i].topology == "domino_split") split_rank = i;
    if (advice.solutions[i].topology == "domino_unsplit") unsplit_rank = i;
  }
  ASSERT_NE(split_rank, 999u);
  EXPECT_LT(split_rank, unsplit_rank);
}

TEST_F(IntegrationTest, RespecLoopAbsorbsModelDegradation) {
  // Fig 4's premise: "These timing models need not be exact, since they
  // are only used within the inner optimization loop" — the STA-verify /
  // re-specify iteration must converge even with a degraded (linear-slope)
  // model library, and with uncalibrated analytic defaults.
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 13;
  const auto nl = test::generate("incrementor", "ks_prefix", spec);
  const auto coarse = models::calibrate(tech_, nullptr, {false});
  const auto cmp_c = core::run_iso_delay(nl, tech_, coarse);
  EXPECT_TRUE(cmp_c.ok) << cmp_c.smart.message;

  models::ModelLibrary analytic;  // raw defaults, never fitted
  core::IsoDelayOptions uopt;
  uopt.sizer.max_respec_iters = 20;  // cruder models need more iterations
  const auto cmp_u = core::run_iso_delay(nl, tech_, analytic, uopt);
  ASSERT_TRUE(cmp_u.smart.ok) << cmp_u.smart.message;
  // Even if full convergence is not reached, the loop must close most of
  // the gap left by completely unfitted models.
  EXPECT_LE(cmp_u.smart.measured_delay_ps,
            cmp_u.baseline.measured_delay_ps * 1.15);
}

}  // namespace
}  // namespace smart
