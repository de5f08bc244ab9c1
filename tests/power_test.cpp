// Tests for the power estimator: activity classification (clock / domino
// domain / data), scaling laws, and clock power attribution.

#include <gtest/gtest.h>

#include "helpers.h"
#include "power/power.h"

namespace smart::power {
namespace {

using netlist::Sizing;

TEST(ActivityTest, ClassifiesClockDominoAndData) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 1;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  PowerOptions opt;
  const auto act = net_activities(nl, opt);
  EXPECT_DOUBLE_EQ(act[static_cast<size_t>(nl.find_net("clk"))],
                   kClockActivity);
  EXPECT_DOUBLE_EQ(act[static_cast<size_t>(nl.find_net("dyn0"))],
                   kDominoActivity);
  // The output inverter is downstream of the dynamic node.
  EXPECT_DOUBLE_EQ(act[static_cast<size_t>(nl.find_net("o0"))],
                   kDominoActivity);
  // Primary data inputs stay at the data rate.
  EXPECT_DOUBLE_EQ(act[static_cast<size_t>(nl.find_net("d0_0"))],
                   opt.data_activity);
}

TEST(ActivityTest, StaticMacroAllData) {
  core::MacroSpec spec;
  spec.type = "zero_detect";
  spec.n = 8;
  const auto nl = test::generate("zero_detect", "static_tree", spec);
  PowerOptions opt;
  const auto act = net_activities(nl, opt);
  for (size_t n = 0; n < nl.net_count(); ++n)
    EXPECT_DOUBLE_EQ(act[n], opt.data_activity);
}

TEST(PowerTest, ScalesWithWidth) {
  const auto nl = test::inverter_chain(3, 10.0);
  PowerEstimator est(tech::default_tech());
  const auto p1 = est.estimate(nl, Sizing(nl.label_count(), 1.0));
  const auto p2 = est.estimate(nl, Sizing(nl.label_count(), 4.0));
  EXPECT_GT(p2.total_mw, p1.total_mw);
}

TEST(PowerTest, ScalesLinearlyWithFrequency) {
  const auto nl = test::inverter_chain(2, 10.0);
  PowerEstimator est(tech::default_tech());
  PowerOptions opt;
  opt.freq_ghz = 1.0;
  const auto p1 = est.estimate(nl, Sizing(nl.label_count(), 2.0), opt);
  opt.freq_ghz = 2.0;
  const auto p2 = est.estimate(nl, Sizing(nl.label_count(), 2.0), opt);
  EXPECT_NEAR(p2.total_mw, 2.0 * p1.total_mw, 1e-9);
}

TEST(PowerTest, ClockPowerOnlyForClockedMacros) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 2;
  PowerEstimator est(tech::default_tech());
  const auto pass = test::generate("mux", "strong_pass", spec);
  const auto dom = test::generate("mux", "domino_unsplit", spec);
  const auto p_pass = est.estimate(pass, Sizing(pass.label_count(), 2.0));
  const auto p_dom = est.estimate(dom, Sizing(dom.label_count(), 2.0));
  EXPECT_DOUBLE_EQ(p_pass.clock_mw, 0.0);
  EXPECT_GT(p_dom.clock_mw, 0.0);
  EXPECT_LT(p_dom.clock_mw, p_dom.total_mw);
}

TEST(PowerTest, SwitchedCapConsistentWithPower) {
  const auto nl = test::inverter_chain(2, 10.0);
  const auto& tech = tech::default_tech();
  PowerEstimator est(tech);
  PowerOptions opt;
  opt.freq_ghz = 1.0;
  const auto p = est.estimate(nl, Sizing(nl.label_count(), 2.0), opt);
  // P[mW] = switched_cap[fF] * V^2 * f[GHz] / 2000.
  EXPECT_NEAR(p.total_mw,
              p.switched_cap_ff * tech.vdd * tech.vdd / 2000.0, 1e-9);
}

TEST(PowerTest, HigherDataActivityMorePower) {
  const auto nl = test::inverter_chain(3, 10.0);
  PowerEstimator est(tech::default_tech());
  PowerOptions lo, hi;
  lo.data_activity = 0.1;
  hi.data_activity = 0.5;
  EXPECT_GT(est.estimate(nl, Sizing(nl.label_count(), 2.0), hi).total_mw,
            est.estimate(nl, Sizing(nl.label_count(), 2.0), lo).total_mw);
}

TEST(PowerTest, NetActivityWrapperAgrees) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 1;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  PowerOptions opt;
  const auto all = net_activities(nl, opt);
  EXPECT_DOUBLE_EQ(net_activity(nl, nl.find_net("dyn0"), opt),
                   all[static_cast<size_t>(nl.find_net("dyn0"))]);
}

}  // namespace
}  // namespace smart::power
