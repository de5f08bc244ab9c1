// Tests for the GP constraint generator (§5.3): constraint families,
// OTB stage deadlines, input cap limits, cost objectives, and the
// sizing_from_solution mapping.

#include <gtest/gtest.h>

#include "core/constraints.h"
#include "gp/solver.h"
#include "helpers.h"
#include "models/fitter.h"

namespace smart::core {
namespace {

class ConstraintsTest : public ::testing::Test {
 protected:
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();

  ConstraintOptions options(double spec_ps) const {
    ConstraintOptions opt;
    opt.delay_spec_ps = spec_ps;
    return opt;
  }
};

TEST_F(ConstraintsTest, ChainProducesTimingAndSlopeConstraints) {
  const auto nl = test::inverter_chain(3, 20.0);
  const auto gen = generate_problem(nl, options(200.0), lib_, tech_);
  EXPECT_EQ(gen.timing_constraints, 2u);  // rise + fall path
  // One rise + one fall slope bound per arc.
  EXPECT_EQ(gen.slope_constraints, 2u * nl.arcs().size());
  EXPECT_EQ(gen.vars->size(), nl.label_count());
  EXPECT_FALSE(gen.problem->objective().is_zero());
}

TEST_F(ConstraintsTest, SlopeConstraintsCanBeDisabled) {
  const auto nl = test::inverter_chain(3, 20.0);
  ConstraintOptions opt = options(200.0);
  opt.enforce_slopes = false;
  const auto gen = generate_problem(nl, opt, lib_, tech_);
  EXPECT_EQ(gen.slope_constraints, 0u);
}

TEST_F(ConstraintsTest, RequiresPositiveSpec) {
  const auto nl = test::inverter_chain(2, 20.0);
  EXPECT_THROW(generate_problem(nl, options(0.0), lib_, tech_), util::Error);
}

TEST_F(ConstraintsTest, InputCapLimitsAddConstraints) {
  const auto nl = test::inverter_chain(2, 20.0);
  ConstraintOptions opt = options(200.0);
  const auto before = generate_problem(nl, opt, lib_, tech_);
  opt.input_cap_limit_ff = 10.0;
  const auto after = generate_problem(nl, opt, lib_, tech_);
  EXPECT_EQ(after.problem->constraints().size(),
            before.problem->constraints().size() + nl.inputs().size());
}

TEST_F(ConstraintsTest, PerPortLimitsMustMatchPortCount) {
  const auto nl = test::inverter_chain(2, 20.0);
  ConstraintOptions opt = options(200.0);
  opt.input_cap_limits_ff = {5.0, 5.0};  // chain has one input
  EXPECT_THROW(generate_problem(nl, opt, lib_, tech_), util::Error);
}

TEST_F(ConstraintsTest, OtbRemovesStageDeadlines) {
  core::MacroSpec spec;
  spec.type = "comparator";
  spec.n = 16;
  const auto nl = test::generate("comparator", "xorsum2_nor4", spec);
  ConstraintOptions with_otb = options(500.0);
  with_otb.otb = true;
  ConstraintOptions without = options(500.0);
  without.otb = false;
  const auto g1 = generate_problem(nl, with_otb, lib_, tech_);
  const auto g2 = generate_problem(nl, without, lib_, tech_);
  EXPECT_EQ(g1.stage_constraints, 0u);
  EXPECT_GT(g2.stage_constraints, 0u);
}

TEST_F(ConstraintsTest, DominoMacroGetsPrechargePaths) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 2;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  ConstraintOptions opt = options(120.0);
  opt.precharge_spec_ps = 150.0;
  const auto gen = generate_problem(nl, opt, lib_, tech_);
  bool has_precharge_tag = false;
  for (const auto& c : gen.problem->constraints())
    if (c.tag.rfind("pre_", 0) == 0) has_precharge_tag = true;
  EXPECT_TRUE(has_precharge_tag);
}

TEST_F(ConstraintsTest, SizingFromSolutionMapsVariablesAndFixed) {
  netlist::Netlist nl("mix");
  const auto a = nl.add_net("a"), b = nl.add_net("b"), c = nl.add_net("c");
  const auto n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
  const auto n2 = nl.add_label("N2"), p2 = nl.add_label("P2");
  nl.fix_label(p2, 9.0);
  nl.add_inverter("i1", a, b, n1, p1);
  nl.add_inverter("i2", b, c, n2, p2);
  nl.add_input(a);
  nl.add_output(c, 10.0);
  nl.finalize();
  const auto gen = generate_problem(nl, options(500.0), lib_, tech_);
  EXPECT_EQ(gen.vars->size(), 3u);  // three free labels
  util::Vec x(gen.vars->size());
  for (size_t i = 0; i < x.size(); ++i) x[i] = 1.0 + static_cast<double>(i);
  const auto sizing = sizing_from_solution(nl, gen, x);
  EXPECT_DOUBLE_EQ(sizing[static_cast<size_t>(p2)], 9.0);
  // Every free label maps to exactly one distinct variable value.
  EXPECT_NE(sizing[static_cast<size_t>(n1)], sizing[static_cast<size_t>(n2)]);
}

TEST_F(ConstraintsTest, CostObjectivesDiffer) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 2;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  posy::VarTable vars;
  const auto labels = models::make_label_vars(nl, vars);
  power::PowerOptions activity;
  const auto width =
      cost_posy(nl, CostMetric::kTotalWidth, labels, activity, tech_);
  const auto power =
      cost_posy(nl, CostMetric::kPower, labels, activity, tech_);
  const auto clock =
      cost_posy(nl, CostMetric::kClockLoad, labels, activity, tech_);
  util::Vec at(vars.size(), 2.0);
  EXPECT_GT(width.eval(at), 0.0);
  EXPECT_GT(power.eval(at), 0.0);
  EXPECT_GT(clock.eval(at), 0.0);
  EXPECT_NE(width.eval(at), power.eval(at));
}

TEST_F(ConstraintsTest, WidthObjectiveMatchesDeviceStats) {
  const auto nl = test::inverter_chain(3, 10.0);
  posy::VarTable vars;
  const auto labels = models::make_label_vars(nl, vars);
  const auto width = cost_posy(nl, CostMetric::kTotalWidth, labels,
                               power::PowerOptions{}, tech_);
  util::Vec at(vars.size());
  netlist::Sizing sizing(nl.label_count());
  for (size_t i = 0; i < at.size(); ++i) {
    at[i] = 0.7 + static_cast<double>(i);
    sizing[i] = at[i];
  }
  EXPECT_NEAR(width.eval(at), nl.device_stats(sizing).total_width, 1e-9);
}

TEST_F(ConstraintsTest, PerOutputRequiredTimesOverrideSpec) {
  // Two independent chains to two outputs with very different deadlines:
  // the tight output's driver must come out wider.
  auto make = [&](double req0, double req1) {
    netlist::Netlist nl("two");
    const auto a = nl.add_net("a"), b = nl.add_net("b");
    const auto x = nl.add_net("x"), y = nl.add_net("y");
    const auto n0 = nl.add_label("N0"), p0 = nl.add_label("P0");
    const auto n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
    nl.add_inverter("i0", a, x, n0, p0);
    nl.add_inverter("i1", b, y, n1, p1);
    nl.add_input(a);
    nl.add_input(b);
    nl.add_output(x, 30.0);
    nl.add_output(y, 30.0);
    nl.finalize();
    ConstraintOptions opt = options(300.0);
    opt.enforce_slopes = false;
    opt.output_required_ps = {req0, req1};
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    const auto sol = gp::GpSolver().solve(*gen.problem);
    EXPECT_TRUE(sol.ok()) << sol.message;
    return sizing_from_solution(nl, gen, sol.x);
  };
  const auto tight_first = make(40.0, 300.0);
  EXPECT_GT(tight_first[0], tight_first[2] * 1.5);  // N0 >> N1
  const auto tight_second = make(300.0, 40.0);
  EXPECT_GT(tight_second[2], tight_second[0] * 1.5);  // N1 >> N0
}

TEST_F(ConstraintsTest, RequiredTimesListMustMatchPortCount) {
  const auto nl = test::inverter_chain(2, 20.0);
  ConstraintOptions opt = options(200.0);
  opt.output_required_ps = {100.0, 100.0};  // chain has one output
  EXPECT_THROW(generate_problem(nl, opt, lib_, tech_), util::Error);
}

TEST_F(ConstraintsTest, PathStatsPopulated) {
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 8;
  const auto nl = test::generate("incrementor", "ks_prefix", spec);
  const auto gen = generate_problem(nl, options(400.0), lib_, tech_);
  EXPECT_GT(gen.path_stats.raw_topological, 0.0);
  EXPECT_GT(gen.path_stats.final_paths, 0u);
  EXPECT_EQ(gen.timing_constraints, gen.path_stats.final_paths);
}

TEST_F(ConstraintsTest, ExpiredDeadlineThrowsTimeout) {
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 8;
  const auto nl = test::generate("incrementor", "ks_prefix", spec);
  const util::Deadline expired = util::Deadline::from_ms(0);
  ConstraintOptions opt = options(400.0);
  opt.deadline = &expired;
  EXPECT_THROW(generate_problem(nl, opt, lib_, tech_), util::TimeoutError);
}

}  // namespace
}  // namespace smart::core
