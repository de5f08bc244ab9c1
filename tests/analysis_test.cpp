// Tests for the designer analysis utilities: critical-path tracing and
// domino noise (charge sharing / keeper strength) checks.

#include <gtest/gtest.h>

#include "helpers.h"
#include "refsim/critical_path.h"
#include "refsim/noise.h"
#include "refsim/slack.h"

namespace smart::refsim {
namespace {

using netlist::Sizing;

TEST(CriticalPathTest, ChainTraceCoversEveryStage) {
  const auto nl = test::inverter_chain(4, 20.0);
  const Sizing sizing(nl.label_count(), 2.0);
  const auto path = critical_path(nl, sizing, tech::default_tech());
  EXPECT_EQ(path.steps.size(), 4u);
  EXPECT_EQ(path.start, nl.find_net("in"));
  EXPECT_EQ(path.end, nl.find_net("n3"));
  // Stage delays sum to the endpoint arrival (input arrival is 0).
  double sum = 0.0;
  for (const auto& s : path.steps) sum += s.delay_ps;
  EXPECT_NEAR(sum, path.arrival_ps, 1e-6);
  // Arrivals increase monotonically along the trace.
  for (size_t i = 1; i < path.steps.size(); ++i)
    EXPECT_GT(path.steps[i].arrival_ps, path.steps[i - 1].arrival_ps);
}

TEST(CriticalPathTest, MatchesReferenceWorstDelay) {
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 4;
  const auto nl = test::generate("decoder", "predecode", spec);
  const Sizing sizing(nl.label_count(), 2.0);
  const RcTimer timer(tech::default_tech());
  const auto report = timer.analyze(nl, sizing);
  const auto path = critical_path(nl, sizing, tech::default_tech());
  EXPECT_NEAR(path.arrival_ps, report.worst_delay, 1e-6);
  EXPECT_GE(path.steps.size(), 3u);  // inverter? -> predecode -> word stage
}

TEST(CriticalPathTest, WorksThroughDominoStages) {
  core::MacroSpec spec;
  spec.type = "comparator";
  spec.n = 16;
  const auto nl = test::generate("comparator", "xorsum2_nor4", spec);
  const Sizing sizing(nl.label_count(), 2.0);
  const auto path = critical_path(nl, sizing, tech::default_tech());
  bool crossed_domino = false;
  for (const auto& s : path.steps)
    crossed_domino |= s.arc.kind == netlist::ArcKind::kDominoEval ||
                      s.arc.kind == netlist::ArcKind::kDominoClkEval;
  EXPECT_TRUE(crossed_domino);
  const std::string text = describe_critical_path(nl, path);
  EXPECT_NE(text.find("critical path:"), std::string::npos);
  EXPECT_NE(text.find("eq"), std::string::npos);
}

TEST(NoiseTest, StaticMacroHasNoDominoReports) {
  const auto nl = test::inverter_chain(2);
  const auto reports = analyze_domino_noise(nl, Sizing(nl.label_count(), 2.0),
                                            tech::default_tech());
  EXPECT_TRUE(reports.empty());
  EXPECT_TRUE(noise_clean(reports));
}

TEST(NoiseTest, DominoMuxReportsPerGate) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 8;
  spec.params["bits"] = 2;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  const auto reports = analyze_domino_noise(nl, Sizing(nl.label_count(), 2.0),
                                            tech::default_tech());
  EXPECT_EQ(reports.size(), 2u);  // one dynamic node per slice
  for (const auto& r : reports) {
    EXPECT_GT(r.charge_share, 0.0);
    EXPECT_LT(r.charge_share, 1.0);
    EXPECT_GT(r.keeper_strength, 0.0);
  }
}

TEST(NoiseTest, ChargeShareGrowsWithStackDepth) {
  // An 8-deep AND stack shares much more charge than a 2-wide OR.
  using netlist::DominoGate;
  using netlist::Stack;
  auto make = [&](int depth) {
    netlist::Netlist nl("d");
    const auto clk = nl.add_net("clk", netlist::NetKind::kClock);
    std::vector<Stack> leaves;
    for (int i = 0; i < depth; ++i) {
      const auto in = nl.add_net(util::strfmt("i%d", i));
      nl.add_input(in);
      leaves.push_back(Stack::leaf(in, 0));
    }
    const auto n1 = nl.add_label("N1");
    (void)n1;
    const auto p1 = nl.add_label("P1");
    const auto nf = nl.add_label("NF");
    const auto dyn = nl.add_net("dyn");
    nl.add_component("g", dyn,
                     DominoGate{Stack::series(std::move(leaves)), p1, nf,
                                clk, 0.1});
    nl.add_output(dyn, 10.0);
    nl.finalize();
    const auto reports = analyze_domino_noise(
        nl, Sizing(nl.label_count(), 2.0), tech::default_tech());
    return reports.at(0).charge_share;
  };
  EXPECT_GT(make(8), make(2));
}

TEST(NoiseTest, StrongerKeeperRaisesStrengthMetric) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 1;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  Sizing sizing(nl.label_count(), 2.0);
  const auto weak = analyze_domino_noise(nl, sizing, tech::default_tech());
  // Widen the precharge label (keeper scales with it).
  for (size_t i = 0; i < nl.label_count(); ++i)
    if (nl.label(static_cast<netlist::LabelId>(i)).name == "P1")
      sizing[i] = 8.0;
  const auto strong = analyze_domino_noise(nl, sizing, tech::default_tech());
  EXPECT_GT(strong.at(0).keeper_strength, weak.at(0).keeper_strength);
}

TEST(NoiseTest, ThresholdsControlVerdicts) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 1;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  const Sizing sizing(nl.label_count(), 2.0);
  NoiseOptions strict;
  strict.max_charge_share = 1e-6;  // impossible to satisfy
  const auto reports =
      analyze_domino_noise(nl, sizing, tech::default_tech(), strict);
  EXPECT_FALSE(noise_clean(reports));
}

TEST(SlackTest, ChainSlackMatchesDeadlineMinusArrival) {
  const auto nl = test::inverter_chain(3, 20.0);
  const Sizing sizing(nl.label_count(), 2.0);
  const RcTimer timer(tech::default_tech());
  const auto rep = timer.analyze(nl, sizing);
  const double deadline = rep.worst_delay + 25.0;
  const auto slack = compute_slack(nl, sizing, tech::default_tech(),
                                   deadline);
  // Output slack equals the 25 ps of margin on the worst edge.
  EXPECT_NEAR(slack.at(nl.find_net("n2")), 25.0, 1e-6);
  // Slack along a single chain is uniform: the input sees the same margin.
  EXPECT_NEAR(slack.at(nl.find_net("in")), 25.0, 1e-6);
}

TEST(SlackTest, NegativeSlackWhenDeadlineMissed) {
  const auto nl = test::inverter_chain(3, 20.0);
  const Sizing sizing(nl.label_count(), 2.0);
  const RcTimer timer(tech::default_tech());
  const auto rep = timer.analyze(nl, sizing);
  const auto slack = compute_slack(nl, sizing, tech::default_tech(),
                                   rep.worst_delay * 0.5);
  EXPECT_LT(slack.worst_slack, 0.0);
  EXPECT_GE(slack.worst_net, 0);
}

TEST(SlackTest, PerOutputDeadlines) {
  // Two independent chains; a tight deadline on one output only shows up
  // as reduced slack on that cone alone.
  netlist::Netlist nl("two");
  const auto a = nl.add_net("a"), b = nl.add_net("b");
  const auto x = nl.add_net("x"), y = nl.add_net("y");
  const auto n0 = nl.add_label("N0"), p0 = nl.add_label("P0");
  const auto n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
  nl.add_inverter("i0", a, x, n0, p0);
  nl.add_inverter("i1", b, y, n1, p1);
  nl.add_input(a);
  nl.add_input(b);
  nl.add_output(x, 10.0);
  nl.add_output(y, 10.0);
  nl.finalize();
  const Sizing sizing(nl.label_count(), 2.0);
  const auto slack = compute_slack(nl, sizing, tech::default_tech(), 500.0,
                                   {60.0, -1.0});
  EXPECT_LT(slack.at(a), slack.at(b));
  EXPECT_LT(slack.at(x), 60.0);
  EXPECT_GT(slack.at(y), 300.0);
}

TEST(SlackTest, NonCriticalSideBranchHasMoreSlack) {
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 3;
  const auto nl = test::generate("decoder", "predecode", spec);
  const Sizing sizing(nl.label_count(), 2.0);
  const RcTimer timer(tech::default_tech());
  const auto rep = timer.analyze(nl, sizing);
  const auto slack = compute_slack(nl, sizing, tech::default_tech(),
                                   rep.worst_delay);
  // At a deadline equal to the worst delay, the worst slack is ~0 and the
  // critical path's nets carry it.
  EXPECT_NEAR(slack.worst_slack, 0.0, 1e-6);
  const auto cp = critical_path(nl, sizing, tech::default_tech());
  EXPECT_NEAR(slack.at(cp.end), 0.0, 1e-6);
}

}  // namespace
}  // namespace smart::refsim
