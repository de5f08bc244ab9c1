// Tests for the SMART static analyzers: the electrical rule checker over
// macro netlists (every ERC rule against a violating fixture, plus clean
// registry macros per circuit family) and the GP well-formedness verifier
// (unbounded, infeasible, degenerate, and unused-variable problems).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/constraints.h"
#include "gp/verify.h"
#include "helpers.h"
#include "lint/erc.h"
#include "models/fitter.h"
#include "tech/tech.h"

namespace smart::lint {
namespace {

using netlist::NetId;
using netlist::Netlist;
using netlist::Stack;

std::vector<const Finding*> of_rule(const Report& rep,
                                    const std::string& rule) {
  std::vector<const Finding*> out;
  for (const auto& f : rep.findings())
    if (f.rule == rule) out.push_back(&f);
  return out;
}

bool has_rule_at(const Report& rep, const std::string& rule,
                 const std::string& location) {
  for (const auto* f : of_rule(rep, rule))
    if (f->location == location) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Rule registry and report plumbing
// ---------------------------------------------------------------------------

TEST(LintDiagnosticsTest, RegistriesAreOrderedAndFindable) {
  EXPECT_GE(erc_rules().size(), 12u);
  EXPECT_GE(gp_rules().size(), 6u);
  const auto* erc1 = find_rule("ERC001");
  ASSERT_NE(erc1, nullptr);
  EXPECT_EQ(erc1->severity, Severity::kError);
  const auto* gpv104 = find_rule("GPV104");
  ASSERT_NE(gpv104, nullptr);
  EXPECT_EQ(gpv104->severity, Severity::kError);
  EXPECT_EQ(find_rule("ERC999"), nullptr);
}

TEST(LintDiagnosticsTest, SuppressionDropsFindingsAtAddTime) {
  Options opt;
  opt.suppress = {"ERC011"};
  Report rep(opt);
  rep.add("ERC011", Severity::kInfo, "m", "l", "suppressed");
  rep.add("ERC001", Severity::kError, "m", "net", "kept");
  EXPECT_EQ(rep.findings().size(), 1u);
  EXPECT_EQ(rep.errors(), 1u);
  EXPECT_EQ(rep.count(Severity::kInfo), 0u);
}

TEST(LintDiagnosticsTest, JsonAndTextRenderings) {
  Report rep;
  rep.add("ERC001", Severity::kError, "fixture", "n\"1", "floating \"gate\"");
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"ERC001\""), std::string::npos);
  EXPECT_NE(json.find("\"error\":1"), std::string::npos);
  EXPECT_NE(json.find("n\\\"1"), std::string::npos);  // escaped location
  const std::string text = rep.to_text();
  EXPECT_NE(text.find("ERC001"), std::string::npos);
  EXPECT_NE(text.find("1 error"), std::string::npos);
}

TEST(LintDiagnosticsTest, MergeAccumulatesCounts) {
  Report a;
  a.add("ERC001", Severity::kError, "m", "x", "one");
  Report b;
  b.add("ERC006", Severity::kWarn, "m", "y", "two");
  a.merge(b);
  EXPECT_EQ(a.findings().size(), 2u);
  EXPECT_EQ(a.errors(), 1u);
  EXPECT_EQ(a.warnings(), 1u);
  EXPECT_FALSE(a.clean());
}

// ---------------------------------------------------------------------------
// ERC violating fixtures — one per rule
// ---------------------------------------------------------------------------

TEST(ErcTest, Erc001FloatingGate) {
  Netlist nl("erc001");
  const NetId floating = nl.add_net("float");
  const NetId out = nl.add_net("out");
  const auto n = nl.add_label("n"), p = nl.add_label("p");
  nl.add_inverter("inv", floating, out, n, p);
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC001", "float")) << rep.to_text();
  EXPECT_GT(rep.errors(), 0u);
}

TEST(ErcTest, Erc002NoDcPath) {
  Netlist nl("erc002");
  const NetId sel = nl.add_net("sel");
  nl.add_input(sel);
  const NetId data = nl.add_net("data");  // undriven, not a port
  const NetId out = nl.add_net("out");
  const auto l = nl.add_label("t");
  nl.add_component("pg", out, netlist::TransGate{data, sel, l});
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC002", "data")) << rep.to_text();
  EXPECT_TRUE(has_rule_at(rep, "ERC002", "out"));
}

TEST(ErcTest, Erc003SourceDrainShort) {
  // A drain == source device cannot be expressed through the component
  // API (the netlist layer rejects the cycle), so exercise the flat rule
  // layer directly — the entry point imports and fixtures use.
  netlist::FlatNetlist flat;
  flat.node_names = {"a", "out", "vdd!", "gnd!"};
  flat.vdd = 2;
  flat.gnd = 3;
  flat.devices.push_back(netlist::FlatDevice{"m0", false, 0, 1, 1, 1.0});
  const auto rep = run_erc_flat(flat, {0}, "erc003");
  EXPECT_TRUE(has_rule_at(rep, "ERC003", "m0")) << rep.to_text();
}

TEST(ErcTest, Erc004SharedSelectContention) {
  Netlist nl("erc004");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const NetId sel = nl.add_net("sel");
  nl.add_input(a);
  nl.add_input(b);
  nl.add_input(sel);
  const NetId out = nl.add_net("out");
  const auto l0 = nl.add_label("t0"), l1 = nl.add_label("t1");
  nl.add_component("pg0", out, netlist::TransGate{a, sel, l0});
  nl.add_component("pg1", out, netlist::TransGate{b, sel, l1});
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC004", "out")) << rep.to_text();
  EXPECT_GT(rep.errors(), 0u);
}

TEST(ErcTest, Erc005SneakPathThroughPassChain) {
  Netlist nl("erc005");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const NetId s0 = nl.add_net("s0"), s1 = nl.add_net("s1");
  const NetId s2 = nl.add_net("s2");
  for (NetId in : {a, b, s0, s1, s2}) nl.add_input(in);
  const NetId mid = nl.add_net("mid");
  const NetId out = nl.add_net("out");
  const auto l0 = nl.add_label("t0"), l1 = nl.add_label("t1"),
             l2 = nl.add_label("t2");
  nl.add_component("pg0", mid, netlist::TransGate{a, s0, l0});
  nl.add_component("pg1", mid, netlist::TransGate{b, s1, l1});
  nl.add_component("pg2", out, netlist::TransGate{mid, s2, l2});
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC005", "mid")) << rep.to_text();
  // Distinct selects: no contention error.
  EXPECT_TRUE(of_rule(rep, "ERC004").empty());
}

TEST(ErcTest, Erc006SeriesStackDepth) {
  Netlist nl("erc006");
  std::vector<Stack> leaves;
  for (int i = 0; i < 6; ++i) {
    const NetId in = nl.add_net(util::strfmt("in%d", i));
    nl.add_input(in);
    leaves.push_back(Stack::leaf(in, nl.add_label(util::strfmt("n%d", i))));
  }
  const NetId out = nl.add_net("out");
  const auto p = nl.add_label("p");
  nl.add_component("deep", out,
                   netlist::StaticGate{Stack::series(std::move(leaves)), p});
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC006", "deep")) << rep.to_text();
  // A depth violation alone is a warning, not an error.
  EXPECT_EQ(rep.errors(), 0u);
}

TEST(ErcTest, Erc007KeeperSeverities) {
  auto domino = [](double keeper, bool footed) {
    Netlist nl("erc007");
    const NetId a = nl.add_net("a");
    nl.add_input(a);
    const NetId clk = nl.add_net("clk", netlist::NetKind::kClock);
    const NetId dyn = nl.add_net("dyn");
    const auto n = nl.add_label("n");
    const auto pre = nl.add_label("pre");
    const auto foot = footed ? nl.add_label("foot") : -1;
    nl.add_component("dom", dyn,
                     netlist::DominoGate{Stack::leaf(a, n), pre, foot, clk,
                                         keeper});
    nl.add_output(dyn, 10.0);
    nl.finalize();
    return run_erc(nl);
  };
  // No keeper on an unfooted (D2) stage: hard error.
  auto rep = domino(0.0, false);
  EXPECT_TRUE(has_rule_at(rep, "ERC007", "dom")) << rep.to_text();
  EXPECT_GT(rep.errors(), 0u);
  // No keeper on a footed stage: warning.
  rep = domino(0.0, true);
  EXPECT_TRUE(has_rule_at(rep, "ERC007", "dom"));
  EXPECT_EQ(rep.errors(), 0u);
  EXPECT_GT(rep.warnings(), 0u);
  // Over-strong keeper fights evaluation: warning.
  rep = domino(0.8, true);
  EXPECT_TRUE(has_rule_at(rep, "ERC007", "dom"));
  EXPECT_EQ(rep.errors(), 0u);
  // Sane keeper: no ERC007 at all.
  rep = domino(0.1, true);
  EXPECT_TRUE(of_rule(rep, "ERC007").empty()) << rep.to_text();
}

TEST(ErcTest, Erc008NonMonotonicDominoInput) {
  Netlist nl("erc008");
  const NetId a = nl.add_net("a");
  nl.add_input(a);
  const NetId clk = nl.add_net("clk", netlist::NetKind::kClock);
  const NetId dyn1 = nl.add_net("dyn1");
  const NetId dyn2 = nl.add_net("dyn2");
  const auto n1 = nl.add_label("n1"), pre1 = nl.add_label("pre1");
  const auto f1 = nl.add_label("f1");
  nl.add_component("d1", dyn1,
                   netlist::DominoGate{Stack::leaf(a, n1), pre1, f1, clk,
                                       0.1});
  const auto n2 = nl.add_label("n2"), pre2 = nl.add_label("pre2");
  const auto f2 = nl.add_label("f2");
  // Second stage reads the first stage's dynamic node directly — no
  // output inverter in between.
  nl.add_component("d2", dyn2,
                   netlist::DominoGate{Stack::leaf(dyn1, n2), pre2, f2, clk,
                                       0.1});
  nl.add_output(dyn2, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC008", "d2")) << rep.to_text();
  EXPECT_GT(rep.errors(), 0u);
}

TEST(ErcTest, Erc009ChargeSharingRisk) {
  Netlist nl("erc009");
  const NetId clk = nl.add_net("clk", netlist::NetKind::kClock);
  const auto top = nl.add_label("ntop"), bot = nl.add_label("nbot");
  std::vector<Stack> branches;
  for (int i = 0; i < 4; ++i) {
    const NetId hi = nl.add_net(util::strfmt("h%d", i));
    const NetId lo = nl.add_net(util::strfmt("l%d", i));
    nl.add_input(hi);
    nl.add_input(lo);
    branches.push_back(Stack::series(
        {Stack::leaf(hi, top), Stack::leaf(lo, bot)}));
  }
  const NetId dyn = nl.add_net("dyn");
  const auto pre = nl.add_label("pre");
  // 8 devices, depth 2, weak keeper: many internal diffusion nodes
  // against not much retention.
  nl.add_component("wide", dyn,
                   netlist::DominoGate{Stack::parallel(std::move(branches)),
                                       pre, -1, clk, 0.05});
  nl.add_output(dyn, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC009", "wide")) << rep.to_text();
  // Both labels only ever appear as domino pull-down leaves: no
  // regularity finding.
  EXPECT_TRUE(of_rule(rep, "ERC010").empty()) << rep.to_text();
}

TEST(ErcTest, Erc010LabelRegularity) {
  Netlist nl("erc010");
  const NetId a = nl.add_net("a");
  nl.add_input(a);
  const NetId out = nl.add_net("out");
  const auto shared = nl.add_label("shared");
  // One label used for both the NMOS pull-down leaf and the PMOS pull-up.
  nl.add_inverter("inv", a, out, shared, shared);
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC010", "shared")) << rep.to_text();
}

TEST(ErcTest, Erc011AndErc012UnusedLabelAndNet) {
  Netlist nl("erc011");
  const NetId a = nl.add_net("a");
  nl.add_input(a);
  const NetId out = nl.add_net("out");
  nl.add_net("stale");  // referenced by nothing
  const auto n = nl.add_label("n"), p = nl.add_label("p");
  nl.add_label("dead");  // used by no device
  nl.add_inverter("inv", a, out, n, p);
  nl.add_output(out, 10.0);
  nl.finalize();
  const auto rep = run_erc(nl);
  EXPECT_TRUE(has_rule_at(rep, "ERC011", "dead")) << rep.to_text();
  EXPECT_TRUE(has_rule_at(rep, "ERC012", "stale"));
  EXPECT_EQ(rep.errors(), 0u);
}

// ---------------------------------------------------------------------------
// Clean registry macros — one per circuit family
// ---------------------------------------------------------------------------

TEST(ErcTest, ShippedMacrosAreErrorClean) {
  struct Case {
    const char* type;
    const char* topo;
    int n;
  };
  // One representative per family: pass-gate, static, domino, tri-state.
  const Case cases[] = {
      {"mux", "strong_pass", 4},
      {"zero_detect", "static_tree", 8},
      {"mux", "domino_unsplit", 8},
      {"mux", "tristate", 4},
  };
  for (const auto& c : cases) {
    core::MacroSpec spec;
    spec.type = c.type;
    spec.n = c.n;
    const auto nl = test::generate(c.type, c.topo, spec);
    const auto rep = run_erc(nl);
    EXPECT_EQ(rep.errors(), 0u)
        << c.type << "/" << c.topo << "\n" << rep.to_text();
  }
}

// ---------------------------------------------------------------------------
// GP well-formedness verifier
// ---------------------------------------------------------------------------

TEST(GpVerifyTest, Gpv100EmptyShell) {
  posy::VarTable vars;
  gp::GpProblem problem(vars);
  const auto rep = gp::verify_problem(problem);
  EXPECT_GE(of_rule(rep, "GPV100").size(), 2u) << rep.to_text();
  EXPECT_EQ(gp::verify_status(rep).reason,
            util::FailureReason::kInvalidInput);
}

TEST(GpVerifyTest, Gpv101DegenerateMonomial) {
  posy::VarTable vars;
  const auto x = vars.add("x", 0.5, 10.0);
  gp::GpProblem problem(vars);
  problem.set_objective(posy::Posynomial::variable(x, 1.0));
  // A NaN exponent is how corrupted model data actually reaches a built
  // problem (the posynomial layer rejects bad coefficients at add time).
  const posy::Monomial bad =
      posy::Monomial::variable(x, std::numeric_limits<double>::quiet_NaN());
  problem.add_constraint(posy::Posynomial(bad), "nan_exp");
  const auto rep = gp::verify_problem(problem, {}, "fixture");
  ASSERT_FALSE(of_rule(rep, "GPV101").empty()) << rep.to_text();
  EXPECT_EQ(gp::verify_status(rep).reason,
            util::FailureReason::kNumericalError);
}

TEST(GpVerifyTest, Gpv102UnboundedBelowCertificate) {
  posy::VarTable vars;
  const auto x = vars.add("x", 1e-3, 1e6);
  gp::GpProblem problem(vars);
  // Objective 1/x with no constraint growing in x: minimizing drives x to
  // its box rail; the exponent matrix certifies unboundedness.
  problem.set_objective(posy::Posynomial::variable(x, -1.0));
  const auto rep = gp::verify_problem(problem, {}, "fixture");
  ASSERT_FALSE(of_rule(rep, "GPV102").empty()) << rep.to_text();
  EXPECT_EQ(of_rule(rep, "GPV102").front()->location, "x");
  EXPECT_EQ(gp::verify_status(rep).reason,
            util::FailureReason::kInvalidInput);
}

TEST(GpVerifyTest, Gpv103UnusedVariable) {
  posy::VarTable vars;
  const auto x = vars.add("x", 0.5, 10.0);
  vars.add("orphan", 0.5, 10.0);
  gp::GpProblem problem(vars);
  problem.set_objective(posy::Posynomial::variable(x, 1.0));
  const auto rep = gp::verify_problem(problem, {}, "fixture");
  ASSERT_FALSE(of_rule(rep, "GPV103").empty()) << rep.to_text();
  EXPECT_EQ(of_rule(rep, "GPV103").front()->location, "orphan");
  // A warning alone does not fail the status collapse.
  EXPECT_TRUE(gp::verify_status(rep).ok());
}

TEST(GpVerifyTest, Gpv104BoxInfeasibleConstraint) {
  posy::VarTable vars;
  const auto x = vars.add("x", 1.0, 2.0);
  gp::GpProblem problem(vars);
  problem.set_objective(posy::Posynomial::variable(x, 1.0));
  // 3/x <= 1 needs x >= 3, but the box caps x at 2: infeasible everywhere.
  problem.add_constraint(
      posy::Posynomial(3.0 * posy::Monomial::variable(x, -1.0)), "tight");
  const auto rep = gp::verify_problem(problem, {}, "fixture");
  ASSERT_FALSE(of_rule(rep, "GPV104").empty()) << rep.to_text();
  EXPECT_EQ(gp::verify_status(rep).reason,
            util::FailureReason::kInfeasible);
}

TEST(GpVerifyTest, Gpv105InvalidBox) {
  posy::VarTable vars;
  const auto x = vars.add("x", 0.5, 10.0);
  vars.add("open", 1.0, std::numeric_limits<double>::infinity());
  gp::GpProblem problem(vars);
  problem.set_objective(posy::Posynomial::variable(x, 1.0));
  const auto rep = gp::verify_problem(problem, {}, "fixture");
  ASSERT_FALSE(of_rule(rep, "GPV105").empty()) << rep.to_text();
  EXPECT_EQ(of_rule(rep, "GPV105").front()->location, "open");
}

TEST(GpVerifyTest, MergedConstraintFindingNamesEveryMember) {
  // The 64-bit adder's slope_cout_t_dyn_f is box-infeasible at the default
  // slope budget, and two arcs into cout_t_dyn give the same constraint:
  // one GP constraint, one finding, both arcs named.
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 64;
  const auto nl = test::generate("adder", "domino_cla", spec);
  core::ConstraintOptions opt;
  opt.delay_spec_ps = 1000.0;  // the `smart_cli lint` default
  const auto gen = core::generate_problem(nl, opt, models::default_library(),
                                          tech::default_tech());
  const auto rep = core::verify_generated(gen, {}, nl.name());
  const auto found = of_rule(rep, "GPV104");
  ASSERT_EQ(found.size(), 1u) << rep.to_text();
  EXPECT_EQ(found.front()->location, "constraint slope_cout_t_dyn_f");
  const std::string& msg = found.front()->message;
  EXPECT_NE(msg.find("stands for 2 merged constraints"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("from cin_t"), std::string::npos) << msg;
  EXPECT_NE(msg.find("from s3P0_t"), std::string::npos) << msg;
}

TEST(GpVerifyTest, GeneratedMacroProblemIsClean) {
  const auto nl = test::inverter_chain(3);
  core::ConstraintOptions opt;
  opt.delay_spec_ps = 500.0;
  const auto gen = core::generate_problem(nl, opt, models::default_library(),
                                          tech::default_tech());
  const auto rep = gp::verify_problem(*gen.problem, {}, nl.name());
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_TRUE(gp::verify_status(rep).ok());
}

}  // namespace
}  // namespace smart::lint
