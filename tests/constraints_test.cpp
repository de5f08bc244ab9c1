// Tests for the GP constraint generator (§5.3): constraint families,
// OTB stage deadlines, input cap limits, cost objectives, and the
// sizing_from_solution mapping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <map>
#include <set>
#include <tuple>

#include "core/constraints.h"
#include "gp/solver.h"
#include "gp/verify.h"
#include "helpers.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "power/power.h"
#include "util/strfmt.h"

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

  /// Every path's delay posynomial recomputed the direct way, from each
  /// step's own arc model: the start arrival plus every arc delay, each at
  /// its input slope (the path's start slope, then the slope budget).
  std::vector<posy::Posynomial> path_delays(const netlist::Netlist& nl,
                                            const GeneratedProblem& gen,
                                            double slope_budget) const {
    const auto caps = models::net_cap_posy_all(nl, gen.labels, tech_);
    std::vector<posy::Posynomial> out;
    for (const auto& p : gen.paths) {
      posy::Posynomial total(p.start_arrival);
      for (size_t si = 0; si < p.steps.size(); ++si) {
        const auto& step = p.steps[si];
        const double slope = si > 0 ? slope_budget
                             : p.start_slope >= 0.0
                                 ? p.start_slope
                                 : tech_.default_input_slope;
        total += models::arc_model_posy(nl, step.arc, step.out_rise,
                                        posy::Posynomial(slope),
                                        caps[static_cast<size_t>(step.arc.to)],
                                        gen.labels, lib_, tech_, p.phase)
                     .delay;
      }
      out.push_back(std::move(total));
    }
    return out;
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
  // The problem is built from the extractor's final paths; the statistics
  // come from the extractor itself.
  timing::PathStats stats;
  timing::PathExtractor(nl).extract({}, &stats);
  EXPECT_GT(stats.raw_topological, 0.0);
  EXPECT_GT(stats.final_paths, 0u);
  EXPECT_EQ(gen.paths.size(), stats.final_paths);
  EXPECT_EQ(gen.timing_constraints, stats.final_paths);
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

// ---- canonical constraint classes ----

/// An order-independent value key of a posynomial, built independently of
/// the generator's hashed key: its (factors, coefficient) terms, sorted.
using TermKey = std::pair<std::vector<std::pair<int, double>>, double>;
std::vector<TermKey> term_key(const posy::Posynomial& p) {
  std::vector<TermKey> key;
  for (const auto& t : p.terms()) {
    TermKey k;
    for (const auto& f : t.factors()) k.first.emplace_back(f.var, f.exp);
    k.second = t.coeff();
    key.push_back(std::move(k));
  }
  std::sort(key.begin(), key.end());
  return key;
}

netlist::Netlist adder64() {
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 64;
  return test::generate("adder", "domino_cla", spec);
}

netlist::Netlist incrementor16() {
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 16;
  return test::generate("incrementor", "ks_prefix", spec);
}

TEST_F(ConstraintsTest, NoTwoEmittedConstraintsShareACanonicalKey) {
  for (const auto& nl : {adder64(), incrementor16()}) {
    ConstraintOptions opt = options(600.0);
    opt.precharge_spec_ps = 400.0;
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    const auto& cons = gen.problem->constraints();
    std::set<std::vector<TermKey>> seen;
    for (const auto& c : cons)
      EXPECT_TRUE(seen.insert(term_key(c.lhs)).second)
          << nl.name() << ": " << c.tag << " duplicates an earlier constraint";
    // Fewer constraints than the paths and arcs they stand for: the
    // regularity the classes exploit.
    ASSERT_EQ(gen.origins.size(), cons.size());
    size_t logical = 0;
    for (size_t j = 0; j < cons.size(); ++j)
      logical += constraint_members(gen, j).size();
    EXPECT_LT(cons.size(), logical) << nl.name();
    ASSERT_EQ(gen.path_constraint.size(), gen.paths.size());
    // Every path maps to a timing constraint that names it as a member.
    for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
      const size_t j = gen.path_constraint[pi];
      ASSERT_LT(j, cons.size());
      const auto members = constraint_members(gen, j);
      const bool eval =
          gen.paths[pi].phase == netlist::Phase::kEvaluate;
      const std::string tag =
          util::strfmt("%s_path%zu", eval ? "eval" : "pre", pi);
      EXPECT_NE(std::find(members.begin(), members.end(), tag),
                members.end())
          << cons[j].tag << " does not name " << tag;
    }
  }
}

TEST_F(ConstraintsTest, CanonicalTimingConstraintsMatchPerPathConstraints) {
  for (const auto& nl : {adder64(), incrementor16()}) {
    ConstraintOptions opt = options(600.0);
    opt.precharge_spec_ps = 400.0;
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    const auto& cons = gen.problem->constraints();
    const auto delays = path_delays(nl, gen, opt.slope_budget_ps);
    std::mt19937 rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
      util::Vec x(gen.vars->size());
      for (size_t v = 0; v < x.size(); ++v) {
        const auto& info = gen.vars->info(static_cast<posy::VarId>(v));
        // Log-uniform in the box.
        std::uniform_real_distribution<double> u(std::log(info.lower),
                                                 std::log(info.upper));
        x[v] = std::exp(u(rng));
      }
      // Each path at its own spec, as per-path emission would have it.
      double per_path = 0.0;
      for (size_t pi = 0; pi < gen.paths.size(); ++pi)
        per_path =
            std::max(per_path, delays[pi].eval(x) / gen.path_specs[pi]);
      double canonical = 0.0;
      for (size_t j = 0; j < cons.size(); ++j)
        if (gen.origins[j].kind == ConstraintOrigin::Kind::kPath)
          canonical = std::max(
              canonical, cons[j].lhs.eval(x) * gen.problem->scale(j));
      EXPECT_NEAR(canonical, per_path, 1e-12 * per_path)
          << nl.name() << " trial " << trial;
    }
  }
}

netlist::Netlist mux4x32() {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 32;
  return test::generate("mux", "strong_pass", spec);
}

TEST_F(ConstraintsTest, EverySlopeMemberMatchesItsClassConstraint) {
  // Each distinct arc model is built once and every transition with the
  // same key joins the class it went to. Each member's bound recomputed
  // the direct way, from its own arc model, must be its class constraint
  // term for term.
  for (const auto& nl : {adder64(), mux4x32(), incrementor16()}) {
    ConstraintOptions opt = options(600.0);
    opt.precharge_spec_ps = 400.0;
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    // A name can stand for two arcs (a domino gate's clock reaches its
    // output through its precharge and its evaluate arc), so each
    // recomputed bound consumes one matching entry.
    std::multimap<std::string, size_t> owners;
    for (size_t c = 0; c < gen.static_classes.size(); ++c)
      for (const auto& m : gen.static_classes[c].members) owners.emplace(m, c);
    // Each static class's constraint, found through its origin.
    std::vector<std::vector<TermKey>> class_key(gen.static_classes.size());
    size_t static_constraints = 0;
    for (size_t j = 0; j < gen.origins.size(); ++j) {
      if (gen.origins[j].kind != ConstraintOrigin::Kind::kStatic) continue;
      class_key[gen.origins[j].cls] =
          term_key(gen.problem->constraints()[j].lhs);
      ++static_constraints;
    }
    ASSERT_EQ(static_constraints, gen.static_classes.size()) << nl.name();
    const auto caps = models::net_cap_posy_all(nl, gen.labels, tech_);
    std::vector<netlist::EdgeMap> maps;
    size_t checked = 0;
    for (const auto& arc : nl.arcs()) {
      netlist::arc_edge_maps(nl, arc, netlist::Phase::kEvaluate, maps);
      bool done[2] = {false, false};
      for (const auto& em : maps) {
        if (done[em.out_rise]) continue;
        done[em.out_rise] = true;
        posy::Posynomial direct =
            models::arc_model_posy(nl, arc, em.out_rise,
                                   posy::Posynomial(opt.slope_budget_ps),
                                   caps[static_cast<size_t>(arc.to)],
                                   gen.labels, lib_, tech_)
                .out_slope;
        direct *= 1.0 / opt.slope_budget_ps;
        const std::string name = util::strfmt(
            "slope_%s_%s from %s (%s)", nl.net(arc.to).name.c_str(),
            em.out_rise ? "r" : "f", nl.net(arc.from).name.c_str(),
            nl.comp(arc.comp).name.c_str());
        const auto want = term_key(direct);
        const auto [lo, hi] = owners.equal_range(name);
        auto it = lo;
        while (it != hi && class_key[it->second] != want) ++it;
        ASSERT_NE(it, hi) << nl.name() << ": " << name;
        owners.erase(it);
        ++checked;
      }
    }
    EXPECT_GT(checked, gen.slope_constraints) << nl.name();
    for (const auto& [name, c] : owners)
      EXPECT_EQ(name.rfind("incap_", 0), 0u) << nl.name() << ": " << name;
  }
}

TEST_F(ConstraintsTest, ArcModelsBuildOncePerDistinctKey) {
  // Work count: the generator builds at most one arc model per distinct
  // (coefficients, RC path, load, input slope) key, counted here
  // independently over every path step and slope transition.
  using Key =
      std::tuple<std::vector<double>, std::vector<std::pair<double, int>>,
                 std::vector<TermKey>, double>;
  auto& tel = obs::Telemetry::instance();
  for (const auto& nl : {adder64(), mux4x32()}) {
    ConstraintOptions opt = options(600.0);
    opt.precharge_spec_ps = 400.0;
    tel.reset();
    tel.enable(true);
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    tel.enable(false);
    const double bounds = tel.counter("core.congen.slope_bounds");
    const double built = tel.counter("core.congen.arc_models_built");

    const auto caps = models::net_cap_posy_all(nl, gen.labels, tech_);
    std::set<Key> keys;
    std::vector<models::RcDevice> path;
    auto add_key = [&](const netlist::Arc& arc, bool out_rise,
                       netlist::Phase phase, double slope) {
      const auto& m = lib_.coeffs(models::classify_arc(nl, arc, phase));
      models::arc_rc_path(nl, arc, out_rise, tech_, path, phase);
      std::vector<std::pair<double, int>> rc;
      for (const auto& d : path) rc.emplace_back(d.r, d.label);
      // The load exactly as built, in term order.
      std::vector<TermKey> load;
      for (const auto& t : caps[static_cast<size_t>(arc.to)].terms()) {
        TermKey k;
        for (const auto& f : t.factors()) k.first.emplace_back(f.var, f.exp);
        k.second = t.coeff();
        load.push_back(std::move(k));
      }
      keys.emplace(std::vector<double>{m.a_int, m.a_rc, m.a_slope, m.b_int,
                                       m.b_rc, m.b_slope,
                                       m.saturating_slope ? 1.0 : 0.0},
                   std::move(rc), std::move(load), slope);
    };
    for (const auto& p : gen.paths)
      for (size_t si = 0; si < p.steps.size(); ++si)
        add_key(p.steps[si].arc, p.steps[si].out_rise, p.phase,
                si > 0 ? opt.slope_budget_ps
                : p.start_slope >= 0.0 ? p.start_slope
                                       : tech_.default_input_slope);
    double transitions = 0;
    std::vector<netlist::EdgeMap> maps;
    for (const auto& arc : nl.arcs()) {
      netlist::arc_edge_maps(nl, arc, netlist::Phase::kEvaluate, maps);
      bool done[2] = {false, false};
      for (const auto& em : maps) {
        if (done[em.out_rise]) continue;
        done[em.out_rise] = true;
        ++transitions;
        add_key(arc, em.out_rise, netlist::Phase::kEvaluate,
                opt.slope_budget_ps);
      }
    }
    EXPECT_EQ(bounds, transitions) << nl.name();
    EXPECT_GT(built, 0.0) << nl.name();
    EXPECT_LE(built, static_cast<double>(keys.size())) << nl.name();
    EXPECT_LT(built * 10.0, bounds) << nl.name();
  }
}

TEST_F(ConstraintsTest, MergedClassesKeepTheSmallestMemberSpec) {
  // Two identical inverters into two outputs, with path pruning off so
  // both paths survive: one timing class per transition, emitted at the
  // tighter output's required time.
  netlist::Netlist nl("twins");
  const auto a = nl.add_net("a");
  const auto x = nl.add_net("x"), y = nl.add_net("y");
  const auto n = nl.add_label("N"), p = nl.add_label("P");
  nl.add_inverter("i0", a, x, n, p);
  nl.add_inverter("i1", a, y, n, p);
  nl.add_input(a);
  nl.add_output(x, 20.0);
  nl.add_output(y, 20.0);
  nl.finalize();
  ConstraintOptions opt = options(300.0);
  opt.output_required_ps = {250.0, 200.0};
  opt.prune.regularity = false;
  opt.prune.dominance = false;
  const auto gen = generate_problem(nl, opt, lib_, tech_);
  ASSERT_EQ(gen.paths.size(), 4u);  // rise + fall into each output
  EXPECT_EQ(gen.timing_constraints, 2u);
  util::Vec at(gen.vars->size(), 2.0);
  const auto delays = path_delays(nl, gen, opt.slope_budget_ps);
  for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
    const size_t j = gen.path_constraint[pi];
    EXPECT_NEAR(gen.problem->constraints()[j].lhs.eval(at) *
                    gen.problem->scale(j),
                delays[pi].eval(at) / 200.0, 1e-12);
  }
}

/// Terms of every constraint plus the objective.
size_t problem_terms(const GeneratedProblem& gen) {
  size_t terms = gen.problem->objective().num_terms();
  for (const auto& c : gen.problem->constraints()) terms += c.lhs.num_terms();
  return terms;
}

TEST_F(ConstraintsTest, EachPosynomialIsHeldOnceInTheProblem) {
  // The problem's constraints and objective are the only posynomials a
  // GeneratedProblem holds: its classes name members, not copies. Pinned
  // at default options and 400 ps.
  core::MacroSpec inc;
  inc.type = "incrementor";
  inc.n = 27;
  const std::pair<netlist::Netlist, size_t> cases[] = {
      {adder64(), 8790},
      {test::generate("incrementor", "ks_prefix", inc), 4598}};
  for (const auto& [nl, want] : cases) {
    const auto gen = generate_problem(nl, options(400.0), lib_, tech_);
    EXPECT_EQ(problem_terms(gen), want) << nl.name();
  }
}

TEST_F(ConstraintsTest, PowerObjectiveMatchesCostPosyTermForTerm) {
  // The problem builds its net capacitances once and weighs them into the
  // power objective itself. It and the standalone cost_posy must both be
  // every net's capacitance times its activity, summed in net order, bit
  // for bit.
  for (const auto& nl : {mux4x32(), incrementor16()}) {
    ConstraintOptions opt = options(500.0);
    opt.cost = CostMetric::kPower;
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    const auto caps = models::net_cap_posy_all(nl, gen.labels, tech_);
    const auto act = power::net_activities(nl, opt.activity);
    posy::PosyAccum sum;
    for (size_t n = 0; n < nl.net_count(); ++n) sum.add(caps[n] * act[n]);
    const auto want = sum.take();
    for (const auto& got :
         {gen.problem->objective(),
          cost_posy(nl, CostMetric::kPower, gen.labels, opt.activity, tech_)}) {
      ASSERT_EQ(got.num_terms(), want.num_terms()) << nl.name();
      for (size_t k = 0; k < got.num_terms(); ++k) {
        EXPECT_EQ(got.terms()[k].coeff(), want.terms()[k].coeff()) << k;
        EXPECT_TRUE(got.terms()[k].factors() == want.terms()[k].factors())
            << k;
      }
    }
  }
}

TEST_F(ConstraintsTest, OffsetMovedProblemIsBitIdenticalToAFreshBuild) {
  // assemble_problem writes one offset per timing and stage row, so a
  // problem moved through any sequence of specs is, bit for bit, the
  // problem a build at the last of them gives, and a round trip back to
  // the first spec restores it exactly. With OTB off the adder carries
  // stage rows too.
  core::MacroSpec inc;
  inc.type = "incrementor";
  inc.n = 27;
  core::MacroSpec mux;
  mux.type = "mux";
  mux.n = 4;
  const netlist::Netlist cases[] = {
      adder64(), test::generate("incrementor", "ks_prefix", inc),
      test::generate("mux", "strong_pass", mux)};
  size_t stage_rows = 0;
  for (const auto& nl : cases) {
    for (const bool otb : {true, false}) {
      ConstraintOptions opt = options(600.0);
      opt.otb = otb;
      opt.precharge_spec_ps = 450.0;
      auto gen = generate_problem(nl, opt, lib_, tech_);
      for (const auto& [spec, pre] :
           {std::pair{517.3, 301.9}, std::pair{433.1, -1.0},
            std::pair{600.0, 450.0}}) {
        assemble_problem(gen, spec, pre, {}, nl);
        opt.delay_spec_ps = spec;
        opt.precharge_spec_ps = pre;
        SCOPED_TRACE(nl.name() + util::strfmt(" otb=%d at %.1f ps", otb,
                                              spec));
        test::expect_same_problem(gen, generate_problem(nl, opt, lib_, tech_));
      }
      stage_rows += gen.stage_constraints;
    }
  }
  EXPECT_GT(stage_rows, 0u);
}

TEST_F(ConstraintsTest, RescaledProblemEqualsAFreshBuildAtTheNewSpecs) {
  // assemble_problem moves the built rows' offsets in place; the result
  // is the problem a fresh build at the new specs gives, stage deadlines
  // (no OTB) and per-output required times included.
  core::MacroSpec cmp;
  cmp.type = "comparator";
  cmp.n = 16;
  size_t stage_constraints = 0;  // the comparator's domino stages
  for (const auto& nl : {test::generate("comparator", "xorsum2_nor4", cmp),
                         incrementor16()}) {
    ConstraintOptions opt = options(600.0);
    opt.otb = false;
    opt.precharge_spec_ps = 450.0;
    auto gen = generate_problem(nl, opt, lib_, tech_);
    std::vector<double> required(nl.outputs().size(), -1.0);
    required.front() = 380.0;
    for (const auto& [spec, pre] :
         {std::pair{500.0, 300.0}, std::pair{420.0, -1.0}}) {
      assemble_problem(gen, spec, pre, required, nl);
      opt.delay_spec_ps = spec;
      opt.precharge_spec_ps = pre;
      opt.output_required_ps = required;
      const auto fresh = generate_problem(nl, opt, lib_, tech_);
      SCOPED_TRACE(nl.name() + util::strfmt(" at %.0f ps", spec));
      test::expect_same_problem(gen, fresh);
    }
    stage_constraints += gen.stage_constraints;
    // A new slope budget rebuilds everything but the kept paths.
    opt.slope_budget_ps = 150.0;
    const size_t paths = gen.paths.size();
    build_problem(gen, nl, opt, lib_, tech_);
    EXPECT_EQ(gen.paths.size(), paths);
    SCOPED_TRACE(nl.name() + " rebuilt at a 150 ps slope budget");
    test::expect_same_problem(gen, generate_problem(nl, opt, lib_, tech_));
  }
  EXPECT_GT(stage_constraints, 0u);
}

TEST_F(ConstraintsTest, ConstantBoundsLeaveTheMemberMapAligned) {
  // Two independent chains: a -> b -> c with both labels fixed, whose
  // delays are constant rows and whose slopes are constants the GP drops,
  // and d -> e free. No constraint may stand for a dropped class's
  // members.
  netlist::Netlist nl("fixed_and_free");
  const auto a = nl.add_net("a"), b = nl.add_net("b"), c = nl.add_net("c");
  const auto d = nl.add_net("d"), e = nl.add_net("e");
  const auto n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
  const auto n2 = nl.add_label("N2"), p2 = nl.add_label("P2");
  nl.fix_label(n1, 1.0);
  nl.fix_label(p1, 2.0);
  nl.add_inverter("i0", a, b, n1, p1);
  nl.add_inverter("i1", b, c, n1, p1);
  nl.add_inverter("i2", d, e, n2, p2);
  nl.add_input(a);
  nl.add_input(d);
  nl.add_output(c, 10.0);
  nl.add_output(e, 10.0);
  nl.finalize();
  const ConstraintOptions opt = options(500.0);
  auto gen = generate_problem(nl, opt, lib_, tech_);
  const auto& cons = gen.problem->constraints();
  ASSERT_EQ(gen.origins.size(), cons.size());
  EXPECT_EQ(gen.timing_constraints + gen.slope_constraints, cons.size());
  size_t fixed = 0;
  util::Vec x1(gen.vars->size(), 1.0), x2(gen.vars->size(), 3.0);
  const auto delays = path_delays(nl, gen, opt.slope_budget_ps);
  for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
    const std::string tag = util::strfmt("eval_path%zu", pi);
    if (gen.paths[pi].start == a) {
      // The fixed chain: a row on its constant delay.
      ASSERT_TRUE(delays[pi].is_constant()) << tag;
      EXPECT_NEAR(path_model_delay(gen, pi, x1), delays[pi].constant_value(),
                  1e-12 * delays[pi].constant_value())
          << tag;
      ++fixed;
    }
    const size_t j = gen.path_constraint[pi];
    ASSERT_LT(j, cons.size()) << tag;
    const auto members = constraint_members(gen, j);
    EXPECT_NE(std::find(members.begin(), members.end(), tag), members.end())
        << cons[j].tag << " does not name " << tag;
    EXPECT_NEAR(path_model_delay(gen, pi, x2), delays[pi].eval(x2),
                1e-12 * delays[pi].eval(x2));
  }
  EXPECT_EQ(fixed, 2u);  // rise and fall
  // Every constraint stands for members that carry its own tag.
  for (size_t j = 0; j < cons.size(); ++j) {
    const auto members = constraint_members(gen, j);
    ASSERT_FALSE(members.empty()) << cons[j].tag;
    EXPECT_EQ(members.front().rfind(cons[j].tag, 0), 0u)
        << cons[j].tag << " stands for " << members.front();
  }
  // A constant bound is checked again at every new spec.
  assemble_problem(gen, 400.0, -1.0, {}, nl);
  EXPECT_TRUE(gp::verify_status(verify_generated(gen, {}, "fixed")).ok());
  assemble_problem(gen, 1.0, -1.0, {}, nl);
  EXPECT_EQ(gp::verify_status(verify_generated(gen, {}, "fixed")).reason,
            util::FailureReason::kInfeasible);
}

}  // namespace
}  // namespace smart::core
