// Tests for the SMART sizing loop (Fig 4): convergence, monotone area-delay
// behaviour, infeasibility handling, OTB and cost-metric effects, the
// iso-delay experiment protocol, and the working-set GP on the macros
// whose constraints mostly never bind.

#include <gtest/gtest.h>

#include <cmath>

#include "blocks/block.h"
#include "core/advisor.h"
#include "core/experiment.h"
#include "core/report.h"
#include "helpers.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "refsim/rc_timer.h"

namespace smart::core {
namespace {

class SizerTest : public ::testing::Test {
 protected:
  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
  Sizer sizer_{tech_, lib_};
};

TEST_F(SizerTest, ConvergesOnChainAtModerateSpec) {
  const auto nl = test::inverter_chain(3, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 120.0;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.converged()) << r.message;
  EXPECT_LE(r.measured_delay_ps, 120.0 * (1.0 + kConvergeTol));
  EXPECT_GT(r.total_width_um, 0.0);
  EXPECT_GT(r.respec_iterations, 0);
}

TEST_F(SizerTest, TighterSpecCostsMoreWidth) {
  const auto nl = test::inverter_chain(3, 30.0);
  double prev_width = 1e18;
  for (double spec : {90.0, 110.0, 140.0, 180.0}) {
    SizerOptions opt;
    opt.delay_spec_ps = spec;
    const auto r = sizer_.size(nl, opt);
    ASSERT_TRUE(r.ok) << "spec " << spec << ": " << r.message;
    EXPECT_LT(r.total_width_um, prev_width) << "spec " << spec;
    prev_width = r.total_width_um;
  }
}

TEST_F(SizerTest, ImpossibleSpecReportsBestEffort) {
  const auto nl = test::inverter_chain(3, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 5.0;  // physically unreachable
  const auto r = sizer_.size(nl, opt);
  EXPECT_FALSE(r.converged()) << r.message;
}

TEST_F(SizerTest, SolutionRespectsSlopeBudget) {
  const auto nl = test::inverter_chain(4, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 150.0;
  opt.slope_budget_ps = 100.0;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok);
  const refsim::RcTimer timer(tech_);
  const auto rep = timer.analyze(nl, r.sizing);
  // Model mismatch allows a little overshoot; grossly violating edges
  // would mean the slope constraints are not wired through.
  EXPECT_LT(rep.max_internal_slope, opt.slope_budget_ps * 1.25);
}

TEST_F(SizerTest, InputCapLimitRespected) {
  const auto nl = test::inverter_chain(3, 40.0);
  SizerOptions opt;
  opt.delay_spec_ps = 110.0;
  opt.input_cap_limit_ff = 4.0;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  const auto caps = sizer_.input_caps(nl, r.sizing);
  EXPECT_LE(caps[0], 4.0 * 1.06);  // limit plus the strictness slack
}

TEST_F(SizerTest, MeasureReportsConsistentNumbers) {
  const auto nl = test::inverter_chain(2, 15.0);
  const netlist::Sizing s(nl.label_count(), 2.0);
  const auto m = sizer_.measure(nl, s);
  EXPECT_TRUE(m.ok);
  EXPECT_GT(m.measured_delay_ps, 0.0);
  EXPECT_DOUBLE_EQ(m.total_width_um, nl.device_stats(s).total_width);
}

TEST_F(SizerTest, OtbReducesDominoWidth) {
  // Time borrowing relaxes per-stage deadlines, so the no-OTB design can
  // only be wider (or equal) at the same end-to-end spec.
  core::MacroSpec spec;
  spec.type = "comparator";
  spec.n = 16;
  const auto nl = test::generate("comparator", "xorsum2_nor4", spec);
  SizerOptions opt;
  opt.delay_spec_ps = 220.0;
  opt.precharge_spec_ps = 160.0;
  opt.otb = true;
  const auto with = sizer_.size(nl, opt);
  opt.otb = false;
  const auto without = sizer_.size(nl, opt);
  ASSERT_TRUE(with.ok) << with.message;
  ASSERT_TRUE(without.ok) << without.message;
  EXPECT_LE(with.total_width_um, without.total_width_um * 1.02);
}

TEST_F(SizerTest, ClockLoadMetricShrinksClockWidth) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 4;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  SizerOptions opt;
  opt.delay_spec_ps = 120.0;
  opt.precharge_spec_ps = 150.0;
  opt.cost = CostMetric::kTotalWidth;
  const auto by_width = sizer_.size(nl, opt);
  opt.cost = CostMetric::kClockLoad;
  const auto by_clock = sizer_.size(nl, opt);
  ASSERT_TRUE(by_width.ok) << by_width.message;
  ASSERT_TRUE(by_clock.ok) << by_clock.message;
  EXPECT_LE(by_clock.clock_width_um, by_width.clock_width_um * 1.05);
}

TEST_F(SizerTest, IsoDelayExperimentSavesWidth) {
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 4;
  const auto nl = test::generate("decoder", "predecode", spec);
  const auto cmp = run_iso_delay(nl, tech_, lib_);
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  // SMART at iso-delay must beat the over-designed baseline.
  EXPECT_GT(cmp.width_saving(), 0.05);
  // And not be slower than the original (within tolerance).
  EXPECT_LE(cmp.smart.measured_delay_ps,
            cmp.baseline.measured_delay_ps * 1.03);
}

TEST_F(SizerTest, IsoDelayDropInConstraintsHold) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 4;
  const auto nl = test::generate("mux", "strong_pass", spec);
  const auto cmp = run_iso_delay(nl, tech_, lib_);
  ASSERT_TRUE(cmp.ok) << cmp.smart.message;
  Sizer sizer(tech_, lib_);
  const auto base_caps = sizer.input_caps(nl, cmp.baseline.sizing);
  const auto smart_caps = sizer.input_caps(nl, cmp.smart.sizing);
  for (size_t i = 0; i < base_caps.size(); ++i)
    EXPECT_LE(smart_caps[i], base_caps[i] * 1.06) << "port " << i;
}

TEST_F(SizerTest, IsoDelayComparisonKeepsMeasurementsNotDiagnostics) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 4;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  const auto cmp = run_iso_delay(nl, tech_, lib_);
  const auto measured = sizer_.measure(nl, BaselineSizer(tech_).size(nl));
  EXPECT_TRUE(cmp.baseline.ok);
  EXPECT_EQ(cmp.baseline.sizing, measured.sizing);
  EXPECT_EQ(cmp.baseline.measured_delay_ps, measured.measured_delay_ps);
  EXPECT_EQ(cmp.baseline.measured_precharge_ps,
            measured.measured_precharge_ps);
  EXPECT_GT(cmp.baseline.measured_precharge_ps, 0.0);
  EXPECT_EQ(cmp.baseline.total_width_um, measured.total_width_um);
  EXPECT_EQ(cmp.baseline.clock_width_um, measured.clock_width_um);
  // The comparison keeps the SMART run's verdict and work counts, not its
  // solve diagnostics.
  EXPECT_GT(cmp.smart.respec_iterations, 0);
  EXPECT_GT(cmp.smart.gp_newton_iterations, 0);
  EXPECT_TRUE(cmp.smart.respec_trace.empty());
  EXPECT_TRUE(cmp.smart.binding_constraints.empty());
  EXPECT_TRUE(cmp.smart.solution_x.empty());
}

TEST_F(SizerTest, InputCapsMatchTheReferenceTimerBitForBit) {
  // The pin-cap limits of an iso-delay run come from input_caps; summed
  // in one component pass, they must equal RcTimer::net_cap exactly.
  core::MacroSpec adder;
  adder.type = "adder";
  adder.n = 32;
  core::MacroSpec mux;
  mux.type = "mux";
  mux.n = 8;
  mux.params["bits"] = 4;
  const refsim::RcTimer timer(tech_);
  for (const auto& nl : {test::generate("adder", "domino_cla", adder),
                         test::generate("mux", "tristate", mux),
                         test::inverter_chain(3, 25.0)}) {
    const auto sizing = BaselineSizer(tech_).size(nl);
    const auto caps = sizer_.input_caps(nl, sizing);
    ASSERT_EQ(caps.size(), nl.inputs().size());
    for (size_t i = 0; i < caps.size(); ++i)
      EXPECT_EQ(caps[i], timer.net_cap(nl, sizing, nl.inputs()[i].net))
          << nl.name() << " input " << i;
  }
}

TEST_F(SizerTest, ReportsPathAndConstraintStatistics) {
  core::MacroSpec spec;
  spec.type = "zero_detect";
  spec.n = 16;
  const auto nl = test::generate("zero_detect", "static_tree", spec);
  SizerOptions opt;
  opt.delay_spec_ps = 200.0;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.path_count, 0u);
  EXPECT_GT(r.constraint_count, r.path_count);
  EXPECT_GT(r.gp_newton_iterations, 0);
}

TEST_F(SizerTest, WidthGridSnapsUpAndStillMeetsSpec) {
  const auto nl = test::inverter_chain(3, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 120.0;
  opt.width_grid_um = 0.25;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.converged()) << r.message;
  for (double w : r.sizing) {
    const double cells = w / 0.25;
    EXPECT_NEAR(cells, std::round(cells), 1e-6) << w;
  }
  EXPECT_LE(r.measured_delay_ps, 120.0 * (1.0 + kConvergeTol));
  // Snapping up costs at most one grid cell per label vs continuous.
  SizerOptions cont = opt;
  cont.width_grid_um = -1.0;
  const auto rc = sizer_.size(nl, cont);
  EXPECT_LE(r.total_width_um,
            rc.total_width_um + 0.25 * 2 * static_cast<double>(nl.label_count()));
}

TEST_F(SizerTest, RespecTraceRecordsEveryIteration) {
  const auto nl = test::inverter_chain(3, 30.0);
  // A spec the loop meets, and one below what the chain can reach: a
  // best-effort GP result whose accepted record does not meet.
  for (const auto& [spec, converges] : {std::pair{120.0, true},
                                        std::pair{20.0, false}}) {
    SCOPED_TRACE(spec);
    SizerOptions opt;
    opt.delay_spec_ps = spec;
    opt.allow_relaxed_retry = false;
    opt.allow_baseline_fallback = false;
    const auto r = sizer_.size(nl, opt);
    ASSERT_TRUE(r.ok) << r.message;
    ASSERT_EQ(r.rung, SizingRung::kGp);

    ASSERT_FALSE(r.respec_trace.empty());
    size_t accepted = 0;
    size_t rejected = 0;
    for (size_t i = 0; i < r.respec_trace.size(); ++i) {
      const auto& it = r.respec_trace[i];
      // Every iteration leaves a record, pre-solve rejections included.
      EXPECT_EQ(it.iter, static_cast<int>(i));
      EXPECT_GT(it.model_spec_ps, 0.0);
      EXPECT_GT(it.slope_budget_ps, 0.0);
      if (it.rejected_pre_solve) {
        // Rejected before any solve: a status and no measurement.
        ++rejected;
        EXPECT_EQ(it.gp_status, gp::SolveStatus::kInfeasible);
        EXPECT_GT(it.constraint_count, 0u);
        EXPECT_EQ(it.measured_delay_ps, 0.0);
        EXPECT_EQ(it.total_width_um, 0.0);
        EXPECT_FALSE(it.meets);
        EXPECT_FALSE(it.accepted);
      }
      if (it.accepted) ++accepted;
    }
    // The spec below reach is box-infeasible at first: the gate rejects
    // it (and relaxes) before a solve succeeds.
    if (converges) {
      EXPECT_EQ(rejected, 0u);
    } else {
      EXPECT_GT(rejected, 0u);
    }
    // Exactly one accepted record, and it is the returned result: its
    // verdict, measurement and width.
    EXPECT_EQ(accepted, 1u);
    const RespecIteration* rec = r.accepted_record();
    ASSERT_NE(rec, nullptr);
    if (rec->meets) {
      EXPECT_EQ(rec->gp_status, gp::SolveStatus::kOptimal);
    }
    EXPECT_EQ(r.converged(), converges);
    EXPECT_EQ(rec->meets, r.converged());
    EXPECT_EQ(rec->measured_delay_ps, r.measured_delay_ps);
    EXPECT_EQ(rec->measured_precharge_ps, r.measured_precharge_ps);
    EXPECT_EQ(rec->total_width_um, r.total_width_um);
    EXPECT_EQ(rec->clock_width_um, r.clock_width_um);
    EXPECT_EQ(rec->iter + 1, r.respec_iterations);
    // No snapshot unless asked for: the default result stays lean.
    EXPECT_EQ(r.snapshot, nullptr);
  }
}

TEST_F(SizerTest, InputCapLimitsOfTheWrongLengthAreInvalidInput) {
  const auto nl = test::inverter_chain(3, 30.0);  // one input port
  SizerOptions opt;
  opt.delay_spec_ps = 120.0;
  opt.input_cap_limits_ff = {10.0, 10.0};
  const auto r = sizer_.size(nl, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status.reason, util::FailureReason::kInvalidInput);
  EXPECT_NE(r.message.find("input_cap_limits_ff has 2 entries"),
            std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("1 inputs"), std::string::npos) << r.message;
  // No rung was tried.
  EXPECT_TRUE(r.respec_trace.empty());
  EXPECT_EQ(r.gp_newton_iterations, 0);
}

TEST_F(SizerTest, RequiredTimesOfTheWrongLengthAreInvalidInput) {
  const auto nl = test::inverter_chain(3, 30.0);  // one output port
  SizerOptions opt;
  opt.delay_spec_ps = 120.0;
  opt.output_required_ps = {100.0, 100.0, 100.0};
  const auto r = sizer_.size(nl, opt);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status.reason, util::FailureReason::kInvalidInput);
  EXPECT_NE(r.message.find("output_required_ps has 3 entries"),
            std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("1 outputs"), std::string::npos) << r.message;
  EXPECT_TRUE(r.respec_trace.empty());
  EXPECT_EQ(r.gp_newton_iterations, 0);
}

TEST_F(SizerTest, ConstantBoundAboveItsLimitIsInfeasibleNotANumericalError) {
  // A fixed two-inverter chain a -> b -> c (N = 1, P = 2) beside a free
  // inverter d -> e, both into 10 fF. Its modeled delay is a constant about
  // 1.1x of 40 ps: at 40 ps the build is rejected as infeasible (GPV104)
  // and relaxed, and later respecs below that delay are certified
  // infeasible by the solve. Either way the loop relaxes and the GP rung
  // answers; at 60 ps it converges.
  netlist::Netlist nl("fixed_chain");
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
  SizerOptions opt;
  opt.delay_spec_ps = 40.0;
  const auto tight = sizer_.size(nl, opt);
  ASSERT_TRUE(tight.ok) << tight.message;
  EXPECT_EQ(tight.rung, SizingRung::kGp) << tight.message;
  EXPECT_NE(tight.status.reason, util::FailureReason::kNumericalError)
      << tight.message;
  bool infeasible = false;
  for (const auto& it : tight.respec_trace) {
    EXPECT_NE(it.gp_status, gp::SolveStatus::kNumericalError)
        << "iter " << it.iter;
    if (it.gp_status == gp::SolveStatus::kInfeasible) infeasible = true;
  }
  EXPECT_TRUE(infeasible);
  ASSERT_FALSE(tight.respec_trace.empty());
  EXPECT_TRUE(tight.respec_trace.front().rejected_pre_solve);

  opt.delay_spec_ps = 60.0;
  const auto loose = sizer_.size(nl, opt);
  ASSERT_TRUE(loose.ok) << loose.message;
  EXPECT_EQ(loose.rung, SizingRung::kGp);
  EXPECT_TRUE(loose.converged()) << loose.message;
}

TEST_F(SizerTest, SnapshotAlignsWithSolveDiagnostics) {
  const auto nl = test::inverter_chain(3, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 120.0;
  opt.keep_solve_snapshot = true;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  ASSERT_NE(r.snapshot, nullptr);
  const auto& snap = *r.snapshot;

  // The snapshot's problem matches the accepted solve's diagnostics
  // constraint-for-constraint — the invariant scope's tag mapping rests on:
  // the result's binding tags are the problem's tags at the binding set.
  ASSERT_NE(snap.gen.problem, nullptr);
  const auto& cons = snap.gen.problem->constraints();
  ASSERT_EQ(cons.size(), snap.gp.diag.constraints.size());
  ASSERT_EQ(r.binding_constraints.size(), snap.gp.diag.binding_set.size());
  ASSERT_FALSE(r.binding_constraints.empty());
  for (size_t i = 0; i < r.binding_constraints.size(); ++i)
    EXPECT_EQ(r.binding_constraints[i],
              cons.at(snap.gp.diag.binding_set[i]).tag)
        << i;

  // Paths and specs ride along: every path in exactly one class, with its
  // own spec.
  std::vector<int> classes_of(snap.gen.paths.size(), 0);
  for (const auto& cls : snap.gen.path_classes)
    for (const size_t pi : cls.paths) ++classes_of.at(pi);
  for (const int n : classes_of) EXPECT_EQ(n, 1);
  EXPECT_EQ(snap.gen.path_specs.size(), snap.gen.paths.size());
  for (double spec : snap.gen.path_specs) EXPECT_GT(spec, 0.0);

  // The snapshot solve evaluates consistently: the solution vector
  // reproduces the recorded objective on the regenerated problem.
  EXPECT_NEAR(snap.gen.problem->objective().eval(snap.gp.x),
              snap.gp.objective, 1e-9 * std::abs(snap.gp.objective) + 1e-9);
  ASSERT_NE(r.accepted_record(), nullptr);
  EXPECT_GT(r.accepted_record()->model_spec_ps, 0.0);
  EXPECT_EQ(snap.target_delay_ps, opt.delay_spec_ps);
}

TEST_F(SizerTest, SnapshotIsTheProblemAFreshBuildGivesAtTheAcceptedSpecs) {
  // The snapshot keeps the loop's own problem instead of generating it
  // again, after one extraction for the whole sizing. It must equal a fresh
  // generate_problem at the accepted record's specs and slope budget:
  // same constraints, tags, origins and classes, coefficients within
  // 1e-12 relative. At their iso specs mux/strong_pass/4 and the adder
  // both relax the slope budget once and then rescale the rebuilt problem.
  core::MacroSpec mux;
  mux.type = "mux";
  mux.n = 4;
  core::MacroSpec adder;
  adder.type = "adder";
  adder.n = 64;
  const netlist::Netlist cases[] = {
      test::generate("mux", "strong_pass", mux),
      test::generate("adder", "domino_cla", adder)};
  auto& tel = obs::Telemetry::instance();
  for (const auto& nl : cases) {
    SCOPED_TRACE(nl.name());
    // The iso-delay protocol's options (run_iso_delay).
    const auto base = BaselineSizer(tech_).size(nl);
    const auto rep = refsim::RcTimer(tech_).analyze(nl, base);
    SizerOptions opt;
    opt.delay_spec_ps = rep.worst_delay;
    opt.precharge_spec_ps =
        rep.worst_precharge > 0.0
            ? std::max(rep.worst_precharge, rep.worst_delay)
            : -1.0;
    opt.input_cap_limits_ff = sizer_.input_caps(nl, base);
    opt.slope_budget_ps =
        std::max(opt.slope_budget_ps, rep.max_internal_slope * 1.02);
    opt.keep_solve_snapshot = true;
    tel.reset();
    tel.enable(true);
    const auto r = sizer_.size(nl, opt);
    tel.enable(false);
    EXPECT_EQ(tel.counter("timing.extract.calls"), 1.0);
    ASSERT_EQ(r.rung, SizingRung::kGp) << r.message;
    ASSERT_NE(r.snapshot, nullptr);
    const RespecIteration& acc = *r.accepted_record();
    // The sizing rebuilt its problem at a relaxed slope budget.
    EXPECT_GT(acc.slope_budget_ps, opt.slope_budget_ps);

    ConstraintOptions copt;
    copt.delay_spec_ps = acc.model_spec_ps;
    copt.precharge_spec_ps = acc.model_pre_spec_ps;
    copt.slope_budget_ps = acc.slope_budget_ps;
    copt.input_cap_limits_ff = opt.input_cap_limits_ff;
    ASSERT_EQ(r.snapshot->gen.problem->constraints().size(),
              r.snapshot->gp.diag.constraints.size());
    test::expect_same_problem(r.snapshot->gen,
                              generate_problem(nl, copt, lib_, tech_));
  }
}

TEST_F(SizerTest, SnapshotIsRebuiltWhenTheSlopeBudgetMovedAfterAcceptance) {
  // When an infeasible iteration after the accepted one relaxed the slope
  // budget, the loop's problem is at the wrong budget: the snapshot is
  // rebuilt from the kept paths, and still equals a fresh build at the
  // accepted record's options. The advisor's pressured 2:1 mux sites
  // (0.70x the hand design's delay, as in bench/selection_map) hit this.
  DesignAdvisor advisor(macros::builtin_database(), tech_, lib_);
  size_t rebuilt = 0;
  for (const double load : {8.0, 40.0, 160.0}) {
    AdvisorRequest request;
    request.spec.type = "mux";
    request.spec.n = 2;
    request.spec.params["bits"] = 8;
    request.spec.load_ff = load;
    request.sizer.keep_solve_snapshot = true;
    request.delay_spec_ps = advisor.advise(request).derived_delay_spec_ps * 0.7;
    for (const auto& sol : advisor.advise(request).solutions) {
      if (sol.sizing.snapshot == nullptr) continue;
      SCOPED_TRACE(sol.netlist.name() + util::strfmt(" at %.0f fF", load));
      const RespecIteration& acc = *sol.sizing.accepted_record();
      if (acc.slope_budget_ps != sol.sizing.respec_trace.back().slope_budget_ps)
        ++rebuilt;
      ConstraintOptions copt;
      copt.delay_spec_ps = acc.model_spec_ps;
      copt.precharge_spec_ps = acc.model_pre_spec_ps;
      copt.slope_budget_ps = acc.slope_budget_ps;
      copt.input_cap_limits_ff = sizer_.input_caps(
          sol.netlist, BaselineSizer(tech_).size(sol.netlist));
      test::expect_same_problem(
          sol.sizing.snapshot->gen,
          generate_problem(sol.netlist, copt, lib_, tech_));
    }
  }
  EXPECT_GT(rebuilt, 0u);
}

TEST_F(SizerTest, ReportDescribesSolution) {
  const auto nl = test::inverter_chain(2, 15.0);
  SizerOptions opt;
  opt.delay_spec_ps = 150.0;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok);
  const std::string report = describe_solution(nl, r, tech_);
  EXPECT_NE(report.find("chain2"), std::string::npos);
  EXPECT_NE(report.find("converged"), std::string::npos);
  EXPECT_NE(report.find("N0"), std::string::npos);  // label table
  EXPECT_NE(report.find("mW"), std::string::npos);
}

TEST_F(SizerTest, TinyDeadlineTimesOutWithValidBestEffortPoint) {
  const auto nl = test::inverter_chain(4, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 100.0;
  // Far too small to cover extraction + constraint generation + the GP:
  // the deadline must surface as a structured kTimeout, and the ladder
  // must still hand back a usable sizing (the baseline fallback), never
  // an empty result or an exception.
  opt.gp.deadline_ms = 0.01;
  const auto r = sizer_.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.rung, SizingRung::kBaseline) << r.message;
  EXPECT_EQ(r.status.reason, util::FailureReason::kTimeout)
      << r.status.to_string();
  ASSERT_FALSE(r.sizing.empty());
  for (const double w : r.sizing) {
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GT(w, 0.0);
  }
  EXPECT_GT(r.total_width_um, 0.0);
}

TEST_F(SizerTest, WarmStartFromOwnSolutionConvergesCheaper) {
  const auto nl = test::inverter_chain(4, 30.0);
  SizerOptions opt;
  opt.delay_spec_ps = 90.0;  // tight enough that the GP works for it
  const auto cold = sizer_.size(nl, opt);
  ASSERT_TRUE(cold.ok) << cold.message;
  ASSERT_EQ(cold.rung, SizingRung::kGp);
  ASSERT_FALSE(cold.solution_x.empty());

  SizerOptions warm_opt = opt;
  warm_opt.warm_start = cold.solution_x;
  const auto warm = sizer_.size(nl, warm_opt);
  ASSERT_TRUE(warm.ok) << warm.message;
  // Re-solving from the solved point must cost fewer Newton iterations —
  // the property the serving layer's result cache banks on — and land on
  // the same design.
  EXPECT_LT(warm.gp_newton_iterations, cold.gp_newton_iterations);
  EXPECT_NEAR(warm.total_width_um, cold.total_width_um,
              0.02 * cold.total_width_um);
}

// The working-set GP (gp/solver.h) on generated macro GPs. The reference
// objectives are those of the same GPs solved over every constraint at
// once, which is what the solver did before it grew a working set.
class WorkingSetGpTest : public ::testing::Test {
 protected:
  gp::GpResult solve(const netlist::Netlist& nl, double delay_ps,
                     double precharge_ps = -1.0,
                     double slope_budget_ps = 120.0) {
    ConstraintOptions opt;
    opt.delay_spec_ps = delay_ps;
    opt.precharge_spec_ps = precharge_ps;
    opt.slope_budget_ps = slope_budget_ps;
    const auto gen = generate_problem(nl, opt, lib_, tech_);
    constraints_ = gen.problem->constraints().size();
    return gp::GpSolver().solve(*gen.problem);
  }

  const tech::Tech& tech_ = tech::default_tech();
  const models::ModelLibrary& lib_ = models::default_library();
  size_t constraints_ = 0;  ///< of the last solved GP
};

TEST_F(WorkingSetGpTest, Adder64MatchesTheWholeSolve) {
  MacroSpec spec;
  spec.type = "adder";
  spec.n = 64;
  const auto r = solve(test::generate("adder", "domino_cla", spec), 621.5,
                       161.0, 200.0);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.objective, 3851.866, 1e-4 * 3851.866);
  EXPECT_LT(r.diag.working_set.size(), constraints_);
  test::expect_working_set_certificate(r);
}

TEST_F(WorkingSetGpTest, KoggeStoneIncrementorMatchesTheWholeSolve) {
  MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 64;
  const auto r = solve(test::generate("incrementor", "ks_prefix", spec),
                       450.0);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.objective, 3639.046, 1e-4 * 3639.046);
  EXPECT_LT(r.diag.working_set.size(), constraints_);
  test::expect_working_set_certificate(r);
}

TEST_F(WorkingSetGpTest, ComposedSliceSolvesOverAFewOfItsConstraints) {
  const auto slice = blocks::bypass_slice(macros::builtin_database(), 32);
  const auto r = solve(slice, 2400.0);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_NEAR(r.objective, 1662.757, 1e-4 * 1662.757);
  EXPECT_LT(r.diag.working_set.size(), constraints_ / 10);
  test::expect_working_set_certificate(r);

  // Solved whole, this GP stopped at its iteration budget with objective
  // 1472.49; the working set reaches the optimum below it.
  const auto loose = solve(slice, 2700.0);
  ASSERT_EQ(loose.status, gp::SolveStatus::kOptimal) << loose.message;
  EXPECT_LE(loose.objective, 1472.49);
  test::expect_working_set_certificate(loose);
}

TEST_F(WorkingSetGpTest, SmallMuxSolvesWholeInOneRound) {
  MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  const auto r = solve(test::generate("mux", "strong_pass", spec), 80.0);
  EXPECT_EQ(r.diag.ws_rounds, 1);
  EXPECT_EQ(r.diag.working_set.size(), constraints_);
  EXPECT_GT(constraints_, 0u);
}

}  // namespace
}  // namespace smart::core
