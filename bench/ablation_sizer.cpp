// Ablation bench for the design decisions DESIGN.md §5 calls out:
//   - model accuracy vs sizing-loop behaviour (§5.1 of the paper),
//   - opportunistic time borrowing (OTB) on/off for multi-stage domino,
//   - cost metric (width vs power vs clock load) on a domino mux.

#include "common.h"

using namespace smart;

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  // ---- model accuracy (saturating vs linear slope basis vs unfitted) ----
  {
    core::MacroSpec spec;
    spec.type = "incrementor";
    spec.n = 13;
    const auto nl = bench::generate("incrementor", "ks_prefix", spec);
    util::Table table({"model library", "fit RMS (static delay)",
                       "converged at iter", "final width (um)", "status"});
    struct LibCase {
      const char* name;
      models::ModelLibrary lib;
      double rms;
    };
    models::FitReport rep_sat, rep_lin;
    std::vector<LibCase> cases;
    cases.push_back(
        {"calibrated, saturating slope",
         models::calibrate(bench::tech(), &rep_sat, {true}),
         rep_sat.per_class[0].delay_rms_rel});
    cases.push_back(
        {"calibrated, linear slope",
         models::calibrate(bench::tech(), &rep_lin, {false}),
         rep_lin.per_class[0].delay_rms_rel});
    cases.push_back({"unfitted analytic defaults", models::ModelLibrary{},
                     -1.0});
    for (auto& c : cases) {
      core::IsoDelayOptions opt;
      opt.sizer.max_respec_iters = 20;
      const auto cmp = core::run_iso_delay(nl, bench::tech(), c.lib, opt);
      table.add_row({c.name,
                     c.rms >= 0 ? util::strfmt("%.1f%%", 100 * c.rms) : "-",
                     cmp.smart.converged_iteration > 0
                         ? util::strfmt("%d", cmp.smart.converged_iteration)
                         : "never",
                     cmp.smart.ok ? bench::num(cmp.smart.total_width_um, 1)
                                  : "-",
                     cmp.smart.message});
    }
    std::printf("%s", table.render(
        "Ablation 1 - model accuracy vs sizing loop (13-bit incrementor, "
        "iso-delay)").c_str());
    bench::paper_note(
        "§5.1: \"Better model accuracy leads to faster convergence\" — "
        "degraded models need more STA-respec iterations or fail to "
        "converge within the budget.");
  }

  // ---- OTB on/off ----
  {
    // The canonical time-borrowing scenario ([12]): an intrinsically slow
    // D1 stage (wide 8-way OR of 2-high stacks) followed by a light D2
    // stage. Without borrowing, the D1 stage must finish inside its own
    // half of the budget; with OTB it may eat into the D2 stage's share.
    netlist::Netlist nl("otb_pair");
    using netlist::Stack;
    const auto clk = nl.add_net("clk", netlist::NetKind::kClock);
    std::vector<Stack> branches;
    for (int i = 0; i < 8; ++i) {
      const auto a = nl.add_net(util::strfmt("a%d", i));
      const auto b = nl.add_net(util::strfmt("b%d", i));
      nl.add_input(a);
      nl.add_input(b);
      branches.push_back(Stack::series(
          {Stack::leaf(a, 0), Stack::leaf(b, 0)}));
    }
    const auto n1 = nl.add_label("N1");
    SMART_CHECK(n1 == 0, "label order");
    const auto p1 = nl.add_label("P1");
    const auto nf = nl.add_label("NF");
    const auto dyn1 = nl.add_net("dyn1");
    nl.add_component("d1", dyn1,
                     netlist::DominoGate{Stack::parallel(std::move(branches)),
                                         p1, nf, clk, 0.1});
    const auto ni = nl.add_label("NI"), pi = nl.add_label("PI");
    const auto mid = nl.add_net("mid");
    nl.add_inverter("i1", dyn1, mid, ni, pi);
    const auto n2 = nl.add_label("N2"), p2 = nl.add_label("P2");
    const auto dyn2 = nl.add_net("dyn2");
    nl.add_component("d2", dyn2,
                     netlist::DominoGate{Stack::leaf(mid, n2), p2, -1, clk,
                                         0.1});
    const auto ni2 = nl.add_label("NI2"), pi2 = nl.add_label("PI2");
    const auto out = nl.add_net("out");
    nl.add_inverter("i2", dyn2, out, ni2, pi2);
    nl.add_output(out, 20.0);
    nl.finalize();

    util::Table table({"time borrowing", "width (um)", "delay (ps)",
                       "status"});
    for (bool otb : {true, false}) {
      core::Sizer sizer(bench::tech(), bench::library());
      core::SizerOptions opt;
      opt.delay_spec_ps = 72.0;
      opt.precharge_spec_ps = 120.0;
      opt.otb = otb;
      const auto r = sizer.size(nl, opt);
      table.add_row({otb ? "OTB on" : "OTB off (stage deadlines)",
                     r.ok ? bench::num(r.total_width_um, 1) : "-",
                     r.ok ? bench::num(r.measured_delay_ps, 1) : "-",
                     r.message});
    }
    std::printf("%s", table.render(
        "Ablation 2 - opportunistic time borrowing (slow-D1 / fast-D2 "
        "pair)").c_str());
    bench::paper_note(
        "§5.3/[12]: the formulation natively takes OTB into account, "
        "allowing application to the most critical circuits; without "
        "borrowing the slow D1 stage must meet its own phase deadline, "
        "costing width (or feasibility) at the same end-to-end spec.");
  }

  // ---- cost metric ----
  {
    core::MacroSpec spec;
    spec.type = "mux";
    spec.n = 8;
    spec.params["bits"] = 8;
    const auto nl = bench::generate("mux", "domino_unsplit", spec);
    const auto anchor = bench::iso(nl);
    util::Table table({"cost metric", "width (um)", "clock width (um)",
                       "power (mW)", "status"});
    for (auto cost : {core::CostMetric::kTotalWidth, core::CostMetric::kPower,
                      core::CostMetric::kClockLoad}) {
      core::Sizer sizer(bench::tech(), bench::library());
      core::SizerOptions opt;
      opt.delay_spec_ps = anchor.baseline.measured_delay_ps;
      opt.precharge_spec_ps = std::max(
          anchor.baseline.measured_precharge_ps,
          anchor.baseline.measured_delay_ps);
      opt.cost = cost;
      const auto r = sizer.size(nl, opt);
      double mw = 0.0;
      if (r.ok) {
        power::PowerEstimator est(bench::tech());
        mw = est.estimate(nl, r.sizing).total_mw;
      }
      const char* name = cost == core::CostMetric::kTotalWidth
                             ? "total width (area)"
                             : cost == core::CostMetric::kPower
                                   ? "power"
                                   : "clock load";
      table.add_row({name, r.ok ? bench::num(r.total_width_um, 1) : "-",
                     r.ok ? bench::num(r.clock_width_um, 1) : "-",
                     r.ok ? bench::num(mw, 3) : "-", r.message});
    }
    std::printf("%s", table.render(
        "Ablation 3 - designer cost metric (8:1 domino mux, iso-delay)")
        .c_str());
    bench::paper_note(
        "Fig 1: SMART picks the best solution per a designer cost function "
        "(area, power); each metric shifts width between data and clocked "
        "devices.");
  }
  return 0;
}
