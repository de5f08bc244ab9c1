// Figure 7: topology exploration on a 32-bit two-phase dynamic (D1-D2)
// comparator. The paper compares the original (Xorsum2/Nor4) against two
// alternative topologies and a SMART resize of the original topology, at
// identical delay/precharge: resizing gives area 0.90 / clock 0.68; the
// Xorsum1/Nor8 alternative area 0.99 / clock 0.83; Xorsum4/Nor4 area 1.11
// / clock 0.755 — the original topology wins, resizing still saves 31%+
// clock without sacrificing performance.

#include "common.h"

using namespace smart;

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  core::MacroSpec spec;
  spec.type = "comparator";
  spec.n = 32;
  spec.load_ff = 12.0;

  // The "original" design: the paper's production topology, hand-sized.
  const auto original = bench::generate("comparator", "xorsum2_nor4", spec);
  core::BaselineSizer baseline(bench::tech());
  const auto orig_sizing = baseline.size(original);
  core::Sizer sizer(bench::tech(), bench::library());
  const auto orig = sizer.measure(original, orig_sizing);
  const auto orig_stats = original.device_stats(orig_sizing);

  util::Table table({"design", "Delay", "Pre", "Area", "Clock", "status"});
  table.add_row({"original: Xorsum2/Nor4 (hand)", "1.00", "1.00", "1.00",
                 "1.00", "reference"});

  // SMART runs optimize clock power at iso delay/precharge — the metric
  // the paper reports alongside area for this block.
  auto explore = [&](const char* label, const char* topo) {
    const auto nl = bench::generate("comparator", topo, spec);
    core::IsoDelayOptions opt;
    opt.sizer.cost = core::CostMetric::kPower;
    // Match the original's performance, not each topology's own baseline.
    core::SizerOptions sopt = opt.sizer;
    sopt.delay_spec_ps = orig.measured_delay_ps;
    sopt.precharge_spec_ps = orig.measured_precharge_ps;  // Pre = 1.00
    sopt.input_cap_limits_ff =
        sizer.input_caps(original, orig_sizing);  // same pin budget
    const auto r = sizer.size(nl, sopt);
    if (!r.converged()) {
      table.add_row({label, "-", "-", "-", "-",
                     r.ok ? r.message : "failed"});
      return;
    }
    table.add_row(
        {label, bench::num(r.measured_delay_ps / orig.measured_delay_ps),
         bench::num(r.measured_precharge_ps /
                    std::max(orig.measured_precharge_ps, 1e-9)),
         bench::num(r.total_width_um / orig_stats.total_width),
         bench::num(r.clock_width_um / orig_stats.clock_gate_width),
         r.message});
  };

  explore("SMART resize: same topology", "xorsum2_nor4");
  explore("SMART explore: Xorsum1/Nor8", "xorsum1_nor8");
  explore("SMART explore: Xorsum4/Nor4", "xorsum4_nor4");

  std::printf("%s", table.render(
      "Figure 7 - 32-bit domino comparator topology exploration "
      "(normalized to the original hand design; iso delay & precharge)")
      .c_str());
  bench::paper_note(
      "Fig 7: resize of the original topology -> area 0.90 / clock 0.68; "
      "Xorsum1+Nor8 -> area 0.99 / clock 0.83; Xorsum4+Nor4 -> area 1.11 / "
      "clock 0.755. Reproduction target: the original topology remains "
      "best, resizing alone cuts clock load ~31% at unchanged timing.");
  return 0;
}
