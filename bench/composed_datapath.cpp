// Capstone scalability run: a realistic execution-unit bypass slice
// composed from database macros at the transistor level —
//
//   operand mux (2:1 x 32, encoded select)
//   -> 32-bit static CLA adder
//   -> zero-detect flag on the sum
//
// sized as ONE unit so the optimizer trades width across all macro
// boundaries, then verified (timing, function, corners). The paper sizes
// macros one at a time; composing them is the natural next step its §2
// editing discussion points at, and it exercises every subsystem of this
// reproduction in a single flow.

#include "common.h"

#include <ctime>
#include <map>

#include "blocks/block.h"
#include "core/corners.h"
#include "refsim/critical_path.h"
#include "refsim/logic_sim.h"
#include "timing/paths.h"

using namespace smart;
using util::strfmt;

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  const int bits = 32;
  const auto t0 = clock();
  const auto slice = blocks::bypass_slice(bench::database(), bits);
  const auto stats = slice.device_stats(slice.min_sizing());
  std::printf("composed 32-bit bypass slice: %zu nets, %zu components, "
              "%d devices, %zu size labels\n",
              slice.net_count(), slice.comp_count(), stats.device_count,
              slice.label_count());

  timing::PathExtractor extractor(slice);
  timing::PathStats pstats;
  extractor.extract({}, &pstats);
  std::printf("paths: %.0f raw -> %zu constraints (%.0fx reduction)\n",
              pstats.raw_topological, pstats.after_dominance,
              pstats.raw_topological /
                  static_cast<double>(pstats.after_dominance));

  const auto cmp = bench::iso(slice);
  if (!cmp.ok) {
    std::printf("sizing failed: %s\n", cmp.smart.message.c_str());
    return 1;
  }
  const double secs = double(clock() - t0) / CLOCKS_PER_SEC;
  util::Table table({"metric", "hand baseline", "SMART"});
  table.add_row({"delay (ps)", bench::num(cmp.baseline.measured_delay_ps, 1),
                 bench::num(cmp.smart.measured_delay_ps, 1)});
  table.add_row({"total width (um)",
                 bench::num(cmp.baseline.total_width_um, 1),
                 bench::num(cmp.smart.total_width_um, 1)});
  table.add_row({"power (mW)", bench::num(cmp.baseline_power.total_mw, 3),
                 bench::num(cmp.smart_power.total_mw, 3)});
  std::printf("%s", table.render(
      "Cross-macro sizing at iso-delay (single GP over the whole slice)")
      .c_str());
  std::printf("savings: %.0f%% width, %.0f%% power; flow time %.1fs\n",
              100 * cmp.width_saving(), 100 * cmp.power_saving(), secs);

  // The critical path crosses all three macros.
  const auto path = refsim::critical_path(slice, cmp.smart.sizing,
                                          bench::tech());
  bool via_mux = false, via_add = false, via_zd = false;
  for (const auto& s : path.steps) {
    const auto& name = slice.comp(s.arc.comp).name;
    via_mux |= name.rfind("mux/", 0) == 0;
    via_add |= name.rfind("add/", 0) == 0;
    via_zd |= name.rfind("zd/", 0) == 0;
  }
  std::printf("critical path: %zu stages, crosses mux=%s adder=%s "
              "zero-detect=%s\n",
              path.steps.size(), via_mux ? "yes" : "no",
              via_add ? "yes" : "no", via_zd ? "yes" : "no");

  // Function survives sizing (spot vectors) and corners sign off.
  refsim::LogicSim sim(slice);
  int func_fails = 0;
  for (uint64_t a : {0ull, 0xdeadbeefull, 0xffffffffull}) {
    for (uint64_t b : {1ull, 0x12345678ull}) {
      std::map<netlist::NetId, bool> in;
      in[slice.find_net("sel")] = false;
      in[slice.find_net("cin")] = false;
      for (int i = 0; i < bits; ++i) {
        in[slice.find_net(strfmt("d%d_0", i))] = (a >> i) & 1;
        in[slice.find_net(strfmt("d%d_1", i))] = !((a >> i) & 1);
        in[slice.find_net(strfmt("b%d", i))] = (b >> i) & 1;
      }
      const auto st = sim.evaluate(in);
      const uint64_t sum = (a + b) & 0xffffffffull;
      for (int i = 0; i < bits; ++i)
        if (st[static_cast<size_t>(slice.find_net(strfmt("add/s%d", i)))] !=
            refsim::from_bool((sum >> i) & 1))
          ++func_fails;
    }
  }
  const auto sweep =
      core::measure_corners(slice, cmp.smart.sizing, bench::tech());
  std::printf("function after sizing: %s; corners typ/fast/slow = "
              "%.1f / %.1f / %.1f ps\n",
              func_fails == 0 ? "correct" : "BROKEN",
              sweep.typical.delay_ps, sweep.fast.delay_ps,
              sweep.slow.delay_ps);
  bench::paper_note(
      "Beyond the paper's per-macro scope: the composed slice is sized as "
      "one geometric program, the optimizer balances width across macro "
      "boundaries, and the drop-in protocol (timing / pin caps / edges) "
      "holds for the whole unit.");
  return func_fails == 0 ? 0 : 1;
}
