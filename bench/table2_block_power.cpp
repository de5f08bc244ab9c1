// Table 2: post-layout power savings from applying SMART to the macros of
// four functional blocks of a high-performance microprocessor stepping:
// instruction alignment (41%), two execution bypass blocks (22%, 19%) and
// an instruction fetch block (7%). The savings track each block's datapath
// macro content; our synthetic blocks (see DESIGN.md substitutions) mix
// macro instances and random control logic to decreasing macro shares.

#include "common.h"

#include "blocks/block.h"

using namespace smart;

namespace {

blocks::BlockSpec block1() {
  // Instruction alignment: shifter-heavy, dominated by wide domino muxes.
  blocks::BlockSpec spec;
  spec.name = "Block1 (instruction align)";
  spec.seed = 11;
  spec.filler_devices = 120;
  for (int i = 0; i < 4; ++i) {
    blocks::MacroRequest req;
    req.type = "mux";
    req.topology = "domino_unsplit";
    req.spec.type = "mux";
    req.spec.n = 8;
    req.spec.params["bits"] = 8;
    spec.macros.push_back(req);
  }
  return spec;
}

blocks::BlockSpec block2() {
  // Execution bypass: pass-gate muxes plus a comparator, moderate control.
  blocks::BlockSpec spec;
  spec.name = "Block2 (exe bypass)";
  spec.seed = 22;
  spec.filler_devices = 700;
  for (int i = 0; i < 2; ++i) {
    blocks::MacroRequest req;
    req.type = "mux";
    req.topology = "domino_unsplit";
    req.spec.type = "mux";
    req.spec.n = 8;
    req.spec.params["bits"] = 8;
    spec.macros.push_back(req);
  }
  blocks::MacroRequest pass;
  pass.type = "mux";
  pass.topology = "strong_pass";
  pass.spec.type = "mux";
  pass.spec.n = 4;
  pass.spec.params["bits"] = 16;
  spec.macros.push_back(pass);
  blocks::MacroRequest cmp;
  cmp.type = "comparator";
  cmp.topology = "xorsum2_nor4";
  cmp.spec.type = "comparator";
  cmp.spec.n = 32;
  spec.macros.push_back(cmp);
  return spec;
}

blocks::BlockSpec block3() {
  // Second bypass block: similar content, more control logic.
  blocks::BlockSpec spec;
  spec.name = "Block3 (exe bypass)";
  spec.seed = 33;
  spec.filler_devices = 900;
  blocks::MacroRequest dom;
  dom.type = "mux";
  dom.topology = "domino_unsplit";
  dom.spec.type = "mux";
  dom.spec.n = 8;
  dom.spec.params["bits"] = 8;
  spec.macros.push_back(dom);
  blocks::MacroRequest pass;
  pass.type = "mux";
  pass.topology = "strong_pass";
  pass.spec.type = "mux";
  pass.spec.n = 4;
  pass.spec.params["bits"] = 16;
  spec.macros.push_back(pass);
  blocks::MacroRequest inc;
  inc.type = "incrementor";
  inc.topology = "ks_prefix";
  inc.spec.type = "incrementor";
  inc.spec.n = 13;
  spec.macros.push_back(inc);
  return spec;
}

blocks::BlockSpec block4() {
  // Instruction fetch: almost all random control logic, one small macro.
  blocks::BlockSpec spec;
  spec.name = "Block4 (ifetch)";
  spec.seed = 44;
  spec.filler_devices = 1500;
  blocks::MacroRequest dec;
  dec.type = "decoder";
  dec.topology = "predecode";
  dec.spec.type = "decoder";
  dec.spec.n = 4;
  spec.macros.push_back(dec);
  blocks::MacroRequest zd;
  zd.type = "zero_detect";
  zd.topology = "static_tree";
  zd.spec.type = "zero_detect";
  zd.spec.n = 16;
  spec.macros.push_back(zd);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  util::Table table({"Functional Block", "Power savings with SMART",
                     "macro power share", "devices", "macros converged"});
  for (const auto& spec : {block1(), block2(), block3(), block4()}) {
    const auto block = blocks::build_block(spec, bench::database());
    core::IsoDelayOptions opt;
    opt.sizer.cost = core::CostMetric::kPower;
    const auto ex = blocks::run_block_experiment(block, bench::tech(),
                                                 bench::library(), opt);
    table.add_row({spec.name, bench::pct(ex.power_saving()),
                   bench::pct(ex.before.macro_power_mw /
                              ex.before.total_power_mw),
                   util::strfmt("%d", ex.before.devices),
                   util::strfmt("%d/%d", ex.macros_converged,
                                ex.macros_total)});
  }
  std::printf("%s", table.render(
      "Table 2 - Power reduction from applying SMART to the datapath "
      "macros of four functional blocks (control logic untouched, no "
      "timing penalty)").c_str());
  bench::paper_note(
      "Table 2: Block1 41%, Block2 22%, Block3 19%, Block4 7%. "
      "Reproduction target: the same monotone ordering, driven by each "
      "block's macro power share.");
  return 0;
}
