#include "blocks/block.h"

#include <algorithm>
#include <map>

#include "netlist/compose.h"
#include "power/power.h"
#include "refsim/rc_timer.h"
#include "util/check.h"
#include "util/strfmt.h"

namespace smart::blocks {

using netlist::LabelId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Stack;
using netlist::StaticGate;
using util::strfmt;

Netlist random_logic(const std::string& name, int target_devices,
                     util::Rng& rng) {
  Netlist nl(name);
  // Primary inputs feeding the first layer.
  std::vector<NetId> pool;
  const int n_inputs = std::max(4, target_devices / 40);
  for (int i = 0; i < n_inputs; ++i) {
    const NetId in = nl.add_net(strfmt("in%d", i));
    nl.add_input(in);
    pool.push_back(in);
  }

  int devices = 0;
  int gate_idx = 0;
  std::vector<NetId> recent = pool;
  while (devices < target_devices) {
    // Pick a gate type; control logic mixes inverters and 2-3 input gates.
    const int kind = rng.uniform_int(0, 3);
    const int fanin = kind == 0 ? 1 : (kind == 3 ? 3 : 2);
    std::vector<Stack> leaves;
    const LabelId nlab = nl.add_label(strfmt("N%d", gate_idx));
    const LabelId plab = nl.add_label(strfmt("P%d", gate_idx));
    for (int f = 0; f < fanin; ++f) {
      // Bias toward recent nets to get realistic logic depth.
      const auto& source = rng.chance(0.7) && !recent.empty() ? recent : pool;
      const NetId in =
          source[static_cast<size_t>(rng.uniform_int(
              0, static_cast<int>(source.size()) - 1))];
      leaves.push_back(Stack::leaf(in, nlab));
    }
    const NetId out = nl.add_net(strfmt("g%d", gate_idx));
    Stack pd = fanin == 1
                   ? std::move(leaves.front())
                   : (rng.chance(0.5) ? Stack::series(std::move(leaves))
                                      : Stack::parallel(std::move(leaves)));
    nl.add_component(strfmt("gate%d", gate_idx), out,
                     StaticGate{std::move(pd), plab});
    devices += 2 * fanin;
    pool.push_back(out);
    recent.push_back(out);
    if (recent.size() > 12) recent.erase(recent.begin());
    ++gate_idx;
  }

  // Expose sinks: any net nobody reads becomes an output.
  std::vector<int> fanout(nl.net_count(), 0);
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto& comp = nl.comp(static_cast<int>(c));
    if (const auto* g = comp.as_static()) {
      std::vector<std::pair<NetId, LabelId>> leaves2;
      g->pulldown.collect_leaves(leaves2);
      for (const auto& [in, l] : leaves2) fanout[static_cast<size_t>(in)]++;
    }
  }
  for (size_t n = 0; n < nl.net_count(); ++n) {
    const auto id = static_cast<NetId>(n);
    bool is_input = false;
    for (const auto& p : nl.inputs()) is_input |= (p.net == id);
    if (!is_input && fanout[n] == 0) nl.add_output(id, 8.0);
  }
  nl.finalize();
  return nl;
}

Block build_block(const BlockSpec& spec, const core::MacroDatabase& db) {
  Block block;
  block.name = spec.name;
  for (const auto& req : spec.macros) {
    const auto* entry = db.find(req.type, req.topology);
    SMART_CHECK(entry != nullptr,
                "unknown macro topology: " + req.type + "/" + req.topology);
    block.macros.push_back(entry->generate(req.spec));
  }
  util::Rng rng(spec.seed);
  block.filler =
      random_logic(spec.name + "_filler", spec.filler_devices, rng);
  return block;
}

namespace {

void accumulate(const Netlist& nl, const netlist::Sizing& sizing,
                const tech::Tech& tech, const power::PowerOptions& activity,
                bool is_macro, BlockReport& report) {
  const auto stats = nl.device_stats(sizing);
  power::PowerEstimator estimator(tech);
  const auto p = estimator.estimate(nl, sizing, activity);
  report.devices += stats.device_count;
  report.total_width_um += stats.total_width;
  report.total_power_mw += p.total_mw;
  if (is_macro) {
    report.macro_width_um += stats.total_width;
    report.macro_power_mw += p.total_mw;
  }
}

}  // namespace

BlockExperiment run_block_experiment(const Block& block,
                                     const tech::Tech& tech,
                                     const models::ModelLibrary& lib,
                                     const core::IsoDelayOptions& opt) {
  BlockExperiment ex;
  ex.macros_total = static_cast<int>(block.macros.size());

  core::BaselineSizer baseline(tech, opt.baseline);
  const auto filler_sizing = baseline.size(block.filler);
  accumulate(block.filler, filler_sizing, tech, opt.activity, false,
             ex.before);
  accumulate(block.filler, filler_sizing, tech, opt.activity, false,
             ex.after);

  for (const auto& macro : block.macros) {
    const auto cmp = core::run_iso_delay(macro, tech, lib, opt);
    accumulate(macro, cmp.baseline.sizing, tech, opt.activity, true,
               ex.before);
    ex.before.worst_macro_delay_ps = std::max(
        ex.before.worst_macro_delay_ps, cmp.baseline.measured_delay_ps);
    // §6.4: SMART replaces the macro only when it met the original timing
    // ("A timing analysis on the new design showed no performance penalty").
    if (cmp.ok) {
      ++ex.macros_converged;
      accumulate(macro, cmp.smart.sizing, tech, opt.activity, true, ex.after);
      ex.after.worst_macro_delay_ps = std::max(
          ex.after.worst_macro_delay_ps, cmp.smart.measured_delay_ps);
    } else {
      accumulate(macro, cmp.baseline.sizing, tech, opt.activity, true,
                 ex.after);
      ex.after.worst_macro_delay_ps = std::max(
          ex.after.worst_macro_delay_ps, cmp.baseline.measured_delay_ps);
    }
  }
  return ex;
}

netlist::Netlist bypass_slice(const core::MacroDatabase& db, int bits) {
  using util::strfmt;
  auto generate = [&](const std::string& type, const std::string& topo,
                      const core::MacroSpec& spec) {
    const auto* entry = db.find(type, topo);
    SMART_CHECK(entry != nullptr, "unknown topology " + type + "/" + topo);
    return entry->generate(spec);
  };
  core::MacroSpec mux_spec;
  mux_spec.type = "mux";
  mux_spec.n = 2;
  mux_spec.params["bits"] = bits;
  const auto mux = generate("mux", "encoded2", mux_spec);
  core::MacroSpec add_spec;
  add_spec.type = "adder";
  add_spec.n = bits;
  const auto adder = generate("adder", "static_cla", add_spec);
  core::MacroSpec zd_spec;
  zd_spec.type = "zero_detect";
  zd_spec.n = bits;
  const auto zd = generate("zero_detect", "static_tree", zd_spec);

  netlist::Netlist top(strfmt("bypass%d", bits));
  std::map<std::string, netlist::NetId> mux_bind;
  for (int b = 0; b < bits; ++b)
    for (int i = 0; i < 2; ++i) {
      const auto d = top.add_net(strfmt("d%d_%d", b, i));
      top.add_input(d);
      mux_bind[strfmt("d%d_%d", b, i)] = d;
    }
  const auto sel = top.add_net("sel");
  top.add_input(sel);
  mux_bind["s0"] = sel;
  const auto mmap = netlist::instantiate(top, mux, "mux", mux_bind);

  std::map<std::string, netlist::NetId> add_bind;
  for (int b = 0; b < bits; ++b) {
    // Mux output is operand A; operand B and cin come from outside.
    add_bind[strfmt("a%d", b)] =
        mmap.nets.at(mux.find_net(strfmt("o%d", b)));
    const auto bb = top.add_net(strfmt("b%d", b));
    top.add_input(bb);
    add_bind[strfmt("b%d", b)] = bb;
  }
  const auto cin = top.add_net("cin");
  top.add_input(cin);
  add_bind["cin"] = cin;
  const auto amap = netlist::instantiate(top, adder, "add", add_bind);

  std::map<std::string, netlist::NetId> zd_bind;
  for (int b = 0; b < bits; ++b)
    zd_bind[strfmt("in%d", b)] =
        amap.nets.at(adder.find_net(strfmt("s%d", b)));
  netlist::instantiate(top, zd, "zd", zd_bind);

  for (int b = 0; b < bits; ++b)
    top.add_output(top.find_net(strfmt("add/s%d", b)), 12.0);
  top.add_output(top.find_net("add/cout"), 12.0);
  top.add_output(top.find_net("zd/zero"), 8.0);
  top.finalize();
  return top;
}

}  // namespace smart::blocks
