#include "power/power.h"

#include "refsim/rc_timer.h"
#include "util/check.h"

namespace smart::power {

using netlist::NetId;
using netlist::Netlist;

/// Per-net toggle rates: clock nets, then the domino domain (dynamic nodes
/// and everything downstream of them), then plain data nets.
std::vector<double> net_activities(const Netlist& nl,
                                   const PowerOptions& opt) {
  std::vector<double> act(nl.net_count(), opt.data_activity);
  std::vector<bool> domino_domain(nl.net_count(), false);

  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto& comp = nl.comp(static_cast<int>(c));
    if (comp.as_domino() != nullptr)
      domino_domain[static_cast<size_t>(comp.out)] = true;
  }
  // Forward closure: a net driven by a component reading a domino-domain
  // net toggles at the domino rate too (e.g. the output inverter). In
  // topological order every source is final before its readers.
  for (const NetId n : nl.load_view().topo_order()) {
    for (const auto& arc : nl.arcs_into(n)) {
      if (arc.kind == netlist::ArcKind::kDominoPrecharge ||
          arc.kind == netlist::ArcKind::kDominoClkEval)
        continue;
      if (domino_domain[static_cast<size_t>(arc.from)])
        domino_domain[static_cast<size_t>(n)] = true;
    }
  }
  for (size_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net(static_cast<NetId>(n)).kind == netlist::NetKind::kClock) {
      act[n] = kClockActivity;
    } else if (domino_domain[n]) {
      act[n] = kDominoActivity;
    }
  }
  return act;
}

double net_activity(const Netlist& nl, NetId n, const PowerOptions& opt) {
  return net_activities(nl, opt).at(static_cast<size_t>(n));
}

PowerReport PowerEstimator::estimate(const Netlist& nl,
                                     const netlist::Sizing& sizing,
                                     const PowerOptions& opt) const {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
  const refsim::RcTimer timer(*tech_);
  const auto act = net_activities(nl, opt);
  const auto caps = timer.all_net_caps(nl, sizing);
  const double freq = opt.freq_ghz > 0.0 ? opt.freq_ghz : tech_->clock_ghz;
  const double vdd2 = tech_->vdd * tech_->vdd;

  PowerReport rep;
  for (size_t n = 0; n < nl.net_count(); ++n) {
    const double cap = caps[n];
    const bool is_clk =
        nl.net(static_cast<NetId>(n)).kind == netlist::NetKind::kClock;
    rep.switched_cap_ff += act[n] * cap;
    // fF * V^2 * GHz = uW; /1000 -> mW; /2 for energy per transition.
    const double mw = act[n] * cap * vdd2 * freq / 2000.0;
    rep.total_mw += mw;
    if (is_clk) {
      rep.clock_mw += mw;
      rep.clock_cap_ff += cap;
    }
  }
  return rep;
}

}  // namespace smart::power
