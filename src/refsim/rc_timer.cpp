#include "refsim/rc_timer.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/check.h"
#include "util/fault.h"

namespace smart::refsim {

using netlist::Arc;
using netlist::ArcKind;
using netlist::Component;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sizing;

namespace {

constexpr double kNever = -1e300;

bool happened(double t) { return t > kNever / 2; }

}  // namespace

double NetTiming::worst_arrival() const {
  double w = kNever;
  if (happened(arr_rise)) w = std::max(w, arr_rise);
  if (happened(arr_fall)) w = std::max(w, arr_fall);
  return w;
}

EdgeDelay RcTimer::elmore(
    const std::vector<std::pair<double, double>>& r_and_w_from_out,
    double c_out, double in_slope) const {
  const auto& t = *tech_;
  const size_t depth = r_and_w_from_out.size();
  SMART_CHECK(depth > 0, "elmore path must have at least one device");

  // Resistance of each device and running totals; path[0] is adjacent to
  // the output node, path[depth-1] to the supply rail.
  double r_total = 0.0;
  for (const auto& [r, w] : r_and_w_from_out) {
    SMART_CHECK(w > 0.0, "device width must be positive");
    r_total += r / w;
  }
  double elmore_sum = r_total * c_out;
  // Internal node k sits between devices k and k+1 and carries their
  // diffusion capacitance; its resistance to the supply is the sum of the
  // device resistances below it.
  double r_below = r_total;
  for (size_t k = 0; k + 1 < depth; ++k) {
    r_below -= r_and_w_from_out[k].first / r_and_w_from_out[k].second;
    const double c_node =
        t.c_diff *
        (r_and_w_from_out[k].second + r_and_w_from_out[k + 1].second);
    elmore_sum += r_below * c_node;
  }

  EdgeDelay d;
  // Saturating slope term: sub-linear in input slope, so the (linear)
  // posynomial models genuinely mismatch at large slopes.
  const double slope_term =
      t.slope_to_delay * in_slope / (1.0 + in_slope / t.slope_sat);
  d.delay_ps = t.elmore_ln2 * elmore_sum + slope_term;
  d.out_slope_ps = t.slope_factor * elmore_sum + 0.1 * in_slope;
  return d;
}

double RcTimer::net_cap(const Netlist& nl, const Sizing& sizing,
                        NetId n) const {
  const auto& t = *tech_;
  double cap = 0.0;
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto id = static_cast<netlist::CompId>(c);
    cap += t.c_gate * nl.resolve_width(nl.gate_width_on_net(id, n), sizing);
    cap += t.c_diff *
           nl.resolve_width(nl.diffusion_width_on_net(id, n), sizing);
  }
  cap += t.c_wire + nl.net(n).extra_wire_ff +
         t.c_wire_per_fanout * static_cast<double>(nl.arcs_from(n).size());
  for (const auto& port : nl.outputs())
    if (port.net == n) cap += port.load_ff;
  return cap;
}

std::vector<double> RcTimer::all_net_caps(const Netlist& nl,
                                           const Sizing& sizing) const {
  const auto& t = *tech_;
  std::vector<double> caps(nl.net_count(), 0.0);
  for (size_t n = 0; n < nl.net_count(); ++n) {
    caps[n] = t.c_wire + nl.net(static_cast<NetId>(n)).extra_wire_ff +
              t.c_wire_per_fanout *
                  static_cast<double>(
                      nl.arcs_from(static_cast<NetId>(n)).size());
  }
  for (const auto& port : nl.outputs())
    caps[static_cast<size_t>(port.net)] += port.load_ff;
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto id = static_cast<netlist::CompId>(c);
    for (const NetId n : nl.touched_nets(id)) {
      caps[static_cast<size_t>(n)] +=
          t.c_gate * nl.resolve_width(nl.gate_width_on_net(id, n), sizing) +
          t.c_diff *
              nl.resolve_width(nl.diffusion_width_on_net(id, n), sizing);
    }
  }
  return caps;
}

EdgeDelay RcTimer::arc_delay(const Netlist& nl, const Sizing& sizing,
                             const Arc& arc, bool out_rising, double in_slope,
                             Phase phase) const {
  return arc_delay_with_cap(nl, sizing, arc, out_rising, in_slope, phase,
                            net_cap(nl, sizing, arc.to));
}

EdgeDelay RcTimer::arc_delay_with_cap(const Netlist& nl, const Sizing& sizing,
                                      const Arc& arc, bool out_rising,
                                      double in_slope, Phase phase,
                                      double c_out) const {
  const auto& t = *tech_;
  const Component& comp = nl.comp(arc.comp);

  auto label_w = [&](netlist::LabelId l) { return nl.label_width(l, sizing); };

  if (const auto* g = comp.as_static()) {
    std::vector<std::pair<NetId, netlist::LabelId>> path;
    std::vector<std::pair<double, double>> rw;
    if (out_rising) {
      const bool found = g->pulldown.dual().worst_path_through(arc.from, path);
      SMART_CHECK(found, "static arc input not in pull-up network");
      for (size_t k = 0; k < path.size(); ++k)
        rw.emplace_back(t.r_pmos, label_w(g->pmos_label));
    } else {
      const bool found = g->pulldown.worst_path_through(arc.from, path);
      SMART_CHECK(found, "static arc input not in pull-down network");
      for (const auto& [net, label] : path)
        rw.emplace_back(t.r_nmos, label_w(label));
    }
    return elmore(rw, c_out, in_slope);
  }

  if (const auto* tg = comp.as_transgate()) {
    const double w = label_w(tg->label);
    const double r_eff = (t.r_nmos * t.r_pmos) / (t.r_nmos + t.r_pmos);
    if (arc.kind == ArcKind::kPassData) {
      return elmore({{r_eff, w}}, c_out, in_slope);
    }
    // Control path: the local inverter generates the PMOS select, then the
    // opened gate conducts the (already present) data value to the output.
    const double w_inv = netlist::TransGate::kLocalInvRatio * w;
    const double c_inv_load =
        t.c_gate * w + 2.0 * t.c_diff * w_inv;  // P pass gate + self
    const EdgeDelay inv =
        elmore({{t.r_nmos, w_inv}}, c_inv_load, in_slope);
    EdgeDelay pass = elmore({{r_eff, w}}, c_out, inv.out_slope_ps);
    pass.delay_ps += inv.delay_ps;
    return pass;
  }

  if (const auto* t3 = comp.as_tristate()) {
    const double wn = label_w(t3->nmos_label);
    const double wp = label_w(t3->pmos_label);
    auto stack2 = [&](bool rising) {
      return std::vector<std::pair<double, double>>{
          {rising ? t.r_pmos : t.r_nmos, rising ? wp : wn},
          {rising ? t.r_pmos : t.r_nmos, rising ? wp : wn}};
    };
    if (arc.kind == ArcKind::kTristateData) {
      return elmore(stack2(out_rising), c_out, in_slope);
    }
    // Enable path: internal complement inverter, then the 2-stack conducts.
    const double w_inv = netlist::Tristate::kLocalInvRatio * wn;
    const double c_inv_load = t.c_gate * wp + 2.0 * t.c_diff * w_inv;
    const EdgeDelay inv = elmore({{t.r_nmos, w_inv}}, c_inv_load, in_slope);
    EdgeDelay cond = elmore(stack2(out_rising), c_out, inv.out_slope_ps);
    cond.delay_ps += inv.delay_ps;
    return cond;
  }

  const auto* d = comp.as_domino();
  SMART_CHECK(d != nullptr, "unknown component kind");
  const double w_pre = label_w(d->precharge_label);

  if (arc.kind == ArcKind::kDominoPrecharge ||
      (phase == Phase::kPrecharge && arc.kind == ArcKind::kDominoEval)) {
    // Precharge through P1. For unfooted stages, callers gate this on the
    // inputs having fallen; the RC is the same either way.
    return elmore({{t.r_pmos, w_pre}}, c_out, in_slope);
  }

  // Evaluate: pull-down path through the causing input (or the worst path
  // for the clock-to-output arc of a footed stage), plus the foot device.
  std::vector<std::pair<NetId, netlist::LabelId>> path;
  if (arc.kind == ArcKind::kDominoClkEval) {
    path = d->pulldown.worst_path();
  } else {
    const bool found = d->pulldown.worst_path_through(arc.from, path);
    SMART_CHECK(found, "domino arc input not in pull-down network");
  }
  std::vector<std::pair<double, double>> rw;
  for (const auto& [net, label] : path)
    rw.emplace_back(t.r_nmos, label_w(label));
  if (d->evaluate_label >= 0)
    rw.emplace_back(t.r_nmos, label_w(d->evaluate_label));

  EdgeDelay ed = elmore(rw, c_out, in_slope);
  // Keeper contention: the keeper PMOS fights the pull-down until the node
  // crosses; effective slowdown G/(G - G_keeper). Nonlinear in widths, so
  // invisible to the posynomial models — handled by the sizing loop.
  double g_path = 0.0;
  {
    double r_sum = 0.0;
    for (const auto& [r, w] : rw) r_sum += r / w;
    g_path = 1.0 / r_sum;
  }
  const double g_keeper = d->keeper_ratio * w_pre / t.r_pmos;
  const double factor =
      (g_path > g_keeper * 1.02) ? g_path / (g_path - g_keeper) : 50.0;
  ed.delay_ps *= factor;
  ed.out_slope_ps *= factor;
  return ed;
}

TimingReport RcTimer::analyze(const Netlist& nl,
                              const Sizing& sizing) const {
  SMART_CHECK(nl.finalized(), "netlist must be finalized before timing");
  const auto& t = *tech_;

  // Topological order of nets over arcs (Kahn).
  const size_t n_nets = nl.net_count();
  std::vector<int> indeg(n_nets, 0);
  for (const Arc& a : nl.arcs()) indeg[static_cast<size_t>(a.to)]++;
  std::vector<NetId> topo;
  topo.reserve(n_nets);
  std::queue<NetId> ready;
  for (size_t n = 0; n < n_nets; ++n)
    if (indeg[n] == 0) ready.push(static_cast<NetId>(n));
  while (!ready.empty()) {
    const NetId n = ready.front();
    ready.pop();
    topo.push_back(n);
    for (const Arc& a : nl.arcs_from(n))
      if (--indeg[static_cast<size_t>(a.to)] == 0) ready.push(a.to);
  }
  SMART_CHECK(topo.size() == n_nets, "netlist contains a cycle");

  // Net capacitances are sizing-dependent but phase-independent; compute
  // them once for the whole analysis.
  const std::vector<double> caps = all_net_caps(nl, sizing);

  auto run_phase = [&](Phase phase) {
    std::vector<NetTiming> nets(
        n_nets, NetTiming{kNever, kNever, 0.0, 0.0});
    // Sources: clock nets and primary inputs.
    for (size_t n = 0; n < n_nets; ++n) {
      if (nl.net(static_cast<NetId>(n)).kind != netlist::NetKind::kClock)
        continue;
      auto& nt = nets[n];
      if (phase == Phase::kEvaluate) {
        nt.arr_rise = 0.0;
        nt.slope_rise = t.default_input_slope;
      } else {
        nt.arr_fall = 0.0;
        nt.slope_fall = t.default_input_slope;
      }
    }
    for (const auto& p : nl.inputs()) {
      auto& nt = nets[static_cast<size_t>(p.net)];
      const double slope =
          p.slope_ps >= 0.0 ? p.slope_ps : t.default_input_slope;
      const double arr = phase == Phase::kEvaluate ? p.arrival_ps : 0.0;
      nt.arr_rise = arr;
      nt.arr_fall = arr;
      nt.slope_rise = slope;
      nt.slope_fall = slope;
    }

    std::vector<netlist::EdgeMap> maps;
    for (const NetId n : topo) {
      for (const Arc& a : nl.arcs_into(n)) {
        netlist::arc_edge_maps(nl, a, phase, maps);
        const auto& src = nets[static_cast<size_t>(a.from)];
        auto& dst = nets[static_cast<size_t>(a.to)];
        for (const netlist::EdgeMap& em : maps) {
          const double t_in = em.in_rise ? src.arr_rise : src.arr_fall;
          if (!happened(t_in)) continue;
          const double s_in = em.in_rise ? src.slope_rise : src.slope_fall;
          const EdgeDelay ed = arc_delay_with_cap(
              nl, sizing, a, em.out_rise, s_in, phase,
              caps[static_cast<size_t>(a.to)]);
          const double t_out = t_in + ed.delay_ps;
          double& arr = em.out_rise ? dst.arr_rise : dst.arr_fall;
          double& slope = em.out_rise ? dst.slope_rise : dst.slope_fall;
          if (t_out > arr) {
            arr = t_out;
            slope = ed.out_slope_ps;
          }
        }
      }
    }
    return nets;
  };

  TimingReport report;
  report.nets = run_phase(Phase::kEvaluate);

  for (const auto& port : nl.outputs()) {
    const auto& nt = report.nets[static_cast<size_t>(port.net)];
    OutputTiming ot;
    ot.net = port.net;
    ot.arr_rise = nt.arr_rise;
    ot.arr_fall = nt.arr_fall;
    double slope = 0.0;
    double worst = kNever;
    if (happened(nt.arr_rise) && nt.arr_rise > worst) {
      worst = nt.arr_rise;
      slope = nt.slope_rise;
    }
    if (happened(nt.arr_fall) && nt.arr_fall > worst) {
      worst = nt.arr_fall;
      slope = nt.slope_fall;
    }
    ot.slope = slope;
    report.outputs.push_back(ot);
    if (happened(worst)) report.worst_delay = std::max(report.worst_delay, worst);
    report.worst_output_slope = std::max(report.worst_output_slope, slope);
  }
  for (const auto& nt : report.nets) {
    if (happened(nt.arr_rise))
      report.max_internal_slope =
          std::max(report.max_internal_slope, nt.slope_rise);
    if (happened(nt.arr_fall))
      report.max_internal_slope =
          std::max(report.max_internal_slope, nt.slope_fall);
  }

  // Precharge settle: only meaningful when the macro contains domino logic.
  bool has_domino = false;
  for (const auto& c : nl.comps())
    if (c.as_domino() != nullptr) has_domino = true;
  if (has_domino) {
    const auto pre = run_phase(Phase::kPrecharge);
    for (const auto& nt : pre) {
      const double w = nt.worst_arrival();
      if (happened(w)) report.worst_precharge = std::max(report.worst_precharge, w);
    }
  }
  // Fault-injection sites: chaos tests corrupt the reference measurement
  // here to prove the sizing loop rejects untrustworthy verification.
  report.worst_delay = util::fault_corrupt(
      util::FaultClass::kTimerPerturb, "refsim.delay", report.worst_delay);
  report.worst_delay = util::fault_corrupt(
      util::FaultClass::kTimerNonFinite, "refsim.delay", report.worst_delay);
  return report;
}

}  // namespace smart::refsim
