#include "refsim/rc_timer.h"

#include <algorithm>
#include <cmath>

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
    std::span<const std::pair<double, double>> r_and_w_from_out,
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
  const netlist::LoadView& view = nl.load_view();
  double cap = 0.0;
  for (const auto& load : view.loads_on(n)) {
    cap += t.c_gate * nl.resolve_width(view.gate_refs(load), sizing);
    cap += t.c_diff * nl.resolve_width(view.diffusion_refs(load), sizing);
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
  const netlist::LoadView& view = nl.load_view();
  std::vector<double> caps(nl.net_count(), 0.0);
  for (size_t n = 0; n < nl.net_count(); ++n) {
    caps[n] = t.c_wire + nl.net(static_cast<NetId>(n)).extra_wire_ff +
              t.c_wire_per_fanout *
                  static_cast<double>(
                      nl.arcs_from(static_cast<NetId>(n)).size());
  }
  for (const auto& port : nl.outputs())
    caps[static_cast<size_t>(port.net)] += port.load_ff;
  for (size_t n = 0; n < nl.net_count(); ++n) {
    for (const auto& load : view.loads_on(static_cast<NetId>(n))) {
      caps[n] +=
          t.c_gate * nl.resolve_width(view.gate_refs(load), sizing) +
          t.c_diff * nl.resolve_width(view.diffusion_refs(load), sizing);
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

  // The conducting path, as (resistance, width) pairs from the output.
  // Reused per-thread scratch: analyze() evaluates every arc transition.
  static thread_local std::vector<std::pair<double, double>> rw;
  rw.clear();
  for (const auto& d : nl.load_view().arc_path(arc, out_rising, phase))
    rw.emplace_back(device_r(t, d.kind), label_w(d.label));

  if (arc.kind == ArcKind::kPassControl) {
    // Control path: the local inverter generates the PMOS select, then the
    // opened gate conducts the (already present) data value to the output.
    const double w = label_w(comp.as_transgate()->label);
    const double w_inv = netlist::TransGate::kLocalInvRatio * w;
    const double c_inv_load =
        t.c_gate * w + 2.0 * t.c_diff * w_inv;  // P pass gate + self
    const std::pair<double, double> inv_rw[] = {{t.r_nmos, w_inv}};
    const EdgeDelay inv = elmore(inv_rw, c_inv_load, in_slope);
    EdgeDelay pass = elmore(rw, c_out, inv.out_slope_ps);
    pass.delay_ps += inv.delay_ps;
    return pass;
  }
  if (arc.kind == ArcKind::kTristateEnable) {
    // Enable path: internal complement inverter, then the 2-stack conducts.
    const auto* t3 = comp.as_tristate();
    const double w_inv =
        netlist::Tristate::kLocalInvRatio * label_w(t3->nmos_label);
    const double c_inv_load =
        t.c_gate * label_w(t3->pmos_label) + 2.0 * t.c_diff * w_inv;
    const std::pair<double, double> inv_rw[] = {{t.r_nmos, w_inv}};
    const EdgeDelay inv = elmore(inv_rw, c_inv_load, in_slope);
    EdgeDelay cond = elmore(rw, c_out, inv.out_slope_ps);
    cond.delay_ps += inv.delay_ps;
    return cond;
  }

  // Static gates, pass and tri-state data arcs and domino precharge
  // (through P1; for unfooted stages callers gate it on the inputs having
  // fallen, and the RC is the same either way) are the path's RC alone.
  EdgeDelay ed = elmore(rw, c_out, in_slope);
  const auto* d = comp.as_domino();
  if (d == nullptr || arc.kind == ArcKind::kDominoPrecharge ||
      (phase == Phase::kPrecharge && arc.kind == ArcKind::kDominoEval))
    return ed;
  // Domino evaluate. Keeper contention: the keeper PMOS fights the
  // pull-down until the node crosses; effective slowdown
  // G/(G - G_keeper). Nonlinear in widths, so invisible to the posynomial
  // models — handled by the sizing loop.
  double g_path = 0.0;
  {
    double r_sum = 0.0;
    for (const auto& [r, w] : rw) r_sum += r / w;
    g_path = 1.0 / r_sum;
  }
  const double g_keeper =
      d->keeper_ratio * label_w(d->precharge_label) / t.r_pmos;
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

  const size_t n_nets = nl.net_count();
  const netlist::LoadView& view = nl.load_view();

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
    for (const NetId n : view.topo_order()) {
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
  if (view.has_domino()) {
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
