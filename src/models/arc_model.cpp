#include "models/arc_model.h"

#include <algorithm>

#include "util/check.h"
#include "util/fault.h"
#include "util/strfmt.h"

namespace smart::models {

using netlist::Arc;
using netlist::ArcKind;
using netlist::Component;
using netlist::LabelId;
using netlist::NetId;
using netlist::Netlist;
using posy::Monomial;
using posy::Posynomial;

ArcClass classify_arc(const Netlist& nl, const Arc& arc,
                      netlist::Phase phase) {
  switch (arc.kind) {
    case ArcKind::kStaticData:
      return ArcClass::kStatic;
    case ArcKind::kPassData:
      return ArcClass::kPassData;
    case ArcKind::kPassControl:
      return ArcClass::kPassControl;
    case ArcKind::kTristateData:
      return ArcClass::kTristateData;
    case ArcKind::kTristateEnable:
      return ArcClass::kTristateEnable;
    case ArcKind::kDominoClkEval:
      return ArcClass::kDominoClkEval;
    case ArcKind::kDominoPrecharge:
      return ArcClass::kDominoPrecharge;
    case ArcKind::kDominoEval: {
      const auto* d = nl.comp(arc.comp).as_domino();
      SMART_CHECK(d != nullptr, "eval arc on non-domino component");
      if (phase == netlist::Phase::kPrecharge)
        return ArcClass::kDominoPrecharge;  // D2 reset ripple
      return d->evaluate_label >= 0 ? ArcClass::kDominoFooted
                                    : ArcClass::kDominoUnfooted;
    }
  }
  SMART_FAIL("unreachable arc kind");
}

LabelVarMap make_label_vars(const Netlist& nl, posy::VarTable& vars) {
  LabelVarMap map;
  map.reserve(nl.label_count());
  for (size_t i = 0; i < nl.label_count(); ++i) {
    const auto& label = nl.label(static_cast<LabelId>(i));
    if (label.fixed) {
      map.push_back(Monomial(label.fixed_width));
      continue;
    }
    std::string name = nl.name() + "/" + label.name;
    if (vars.find(name) >= 0)
      name += util::strfmt("#%zu", i);  // disambiguate duplicate label names
    const posy::VarId v = vars.add(name, label.w_min, label.w_max);
    map.push_back(Monomial::variable(v));
  }
  return map;
}

Posynomial net_cap_posy(const Netlist& nl, NetId n, const LabelVarMap& labels,
                        const tech::Tech& tech) {
  Posynomial cap;
  auto add_refs = [&](const std::vector<netlist::WidthRef>& refs,
                      double per_um) {
    for (const auto& r : refs) {
      Monomial m = labels.at(static_cast<size_t>(r.label));
      m *= r.scale * per_um;
      cap += m;
    }
  };
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto id = static_cast<netlist::CompId>(c);
    add_refs(nl.gate_width_on_net(id, n), tech.c_gate);
    add_refs(nl.diffusion_width_on_net(id, n), tech.c_diff);
  }
  double fixed = tech.c_wire + nl.net(n).extra_wire_ff +
                 tech.c_wire_per_fanout *
                     static_cast<double>(nl.arcs_from(n).size());
  for (const auto& port : nl.outputs())
    if (port.net == n) fixed += port.load_ff;
  cap += Monomial(fixed);
  return cap;
}

std::vector<Posynomial> net_cap_posy_all(const Netlist& nl,
                                         const LabelVarMap& labels,
                                         const tech::Tech& tech) {
  const size_t n_nets = nl.net_count();
  // Scatter pass: for each component (ascending, gate refs before diffusion
  // refs — the same visit order net_cap_posy uses within one net), append
  // its width refs to the nets it actually touches.
  struct CapRef {
    netlist::WidthRef ref;
    double per_um;
  };
  std::vector<std::vector<CapRef>> refs(n_nets);
  std::vector<NetId> gate_nets, diff_nets;
  std::vector<std::pair<NetId, LabelId>> leaves;
  auto push_unique = [](std::vector<NetId>& v, NetId n) {
    if (n >= 0 && std::find(v.begin(), v.end(), n) == v.end())
      v.push_back(n);
  };
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto id = static_cast<netlist::CompId>(c);
    const Component& comp = nl.comp(id);
    gate_nets.clear();
    diff_nets.clear();
    if (const auto* g = comp.as_static()) {
      leaves.clear();
      g->pulldown.collect_leaves(leaves);
      for (const auto& [in, label] : leaves) push_unique(gate_nets, in);
      push_unique(diff_nets, comp.out);
    } else if (const auto* t = comp.as_transgate()) {
      push_unique(gate_nets, t->sel);
      push_unique(diff_nets, comp.out);
      push_unique(diff_nets, t->data);
    } else if (const auto* t3 = comp.as_tristate()) {
      push_unique(gate_nets, t3->data);
      push_unique(gate_nets, t3->en);
      push_unique(diff_nets, comp.out);
    } else if (const auto* d = comp.as_domino()) {
      leaves.clear();
      d->pulldown.collect_leaves(leaves);
      for (const auto& [in, label] : leaves) push_unique(gate_nets, in);
      push_unique(gate_nets, d->clk);
      push_unique(diff_nets, comp.out);
    }
    for (const NetId n : gate_nets)
      for (const auto& r : nl.gate_width_on_net(id, n))
        refs[static_cast<size_t>(n)].push_back(CapRef{r, tech.c_gate});
    for (const NetId n : diff_nets)
      for (const auto& r : nl.diffusion_width_on_net(id, n))
        refs[static_cast<size_t>(n)].push_back(CapRef{r, tech.c_diff});
  }
  std::vector<Posynomial> caps(n_nets);
  for (size_t n = 0; n < n_nets; ++n) {
    Posynomial cap;
    for (const auto& [r, per_um] : refs[n]) {
      Monomial m = labels.at(static_cast<size_t>(r.label));
      m *= r.scale * per_um;
      cap += m;
    }
    const auto net = static_cast<NetId>(n);
    double fixed = tech.c_wire + nl.net(net).extra_wire_ff +
                   tech.c_wire_per_fanout *
                       static_cast<double>(nl.arcs_from(net).size());
    for (const auto& port : nl.outputs())
      if (port.net == net) fixed += port.load_ff;
    cap += Monomial(fixed);
    caps[n] = std::move(cap);
  }
  return caps;
}

namespace {

/// Builds RCsum = sum_j (r_j / W_j) * C_out + internal stack-node terms for
/// a series path given as (resistance-per-um, width-monomial) from the
/// output node down to the supply.
Posynomial path_rc_posy(
    const std::vector<std::pair<double, Monomial>>& path_from_out,
    const Posynomial& c_out, const tech::Tech& tech) {
  SMART_CHECK(!path_from_out.empty(), "empty RC path");
  // R_total * C_out
  Posynomial r_total;
  for (const auto& [r, w] : path_from_out)
    r_total += w.inverse() * r;
  Posynomial rc = r_total * c_out;
  // Internal node between devices k and k+1: cap c_diff*(W_k + W_{k+1}),
  // resistance to supply = sum of device resistances below the node.
  for (size_t k = 0; k + 1 < path_from_out.size(); ++k) {
    Posynomial r_below;
    for (size_t j = k + 1; j < path_from_out.size(); ++j)
      r_below += path_from_out[j].second.inverse() * path_from_out[j].first;
    Posynomial c_node(path_from_out[k].second * tech.c_diff);
    c_node += path_from_out[k + 1].second * tech.c_diff;
    rc += r_below * c_node;
  }
  return rc;
}

}  // namespace

Posynomial arc_rc_posy(const Netlist& nl, const Arc& arc, bool out_rising,
                       const Posynomial& c_out, const LabelVarMap& labels,
                       const tech::Tech& tech, netlist::Phase phase) {
  const Component& comp = nl.comp(arc.comp);
  auto width = [&](LabelId l) { return labels.at(static_cast<size_t>(l)); };

  // Reused per-thread scratch: arc models are evaluated for every arc
  // transition of the netlist, and the per-call vector churn showed up in
  // constraint-generation profiles.
  static thread_local std::vector<std::pair<NetId, LabelId>> path;
  static thread_local std::vector<std::pair<double, Monomial>> rw;
  path.clear();
  rw.clear();

  if (const auto* g = comp.as_static()) {
    if (out_rising) {
      // Every pull-up device shares one resistance and label, so only the
      // worst dual-path length matters — computed without copying the tree.
      const int len = g->pulldown.dual_worst_len_through(arc.from);
      SMART_CHECK(len >= 0, "static arc input not in pull-up network");
      rw.assign(static_cast<size_t>(len), {tech.r_pmos, width(g->pmos_label)});
    } else {
      const bool found = g->pulldown.worst_path_through(arc.from, path);
      SMART_CHECK(found, "static arc input not in pull-down network");
      for (const auto& [net, label] : path)
        rw.emplace_back(tech.r_nmos, width(label));
    }
    return path_rc_posy(rw, c_out, tech);
  }

  if (const auto* tg = comp.as_transgate()) {
    const double r_eff =
        (tech.r_nmos * tech.r_pmos) / (tech.r_nmos + tech.r_pmos);
    // Data and control arcs share the conduction RC; the control arc's
    // local-inverter delay is near width-independent and is absorbed into
    // the class's fitted intrinsic term.
    return path_rc_posy({{r_eff, width(tg->label)}}, c_out, tech);
  }

  if (const auto* t3 = comp.as_tristate()) {
    const double r = out_rising ? tech.r_pmos : tech.r_nmos;
    const Monomial w =
        out_rising ? width(t3->pmos_label) : width(t3->nmos_label);
    return path_rc_posy({{r, w}, {r, w}}, c_out, tech);
  }

  const auto* d = comp.as_domino();
  SMART_CHECK(d != nullptr, "unknown component kind");

  if (arc.kind == ArcKind::kDominoPrecharge ||
      (phase == netlist::Phase::kPrecharge &&
       arc.kind == ArcKind::kDominoEval)) {
    // Precharge through P1 — including the unfooted reset ripple, where
    // the gating event is the input falling but the RC is the precharge
    // device charging the dynamic node.
    return path_rc_posy({{tech.r_pmos, width(d->precharge_label)}}, c_out,
                        tech);
  }

  if (arc.kind == ArcKind::kDominoClkEval) {
    path = d->pulldown.worst_path();
  } else {
    const bool found = d->pulldown.worst_path_through(arc.from, path);
    SMART_CHECK(found, "domino arc input not in pull-down network");
  }
  for (const auto& [net, label] : path)
    rw.emplace_back(tech.r_nmos, width(label));
  if (d->evaluate_label >= 0)
    rw.emplace_back(tech.r_nmos, width(d->evaluate_label));
  return path_rc_posy(rw, c_out, tech);
}

ArcPosy arc_model_posy(const Netlist& nl, const Arc& arc, bool out_rising,
                       const Posynomial& in_slope, const Posynomial& c_out,
                       const LabelVarMap& labels, const ModelLibrary& lib,
                       const tech::Tech& tech, netlist::Phase phase) {
  ModelCoeffs m = lib.coeffs(classify_arc(nl, arc, phase));
  // Fault-injection sites: chaos tests corrupt the calibrated coefficients
  // here — a perturbation models a bad fit, NaN models a poisoned library —
  // and the solve path must degrade instead of crashing.
  m.a_rc = util::fault_corrupt(util::FaultClass::kModelCoeffPerturb,
                               "model.coeff.a_rc", m.a_rc);
  m.a_int = util::fault_corrupt(util::FaultClass::kModelNonFinite,
                                "model.coeff.a_int", m.a_int);
  const Posynomial rc =
      arc_rc_posy(nl, arc, out_rising, c_out, labels, tech, phase);
  ArcPosy out;
  out.delay = Posynomial(m.a_int);
  out.delay.add_scaled(rc, m.a_rc);
  if (m.saturating_slope && in_slope.is_constant()) {
    out.delay += Posynomial(
        m.a_slope * tech.saturate_slope(in_slope.constant_value()));
  } else {
    out.delay.add_scaled(in_slope, m.a_slope);
  }
  out.out_slope = Posynomial(m.b_int);
  out.out_slope.add_scaled(rc, m.b_rc);
  out.out_slope.add_scaled(in_slope, m.b_slope);
  return out;
}

Posynomial arc_out_slope_posy(const Netlist& nl, const Arc& arc,
                              bool out_rising, const Posynomial& in_slope,
                              const Posynomial& c_out,
                              const LabelVarMap& labels,
                              const ModelLibrary& lib, const tech::Tech& tech,
                              netlist::Phase phase) {
  ModelCoeffs m = lib.coeffs(classify_arc(nl, arc, phase));
  // Same fault sites as arc_model_posy so chaos-test hit/fire sequences are
  // unchanged; the delay coefficients feed the same validity guards the
  // delay composition would apply, then go unused.
  m.a_rc = util::fault_corrupt(util::FaultClass::kModelCoeffPerturb,
                               "model.coeff.a_rc", m.a_rc);
  m.a_int = util::fault_corrupt(util::FaultClass::kModelNonFinite,
                                "model.coeff.a_int", m.a_int);
  SMART_CHECK(m.a_int >= 0.0, "posynomial constant must be non-negative");
  SMART_CHECK(m.a_rc >= 0.0, "posynomial scaling must be non-negative");
  const Posynomial rc =
      arc_rc_posy(nl, arc, out_rising, c_out, labels, tech, phase);
  Posynomial out(m.b_int);
  out.add_scaled(rc, m.b_rc);
  out.add_scaled(in_slope, m.b_slope);
  return out;
}

}  // namespace smart::models
