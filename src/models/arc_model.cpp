#include "models/arc_model.h"

#include <span>

#include "refsim/rc_timer.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/strfmt.h"

namespace smart::models {

using netlist::Arc;
using netlist::ArcKind;
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
  // Each component's gate then diffusion references in component order,
  // then the wire and port constant.
  const netlist::LoadView& view = nl.load_view();
  Posynomial cap;
  auto add_refs = [&](std::span<const netlist::WidthRef> refs,
                      double per_um) {
    for (const auto& r : refs) {
      Monomial m = labels.at(static_cast<size_t>(r.label));
      m *= r.scale * per_um;
      cap += m;
    }
  };
  for (const auto& load : view.loads_on(n)) {
    add_refs(view.gate_refs(load), tech.c_gate);
    add_refs(view.diffusion_refs(load), tech.c_diff);
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
  std::vector<Posynomial> caps(nl.net_count());
  for (size_t n = 0; n < caps.size(); ++n)
    caps[n] = net_cap_posy(nl, static_cast<NetId>(n), labels, tech);
  return caps;
}

void arc_rc_path(const Netlist& nl, const Arc& arc, bool out_rising,
                 const tech::Tech& tech, std::vector<RcDevice>& out,
                 netlist::Phase phase) {
  out.clear();
  for (const auto& d : nl.load_view().arc_path(arc, out_rising, phase))
    out.push_back({refsim::device_r(tech, d.kind), d.label});
}

Posynomial rc_path_posy(const std::vector<RcDevice>& path,
                        const Posynomial& c_out, const LabelVarMap& labels,
                        const tech::Tech& tech) {
  SMART_CHECK(!path.empty(), "empty RC path");
  auto width = [&](size_t k) -> const Monomial& {
    return labels.at(static_cast<size_t>(path[k].label));
  };
  // R_total * C_out
  Posynomial r_total;
  for (size_t k = 0; k < path.size(); ++k)
    r_total += width(k).inverse() * path[k].r;
  Posynomial rc = r_total * c_out;
  // Internal node between devices k and k+1: cap c_diff*(W_k + W_{k+1}),
  // resistance to supply = sum of device resistances below the node.
  for (size_t k = 0; k + 1 < path.size(); ++k) {
    Posynomial r_below;
    for (size_t j = k + 1; j < path.size(); ++j)
      r_below += width(j).inverse() * path[j].r;
    Posynomial c_node(width(k) * tech.c_diff);
    c_node += width(k + 1) * tech.c_diff;
    rc += r_below * c_node;
  }
  return rc;
}

Posynomial arc_rc_posy(const Netlist& nl, const Arc& arc, bool out_rising,
                       const Posynomial& c_out, const LabelVarMap& labels,
                       const tech::Tech& tech, netlist::Phase phase) {
  static thread_local std::vector<RcDevice> path;
  arc_rc_path(nl, arc, out_rising, tech, path, phase);
  return rc_path_posy(path, c_out, labels, tech);
}

ModelCoeffs arc_coeffs(const Netlist& nl, const Arc& arc,
                       const ModelLibrary& lib, netlist::Phase phase) {
  ModelCoeffs m = lib.coeffs(classify_arc(nl, arc, phase));
  // Fault-injection sites: chaos tests corrupt the calibrated coefficients
  // here — a perturbation models a bad fit, NaN models a poisoned library —
  // and the solve path must degrade instead of crashing.
  m.a_rc = util::fault_corrupt(util::FaultClass::kModelCoeffPerturb,
                               "model.coeff.a_rc", m.a_rc);
  m.a_int = util::fault_corrupt(util::FaultClass::kModelNonFinite,
                                "model.coeff.a_int", m.a_int);
  return m;
}

ArcPosy model_posy(const ModelCoeffs& m, const Posynomial& rc,
                   const Posynomial& in_slope, const tech::Tech& tech) {
  ArcPosy out;
  out.delay = Posynomial(m.a_int);
  out.delay.add_scaled(rc, m.a_rc);
  if (m.saturating_slope && in_slope.is_constant()) {
    out.delay += Posynomial(
        m.a_slope * tech.saturate_slope(in_slope.constant_value()));
  } else {
    out.delay.add_scaled(in_slope, m.a_slope);
  }
  out.out_slope = out_slope_posy(m, rc, in_slope);
  return out;
}

Posynomial out_slope_posy(const ModelCoeffs& m, const Posynomial& rc,
                          const Posynomial& in_slope) {
  // The guards the delay composition applies, so that a slope-only build
  // rejects a poisoned delay coefficient the same way.
  SMART_CHECK(m.a_int >= 0.0, "posynomial constant must be non-negative");
  SMART_CHECK(m.a_rc >= 0.0, "posynomial scaling must be non-negative");
  Posynomial out(m.b_int);
  out.add_scaled(rc, m.b_rc);
  out.add_scaled(in_slope, m.b_slope);
  return out;
}

ArcPosy arc_model_posy(const Netlist& nl, const Arc& arc, bool out_rising,
                       const Posynomial& in_slope, const Posynomial& c_out,
                       const LabelVarMap& labels, const ModelLibrary& lib,
                       const tech::Tech& tech, netlist::Phase phase) {
  const ModelCoeffs m = arc_coeffs(nl, arc, lib, phase);
  return model_posy(m, arc_rc_posy(nl, arc, out_rising, c_out, labels, tech,
                                   phase),
                    in_slope, tech);
}

}  // namespace smart::models
