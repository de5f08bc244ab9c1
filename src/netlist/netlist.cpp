#include "netlist/netlist.h"

#include <algorithm>
#include <type_traits>

#include "util/check.h"
#include "util/strfmt.h"

namespace smart::netlist {

namespace {

std::vector<NetId> distinct_inputs(const Stack& s) {
  std::vector<std::pair<NetId, LabelId>> leaves;
  s.collect_leaves(leaves);
  std::vector<NetId> nets;
  for (const auto& [n, l] : leaves) nets.push_back(n);
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

}  // namespace

void arc_edge_maps(ArcKind kind, Phase phase, bool domino_footed,
                   std::vector<EdgeMap>& out) {
  out.clear();
  if (phase == Phase::kEvaluate) {
    switch (kind) {
      case ArcKind::kStaticData:
      case ArcKind::kTristateData:
        out = {{true, false}, {false, true}};
        return;
      case ArcKind::kPassData:
        out = {{true, true}, {false, false}};
        return;
      case ArcKind::kPassControl:
      case ArcKind::kTristateEnable:
        // Turn-on event (control rising) enables both output transitions —
        // two paths, four constraints in the paper's terms (§5.3).
        out = {{true, true}, {true, false}};
        return;
      case ArcKind::kDominoEval:
      case ArcKind::kDominoClkEval:
        out = {{true, false}};  // data/clk rise -> dynamic node falls
        return;
      case ArcKind::kDominoPrecharge:
        return;  // not active while evaluating
    }
    return;
  }
  // Precharge phase: the clock falls, dynamic nodes rise, and the reset
  // ripples through static stages. Unfooted (D2) stages additionally wait
  // for their inputs to fall before the precharge can complete.
  switch (kind) {
    case ArcKind::kStaticData:
    case ArcKind::kTristateData:
      out = {{true, false}, {false, true}};
      return;
    case ArcKind::kPassData:
      out = {{true, true}, {false, false}};
      return;
    case ArcKind::kDominoPrecharge:
      out = {{false, true}};  // clk falls -> dynamic node precharges high
      return;
    case ArcKind::kDominoEval:
      if (!domino_footed) out = {{false, true}};  // input reset gates D2
      return;
    case ArcKind::kPassControl:
    case ArcKind::kTristateEnable:
    case ArcKind::kDominoClkEval:
      return;  // selects stable, foot off during precharge
  }
}

void arc_edge_maps(const Netlist& nl, const Arc& arc, Phase phase,
                   std::vector<EdgeMap>& out) {
  // Footedness only selects among the kDominoEval entries above, so the
  // other arcs skip the component lookup.
  bool footed = true;
  if (arc.kind == ArcKind::kDominoEval)
    if (const DominoGate* dg = nl.comp(arc.comp).as_domino())
      footed = dg->evaluate_label >= 0;
  arc_edge_maps(arc.kind, phase, footed, out);
}

NetId Netlist::add_net(const std::string& name, NetKind kind) {
  SMART_CHECK(!finalized_, "cannot modify a finalized netlist");
  nets_.push_back(Net{name, kind});
  return static_cast<NetId>(nets_.size() - 1);
}

NetId Netlist::find_net(const std::string& name) const {
  for (size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].name == name) return static_cast<NetId>(i);
  return -1;
}

LabelId Netlist::add_label(const std::string& name, double w_min,
                           double w_max) {
  SMART_CHECK(!finalized_, "cannot modify a finalized netlist");
  SMART_CHECK(w_min > 0.0 && w_max >= w_min, "invalid label bounds: " + name);
  labels_.push_back(SizeLabel{name, w_min, w_max, false, 0.0});
  return static_cast<LabelId>(labels_.size() - 1);
}

void Netlist::fix_label(LabelId id, double width) {
  auto& l = labels_.at(static_cast<size_t>(id));
  SMART_CHECK(width > 0.0, "fixed width must be positive: " + l.name);
  l.fixed = true;
  l.fixed_width = width;
}

CompId Netlist::add_component(
    std::string name, NetId out,
    std::variant<StaticGate, TransGate, Tristate, DominoGate> impl) {
  SMART_CHECK(!finalized_, "cannot modify a finalized netlist");
  SMART_CHECK(out >= 0 && static_cast<size_t>(out) < nets_.size(),
              "component output net out of range: " + name);
  comps_.push_back(Component{std::move(name), out, std::move(impl)});
  return static_cast<CompId>(comps_.size() - 1);
}

CompId Netlist::add_inverter(const std::string& name, NetId in, NetId out,
                             LabelId nmos, LabelId pmos) {
  return add_component(name, out,
                       StaticGate{Stack::leaf(in, nmos), pmos});
}

void Netlist::add_input(NetId net, double arrival_ps, double slope_ps) {
  SMART_CHECK(net >= 0 && static_cast<size_t>(net) < nets_.size(),
              "input port net out of range");
  inputs_.push_back(InputPort{net, arrival_ps, slope_ps});
}

void Netlist::add_output(NetId net, double load_ff) {
  SMART_CHECK(net >= 0 && static_cast<size_t>(net) < nets_.size(),
              "output port net out of range");
  outputs_.push_back(OutputPort{net, load_ff});
}

void Netlist::finalize() {
  SMART_CHECK(!finalized_, "finalize called twice");
  drivers_.assign(nets_.size(), {});
  for (size_t c = 0; c < comps_.size(); ++c)
    drivers_[static_cast<size_t>(comps_[c].out)].push_back(
        static_cast<CompId>(c));
  build_arcs();
  validate();
  finalized_ = true;
}

const std::vector<CompId>& Netlist::drivers_of(NetId net) const {
  SMART_CHECK(finalized_, "netlist not finalized");
  return drivers_.at(static_cast<size_t>(net));
}

const std::vector<Arc>& Netlist::arcs() const {
  SMART_CHECK(finalized_, "netlist not finalized");
  return arcs_;
}

const std::vector<Arc>& Netlist::arcs_into(NetId net) const {
  SMART_CHECK(finalized_, "netlist not finalized");
  return arcs_into_.at(static_cast<size_t>(net));
}

const std::vector<Arc>& Netlist::arcs_from(NetId net) const {
  SMART_CHECK(finalized_, "netlist not finalized");
  return arcs_from_.at(static_cast<size_t>(net));
}

void Netlist::build_arcs() {
  arcs_.clear();
  for (size_t ci = 0; ci < comps_.size(); ++ci) {
    const auto c = static_cast<CompId>(ci);
    const Component& comp = comps_[ci];
    if (const auto* g = comp.as_static()) {
      for (NetId in : distinct_inputs(g->pulldown))
        arcs_.push_back(Arc{in, comp.out, c, ArcKind::kStaticData});
    } else if (const auto* t = comp.as_transgate()) {
      arcs_.push_back(Arc{t->data, comp.out, c, ArcKind::kPassData});
      arcs_.push_back(Arc{t->sel, comp.out, c, ArcKind::kPassControl});
    } else if (const auto* t3 = comp.as_tristate()) {
      arcs_.push_back(Arc{t3->data, comp.out, c, ArcKind::kTristateData});
      arcs_.push_back(Arc{t3->en, comp.out, c, ArcKind::kTristateEnable});
    } else if (const auto* d = comp.as_domino()) {
      for (NetId in : distinct_inputs(d->pulldown))
        arcs_.push_back(Arc{in, comp.out, c, ArcKind::kDominoEval});
      if (d->evaluate_label >= 0)
        arcs_.push_back(Arc{d->clk, comp.out, c, ArcKind::kDominoClkEval});
      arcs_.push_back(Arc{d->clk, comp.out, c, ArcKind::kDominoPrecharge});
    }
  }
  arcs_into_.assign(nets_.size(), {});
  arcs_from_.assign(nets_.size(), {});
  for (size_t i = 0; i < arcs_.size(); ++i)
    arcs_[i].index = static_cast<int>(i);
  for (const Arc& a : arcs_) {
    arcs_into_[static_cast<size_t>(a.to)].push_back(a);
    arcs_from_[static_cast<size_t>(a.from)].push_back(a);
  }
}

void Netlist::validate() const {
  for (const auto& p : inputs_) {
    SMART_CHECK(drivers_[static_cast<size_t>(p.net)].empty(),
                "input port net is driven internally: " + net(p.net).name);
  }
  for (const auto& p : outputs_) {
    SMART_CHECK(!drivers_[static_cast<size_t>(p.net)].empty(),
                "output port net has no driver: " + net(p.net).name);
  }
  // Shared nets (several drivers) are legal only for pass-gate / tri-state
  // structures (e.g. the common node of a pass-gate mux).
  for (size_t n = 0; n < nets_.size(); ++n) {
    const auto& ds = drivers_[n];
    if (ds.size() <= 1) continue;
    for (CompId c : ds) {
      const Component& comp = comps_[static_cast<size_t>(c)];
      SMART_CHECK(comp.as_transgate() != nullptr ||
                      comp.as_tristate() != nullptr,
                  "net '" + nets_[n].name +
                      "' has multiple drivers that are not pass/tri-state");
    }
  }
  // Clock nets may only feed domino clock pins.
  for (const Arc& a : arcs_) {
    if (nets_[static_cast<size_t>(a.from)].kind == NetKind::kClock) {
      SMART_CHECK(a.kind == ArcKind::kDominoClkEval ||
                      a.kind == ArcKind::kDominoPrecharge,
                  "clock net drives a non-clock pin: " +
                      nets_[static_cast<size_t>(a.from)].name);
    }
    SMART_CHECK(nets_[static_cast<size_t>(a.to)].kind != NetKind::kClock,
                "component drives a clock net");
  }
  // Acyclicity over data arcs (domino keepers are not modeled as arcs).
  std::vector<int> state(nets_.size(), 0);  // 0 new, 1 visiting, 2 done
  std::vector<NetId> stack;
  for (size_t start = 0; start < nets_.size(); ++start) {
    if (state[start] != 0) continue;
    stack.push_back(static_cast<NetId>(start));
    std::vector<size_t> edge_pos(nets_.size(), 0);
    state[start] = 1;
    while (!stack.empty()) {
      const NetId n = stack.back();
      const auto& outs = arcs_from_[static_cast<size_t>(n)];
      if (edge_pos[static_cast<size_t>(n)] >= outs.size()) {
        state[static_cast<size_t>(n)] = 2;
        stack.pop_back();
        continue;
      }
      const Arc& a = outs[edge_pos[static_cast<size_t>(n)]++];
      const auto to = static_cast<size_t>(a.to);
      SMART_CHECK(state[to] != 1, "combinational cycle through net '" +
                                      nets_[to].name + "'");
      if (state[to] == 0) {
        state[to] = 1;
        stack.push_back(a.to);
      }
    }
  }
}

double Netlist::label_width(LabelId id, const Sizing& sizing) const {
  const auto& l = labels_.at(static_cast<size_t>(id));
  if (l.fixed) return l.fixed_width;
  return sizing.at(static_cast<size_t>(id));
}

double Netlist::resolve_width(std::span<const WidthRef> refs,
                              const Sizing& sizing) const {
  double w = 0.0;
  for (const auto& r : refs) w += r.scale * label_width(r.label, sizing);
  return w;
}

DeviceStats Netlist::device_stats(const Sizing& sizing) const {
  const LoadView& view = load_view();
  DeviceStats stats;
  for (size_t c = 0; c < comps_.size(); ++c) {
    const auto refs = view.devices_of(static_cast<CompId>(c));
    stats.device_count += static_cast<int>(refs.size());
    stats.total_width += resolve_width(refs, sizing);
  }
  for (size_t n = 0; n < nets_.size(); ++n) {
    if (nets_[n].kind != NetKind::kClock) continue;
    for (const auto& load : view.loads_on(static_cast<NetId>(n)))
      stats.clock_gate_width += resolve_width(view.gate_refs(load), sizing);
  }
  return stats;
}

// Containers of netlists (macro pools, composed blocks) must move them when
// they grow, not copy every component.
static_assert(std::is_nothrow_move_constructible_v<Netlist>);

const LoadView& Netlist::load_view() const {
  SMART_CHECK(finalized_, "netlist not finalized");
  return view_.get(*this);
}

Netlist::ViewSlot& Netlist::ViewSlot::operator=(const ViewSlot& other) {
  if (this == &other) return *this;
  auto view = other.shared();
  const std::lock_guard<std::mutex> lock(mu_);
  view_ = std::move(view);
  ready_.store(view_.get());
  return *this;
}

Netlist::ViewSlot& Netlist::ViewSlot::operator=(ViewSlot&& other) noexcept {
  if (this == &other) return *this;
  view_ = std::move(other.view_);
  ready_.store(view_.get());
  other.ready_.store(nullptr);
  return *this;
}

std::shared_ptr<const LoadView> Netlist::ViewSlot::shared() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

const LoadView& Netlist::ViewSlot::get(const Netlist& nl) const {
  if (const LoadView* v = ready_.load()) return *v;
  const std::lock_guard<std::mutex> lock(mu_);
  if (!view_) {
    view_ = std::make_shared<const LoadView>(nl);
    ready_.store(view_.get());
  }
  return *view_;
}

Sizing Netlist::min_sizing() const {
  Sizing s(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) s[i] = labels_[i].w_min;
  return s;
}

}  // namespace smart::netlist
