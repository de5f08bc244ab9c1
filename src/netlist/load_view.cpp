#include "netlist/load_view.h"

#include <algorithm>
#include <queue>

#include "netlist/netlist.h"
#include "util/check.h"

namespace smart::netlist {

namespace {

/// Devices of a stack adjacent to the output node: for a series chain only
/// the first (output-side) device touches the node, for parallel branches
/// each branch's top devices do. Series children are ordered output-first.
void collect_top_devices(const Stack& s,
                         std::vector<std::pair<NetId, LabelId>>& out) {
  switch (s.op()) {
    case Stack::Op::kLeaf:
      out.emplace_back(s.input(), s.label());
      return;
    case Stack::Op::kSeries:
      collect_top_devices(s.children().front(), out);
      return;
    case Stack::Op::kParallel:
      for (const auto& c : s.children()) collect_top_devices(c, out);
      return;
  }
}

/// Gate-capacitance width contributions of `comp` on net `n` (which
/// devices' gates hang on n).
void gate_width_on_net(const Component& comp, NetId n,
                       std::vector<WidthRef>& refs) {
  if (const auto* g = comp.as_static()) {
    std::vector<std::pair<NetId, LabelId>> leaves;
    g->pulldown.collect_leaves(leaves);
    for (const auto& [in, label] : leaves) {
      if (in != n) continue;
      refs.push_back(WidthRef{label, 1.0});
      refs.push_back(WidthRef{g->pmos_label, 1.0});  // dual PMOS
    }
  } else if (const auto* t = comp.as_transgate()) {
    if (t->sel == n) {
      refs.push_back(WidthRef{t->label, 1.0});  // NMOS pass gate
      // Local select inverter input (N + P at the fixed ratio).
      refs.push_back(WidthRef{t->label, TransGate::kLocalInvRatio});
      refs.push_back(WidthRef{t->label, TransGate::kLocalInvRatio});
    }
    // data is a channel terminal: no gate capacitance.
  } else if (const auto* t3 = comp.as_tristate()) {
    if (t3->data == n) {
      refs.push_back(WidthRef{t3->nmos_label, 1.0});
      refs.push_back(WidthRef{t3->pmos_label, 1.0});
    }
    if (t3->en == n) {
      refs.push_back(WidthRef{t3->nmos_label, 1.0});  // outer NMOS
      refs.push_back(WidthRef{t3->nmos_label, Tristate::kLocalInvRatio});
      refs.push_back(WidthRef{t3->pmos_label, Tristate::kLocalInvRatio});
    }
  } else if (const auto* d = comp.as_domino()) {
    std::vector<std::pair<NetId, LabelId>> leaves;
    d->pulldown.collect_leaves(leaves);
    for (const auto& [in, label] : leaves)
      if (in == n) refs.push_back(WidthRef{label, 1.0});
    if (d->clk == n) {
      refs.push_back(WidthRef{d->precharge_label, 1.0});
      if (d->evaluate_label >= 0)
        refs.push_back(WidthRef{d->evaluate_label, 1.0});
    }
  }
}

/// Diffusion (channel) width contributions of `comp` on net `n`.
void diffusion_width_on_net(const Component& comp, NetId n,
                            std::vector<WidthRef>& refs) {
  if (const auto* g = comp.as_static()) {
    if (comp.out == n) {
      std::vector<std::pair<NetId, LabelId>> tops;
      collect_top_devices(g->pulldown, tops);
      for (const auto& [in, label] : tops)
        refs.push_back(WidthRef{label, 1.0});
      tops.clear();
      collect_top_devices(g->pulldown.dual(), tops);
      for (size_t k = 0; k < tops.size(); ++k)
        refs.push_back(WidthRef{g->pmos_label, 1.0});
    }
  } else if (const auto* t = comp.as_transgate()) {
    if (comp.out == n || t->data == n) {
      refs.push_back(WidthRef{t->label, 1.0});
      refs.push_back(WidthRef{t->label, 1.0});
    }
  } else if (const auto* t3 = comp.as_tristate()) {
    if (comp.out == n) {
      refs.push_back(WidthRef{t3->nmos_label, 1.0});
      refs.push_back(WidthRef{t3->pmos_label, 1.0});
    }
  } else if (const auto* d = comp.as_domino()) {
    if (comp.out == n) {
      refs.push_back(WidthRef{d->precharge_label, 1.0 + d->keeper_ratio});
      std::vector<std::pair<NetId, LabelId>> tops;
      collect_top_devices(d->pulldown, tops);
      for (const auto& [in, label] : tops)
        refs.push_back(WidthRef{label, 1.0});
    }
  }
}

/// Every device of `comp` as a width reference (area and power).
void all_device_widths(const Component& comp, std::vector<WidthRef>& refs) {
  if (const auto* g = comp.as_static()) {
    std::vector<std::pair<NetId, LabelId>> leaves;
    g->pulldown.collect_leaves(leaves);
    for (const auto& [in, label] : leaves) {
      refs.push_back(WidthRef{label, 1.0});
      refs.push_back(WidthRef{g->pmos_label, 1.0});
    }
  } else if (const auto* t = comp.as_transgate()) {
    refs.push_back(WidthRef{t->label, 1.0});
    refs.push_back(WidthRef{t->label, 1.0});
    refs.push_back(WidthRef{t->label, TransGate::kLocalInvRatio});
    refs.push_back(WidthRef{t->label, TransGate::kLocalInvRatio});
  } else if (const auto* t3 = comp.as_tristate()) {
    refs.push_back(WidthRef{t3->nmos_label, 1.0});
    refs.push_back(WidthRef{t3->nmos_label, 1.0});
    refs.push_back(WidthRef{t3->pmos_label, 1.0});
    refs.push_back(WidthRef{t3->pmos_label, 1.0});
    refs.push_back(WidthRef{t3->nmos_label, Tristate::kLocalInvRatio});
    refs.push_back(WidthRef{t3->pmos_label, Tristate::kLocalInvRatio});
  } else if (const auto* d = comp.as_domino()) {
    std::vector<std::pair<NetId, LabelId>> leaves;
    d->pulldown.collect_leaves(leaves);
    for (const auto& [in, label] : leaves) refs.push_back(WidthRef{label, 1.0});
    refs.push_back(WidthRef{d->precharge_label, 1.0});
    refs.push_back(WidthRef{d->precharge_label, d->keeper_ratio});
    if (d->evaluate_label >= 0)
      refs.push_back(WidthRef{d->evaluate_label, 1.0});
  }
}

/// Appends arc `a`'s two paths (see LoadView::arc_path): slot 0 is the
/// falling (evaluate) transition, slot 1 the rising (precharge) one.
void append_arc_paths(const Component& comp, const Arc& a,
                      std::vector<PathDevice>& path,
                      std::vector<uint32_t>& begin) {
  using K = DeviceKind;
  auto mark = [&] { begin.push_back(static_cast<uint32_t>(path.size())); };
  std::vector<std::pair<NetId, LabelId>> stack_path;
  if (const auto* g = comp.as_static()) {
    const bool found = g->pulldown.worst_path_through(a.from, stack_path);
    SMART_CHECK(found, "static arc input not in pull-down network");
    for (const auto& [net, label] : stack_path)
      path.push_back({label, K::kNmos});
    mark();
    // Every pull-up device shares the gate's one PMOS label.
    const int len = g->pulldown.dual_worst_len_through(a.from);
    SMART_CHECK(len >= 0, "static arc input not in pull-up network");
    path.insert(path.end(), static_cast<size_t>(len),
                PathDevice{g->pmos_label, K::kPmos});
    mark();
  } else if (const auto* tg = comp.as_transgate()) {
    path.push_back({tg->label, K::kPass});
    mark();
    path.push_back({tg->label, K::kPass});
    mark();
  } else if (const auto* t3 = comp.as_tristate()) {
    path.insert(path.end(), 2, PathDevice{t3->nmos_label, K::kNmos});
    mark();
    path.insert(path.end(), 2, PathDevice{t3->pmos_label, K::kPmos});
    mark();
  } else if (const auto* d = comp.as_domino()) {
    // Evaluate: the pull-down path through the causing input (or the worst
    // path for the clock-to-output arc), then the foot. A precharge arc
    // never evaluates.
    if (a.kind != ArcKind::kDominoPrecharge) {
      if (a.kind == ArcKind::kDominoClkEval) {
        stack_path = d->pulldown.worst_path();
      } else {
        const bool found = d->pulldown.worst_path_through(a.from, stack_path);
        SMART_CHECK(found, "domino arc input not in pull-down network");
      }
      for (const auto& [net, label] : stack_path)
        path.push_back({label, K::kNmos});
      if (d->evaluate_label >= 0)
        path.push_back({d->evaluate_label, K::kNmos});
    }
    mark();
    path.push_back({d->precharge_label, K::kPmos});
    mark();
  }
}

}  // namespace

LoadView::LoadView(const Netlist& nl) {
  SMART_CHECK(nl.finalized(), "netlist must be finalized for a load view");
  const size_t n_nets = nl.net_count();
  const size_t n_comps = nl.comp_count();
  const auto& arcs = nl.arcs();

  // Per-component pass, in component order: the nets each component
  // touches (its output and the sources of its arcs, which build_arcs
  // lists component by component) with their gate and diffusion refs.
  std::vector<Load> pending;
  std::vector<NetId> pending_net;
  std::vector<WidthRef> scratch;
  std::vector<NetId> touched;
  device_begin_.reserve(n_comps + 1);
  leaf_begin_.reserve(n_comps + 1);
  depths_.reserve(n_comps);
  path_begin_.reserve(2 * arcs.size() + 1);
  path_begin_.push_back(0);
  std::vector<std::pair<NetId, LabelId>> leaves;
  size_t a = 0;
  for (size_t ci = 0; ci < n_comps; ++ci) {
    const auto c = static_cast<CompId>(ci);
    const Component& comp = nl.comp(c);
    touched.assign(1, comp.out);
    for (; a < arcs.size() && arcs[a].comp == c; ++a) {
      touched.push_back(arcs[a].from);
      append_arc_paths(comp, arcs[a], path_, path_begin_);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const NetId n : touched) {
      Load l;
      l.comp = c;
      l.gate = static_cast<uint32_t>(scratch.size());
      gate_width_on_net(comp, n, scratch);
      l.diff = static_cast<uint32_t>(scratch.size());
      diffusion_width_on_net(comp, n, scratch);
      l.end = static_cast<uint32_t>(scratch.size());
      pending.push_back(l);
      pending_net.push_back(n);
    }

    device_begin_.push_back(static_cast<uint32_t>(devices_.size()));
    all_device_widths(comp, devices_);
    leaf_begin_.push_back(static_cast<uint32_t>(leaves_.size()));
    const Stack* pulldown = nullptr;
    int pullup = 0;
    if (const auto* g = comp.as_static()) {
      pulldown = &g->pulldown;
      pullup = g->pulldown.dual_max_depth();
    } else if (const auto* d = comp.as_domino()) {
      pulldown = &d->pulldown;
      has_domino_ = true;
    }
    if (pulldown != nullptr) {
      leaves.clear();
      pulldown->collect_leaves(leaves);
      for (const auto& [in, label] : leaves) leaves_.push_back(label);
    }
    depths_.emplace_back(pulldown != nullptr ? pulldown->max_depth() : 0,
                         pullup);
  }
  SMART_CHECK(a == arcs.size(), "arcs are not grouped by component");
  device_begin_.push_back(static_cast<uint32_t>(devices_.size()));
  leaf_begin_.push_back(static_cast<uint32_t>(leaves_.size()));

  // Group the loads by net (a stable counting sort keeps component order
  // within a net) and lay their refs out in the same order.
  net_begin_.assign(n_nets + 1, 0);
  for (const NetId n : pending_net) ++net_begin_[static_cast<size_t>(n) + 1];
  for (size_t n = 0; n < n_nets; ++n) net_begin_[n + 1] += net_begin_[n];
  std::vector<uint32_t> next(net_begin_.begin(), net_begin_.end() - 1);
  std::vector<size_t> order(pending.size());
  for (size_t k = 0; k < pending.size(); ++k)
    order[next[static_cast<size_t>(pending_net[k])]++] = k;
  loads_.reserve(pending.size());
  refs_.reserve(scratch.size());
  for (const size_t k : order) {
    const Load& src = pending[k];
    Load l;
    l.comp = src.comp;
    l.gate = static_cast<uint32_t>(refs_.size());
    refs_.insert(refs_.end(), scratch.begin() + src.gate,
                 scratch.begin() + src.diff);
    l.diff = static_cast<uint32_t>(refs_.size());
    refs_.insert(refs_.end(), scratch.begin() + src.diff,
                 scratch.begin() + src.end);
    l.end = static_cast<uint32_t>(refs_.size());
    loads_.push_back(l);
  }

  // Topological order of nets over arcs (Kahn).
  std::vector<int> indeg(n_nets, 0);
  for (const Arc& arc : arcs) indeg[static_cast<size_t>(arc.to)]++;
  topo_.reserve(n_nets);
  std::queue<NetId> ready;
  for (size_t n = 0; n < n_nets; ++n)
    if (indeg[n] == 0) ready.push(static_cast<NetId>(n));
  while (!ready.empty()) {
    const NetId n = ready.front();
    ready.pop();
    topo_.push_back(n);
    for (const Arc& arc : nl.arcs_from(n))
      if (--indeg[static_cast<size_t>(arc.to)] == 0) ready.push(arc.to);
  }
  SMART_CHECK(topo_.size() == n_nets, "netlist contains a cycle");
}

std::span<const PathDevice> LoadView::arc_path(const Arc& arc,
                                               bool out_rising,
                                               Phase phase) const {
  SMART_CHECK(arc.index >= 0 &&
                  2 * static_cast<size_t>(arc.index) + 2 < path_begin_.size(),
              "arc is not from this netlist");
  bool slot = out_rising;
  switch (arc.kind) {
    case ArcKind::kDominoEval:
    case ArcKind::kDominoClkEval:
    case ArcKind::kDominoPrecharge:
      // A domino node falls only by evaluating and rises only by
      // precharging; the unfooted reset ripple rides the precharge device.
      slot = arc.kind == ArcKind::kDominoPrecharge ||
             (phase == Phase::kPrecharge && arc.kind == ArcKind::kDominoEval);
      break;
    default:
      break;
  }
  const size_t i = 2 * static_cast<size_t>(arc.index) + (slot ? 1 : 0);
  return {path_.data() + path_begin_[i], path_begin_[i + 1] - path_begin_[i]};
}

}  // namespace smart::netlist
