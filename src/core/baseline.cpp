#include "core/baseline.h"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "refsim/rc_timer.h"
#include "util/check.h"

namespace smart::core {

using netlist::LabelId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sizing;

namespace {
/// Relaxation stops early once no width moved by more than this fraction.
constexpr double kPassTol = 0.02;
}  // namespace

Sizing BaselineSizer::size(const Netlist& nl) const {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
  const auto& t = *tech_;
  const double w_floor = t.w_min;

  Sizing sizing(nl.label_count());
  for (size_t li = 0; li < nl.label_count(); ++li) {
    const auto& label = nl.label(static_cast<LabelId>(li));
    sizing[li] = label.fixed ? label.fixed_width
                             : std::max(label.w_min, w_floor);
  }
  Sizing next = sizing;

  auto bump = [&](LabelId id, double w_req) {
    const auto& label = nl.label(static_cast<LabelId>(id));
    if (label.fixed) return;
    const double w =
        std::clamp(w_req, std::max(label.w_min, w_floor), label.w_max);
    auto& slot = next[static_cast<size_t>(id)];
    slot = std::max(slot, w);
  };

  // Reverse topological order of nets: sinks first, so every reader's gate
  // width is already set when its driver is sized from the measured load.
  const netlist::LoadView& view = nl.load_view();
  const auto sinks_first = std::views::reverse(view.topo_order());

  const refsim::RcTimer timer(t);
  const double tau = opt_.stage_delay_ps;
  const double m = opt_.margin;

  for (int pass = 0; pass < opt_.passes; ++pass) {
    // Each pass re-derives every width from the previous pass's loads —
    // the way a designer re-sizes after seeing extraction results.
    for (size_t li = 0; li < nl.label_count(); ++li) {
      const auto& label = nl.label(static_cast<LabelId>(li));
      next[li] = label.fixed ? label.fixed_width
                             : std::max(label.w_min, w_floor);
    }
  const auto caps = timer.all_net_caps(nl, sizing);
  for (const NetId n : sinks_first) {
    for (const netlist::CompId c : nl.drivers_of(n)) {
      const auto& comp = nl.comp(c);
      const double load = caps[static_cast<size_t>(n)];
      if (const auto* g = comp.as_static()) {
        const double d_pd = view.pulldown_depth(c);
        const double d_pu = view.pullup_depth(c);
        for (const LabelId label : view.leaves_of(c))
          bump(label, d_pd * t.r_nmos * load / tau * m);
        bump(g->pmos_label, d_pu * t.r_pmos * load / tau * m);
      } else if (const auto* tg = comp.as_transgate()) {
        const double r_eff =
            (t.r_nmos * t.r_pmos) / (t.r_nmos + t.r_pmos);
        bump(tg->label, r_eff * load / tau * m);
      } else if (const auto* t3 = comp.as_tristate()) {
        bump(t3->nmos_label, 2.0 * t.r_nmos * load / tau * m);
        bump(t3->pmos_label, 2.0 * t.r_pmos * load / tau * m);
      } else if (const auto* d = comp.as_domino()) {
        const bool footed = d->evaluate_label >= 0;
        const double depth = view.pulldown_depth(c) + (footed ? 1.0 : 0.0);
        double w_leaf_max = 0.0;
        for (const LabelId label : view.leaves_of(c)) {
          const double w_req = depth * t.r_nmos * load / tau * m;
          bump(label, w_req);
          w_leaf_max = std::max(
              w_leaf_max, sizing[static_cast<size_t>(label)]);
        }
        if (footed) {
          // Designers guard the foot: at least as wide as the stack devices
          // and then some.
          bump(d->evaluate_label,
               std::max(depth * t.r_nmos * load / tau * m,
                        w_leaf_max) * opt_.clock_margin);
        }
        // Precharge is allowed ~2 stage budgets but guarded for robustness.
        bump(d->precharge_label,
             t.r_pmos * load / (2.0 * tau) * m * opt_.clock_margin);
      }
    }
  }
    double max_change = 0.0;
    for (size_t li = 0; li < nl.label_count(); ++li) {
      const double before = sizing[li];
      max_change = std::max(max_change,
                            std::fabs(next[li] - before) /
                                std::max(before, 1e-9));
    }
    sizing = next;
    if (max_change < kPassTol) break;
  }
  return sizing;
}

}  // namespace smart::core
