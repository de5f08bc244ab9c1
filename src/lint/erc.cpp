#include "lint/erc.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/obs.h"
#include "util/check.h"
#include "util/strfmt.h"

namespace smart::lint {

namespace {

using netlist::CompId;
using netlist::Component;
using netlist::DominoGate;
using netlist::FlatNetlist;
using netlist::LabelId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Stack;
using netlist::StaticGate;
using netlist::TransGate;
using netlist::Tristate;
using util::strfmt;

// Family-rule thresholds; the shipped macro database is clean against them.
constexpr int kMaxStaticStack = 4;          ///< ERC006: series NMOS, static
constexpr int kMaxDominoStack = 5;          ///< ERC006: incl. evaluate foot
constexpr double kWeakKeeperRatio = 0.02;   ///< ERC007: keeper below is weak
constexpr double kStrongKeeperRatio = 0.5;  ///< ERC007: keeper above fights
constexpr int kChargeShareDevices = 8;      ///< ERC009: pulldown device count
constexpr double kChargeShareKeeper = 0.08; ///< ERC009: keeper at high fanin

// ---------------------------------------------------------------------------
// Flattened-netlist rules (ERC001-ERC003)
// ---------------------------------------------------------------------------

void flat_rules(const FlatNetlist& flat, const std::vector<int>& external,
                const std::string& macro, Report& rep) {
  const size_t nodes = flat.node_names.size();
  std::vector<char> is_source(nodes, 0);  // externally driven / supply
  if (flat.vdd >= 0) is_source[static_cast<size_t>(flat.vdd)] = 1;
  if (flat.gnd >= 0) is_source[static_cast<size_t>(flat.gnd)] = 1;
  for (int n : external)
    if (n >= 0 && static_cast<size_t>(n) < nodes)
      is_source[static_cast<size_t>(n)] = 1;

  // Terminal usage per node: which devices gate on it, whether any device
  // channel (drain/source) touches it.
  std::vector<int> gate_dev(nodes, -1);
  std::vector<char> channel(nodes, 0);
  std::vector<std::vector<int>> adj(nodes);  // channel graph
  for (size_t d = 0; d < flat.devices.size(); ++d) {
    const auto& dev = flat.devices[d];
    // ERC003: a device whose drain and source land on one node conducts
    // nothing and usually indicates a miswired instance.
    if (dev.drain == dev.source) {
      rep.add("ERC003", Severity::kError, macro, dev.name,
              strfmt("source and drain are both node '%s'",
                     flat.node_names.at(static_cast<size_t>(dev.drain))
                         .c_str()));
    }
    if (dev.gate >= 0 && gate_dev[static_cast<size_t>(dev.gate)] < 0)
      gate_dev[static_cast<size_t>(dev.gate)] = static_cast<int>(d);
    for (int t : {dev.drain, dev.source}) {
      if (t < 0 || static_cast<size_t>(t) >= nodes) continue;
      channel[static_cast<size_t>(t)] = 1;
    }
    if (dev.drain >= 0 && dev.source >= 0 && dev.drain != dev.source) {
      adj[static_cast<size_t>(dev.drain)].push_back(dev.source);
      adj[static_cast<size_t>(dev.source)].push_back(dev.drain);
    }
  }

  // ERC001: a node that only gates devices — never a channel terminal, not
  // a supply, not externally driven — has no defined voltage.
  for (size_t n = 0; n < nodes; ++n) {
    if (gate_dev[n] < 0 || channel[n] || is_source[n]) continue;
    rep.add("ERC001", Severity::kError, macro, flat.node_names[n],
            strfmt("gate of device '%s' is floating (no driver, port, or "
                   "supply)",
                   flat.devices[static_cast<size_t>(gate_dev[n])]
                       .name.c_str()));
  }

  // ERC002: every channel-connected node must reach a DC source (VDD, GND,
  // or an externally driven node) through device channels.
  std::vector<char> reached(nodes, 0);
  std::vector<int> queue;
  for (size_t n = 0; n < nodes; ++n) {
    if (!is_source[n]) continue;
    reached[n] = 1;
    queue.push_back(static_cast<int>(n));
  }
  while (!queue.empty()) {
    const int n = queue.back();
    queue.pop_back();
    for (int m : adj[static_cast<size_t>(n)]) {
      if (reached[static_cast<size_t>(m)]) continue;
      reached[static_cast<size_t>(m)] = 1;
      queue.push_back(m);
    }
  }
  for (size_t n = 0; n < nodes; ++n) {
    if (!channel[n] || reached[n]) continue;
    rep.add("ERC002", Severity::kError, macro, flat.node_names[n],
            "no DC path to VDD/GND or an input through device channels");
  }
}

// ---------------------------------------------------------------------------
// Component-level rules (ERC004-ERC012)
// ---------------------------------------------------------------------------

/// Structural position of one label use, e.g. "static.pd" (static
/// pull-down leaf) or "domino.precharge". Two uses of one size label
/// should agree — that is the regularity the shared variable expresses
/// across bit slices. Series depth within one position is deliberately
/// NOT distinguished: sizing a whole stack with one variable is the
/// uniform-stack idiom the database uses throughout.
void collect_signatures(const Netlist& nl,
                        std::map<LabelId, std::set<std::string>>& sig,
                        std::map<LabelId, std::vector<CompId>>& users) {
  for (size_t ci = 0; ci < nl.comp_count(); ++ci) {
    const auto c = static_cast<CompId>(ci);
    const Component& comp = nl.comp(c);
    auto use = [&](LabelId label, std::string position) {
      if (label < 0) return;
      sig[label].insert(std::move(position));
      users[label].push_back(c);
    };
    std::vector<std::pair<NetId, LabelId>> leaves;
    if (const auto* g = comp.as_static()) {
      g->pulldown.collect_leaves(leaves);
      for (const auto& [in, label] : leaves) use(label, "static.pd");
      use(g->pmos_label, "static.pu");
    } else if (const auto* t = comp.as_transgate()) {
      use(t->label, "pass.gate");
    } else if (const auto* t3 = comp.as_tristate()) {
      use(t3->nmos_label, "tristate.n");
      use(t3->pmos_label, "tristate.p");
    } else if (const auto* d = comp.as_domino()) {
      d->pulldown.collect_leaves(leaves);
      for (const auto& [in, label] : leaves) use(label, "domino.pd");
      use(d->precharge_label, "domino.precharge");
      use(d->evaluate_label, "domino.foot");
    }
  }
}

void component_rules(const Netlist& nl, Report& rep) {
  const std::string& macro = nl.name();

  // Per-net pass-gate structure for ERC004/ERC005.
  struct PassUse {
    CompId comp;
    NetId sel;
    NetId data;
  };
  std::map<NetId, std::vector<PassUse>> pass_drivers;  // out -> pass gates
  std::map<NetId, std::vector<CompId>> pass_data_of;   // data -> pass gates
  for (size_t ci = 0; ci < nl.comp_count(); ++ci) {
    const auto c = static_cast<CompId>(ci);
    const Component& comp = nl.comp(c);
    if (const auto* t = comp.as_transgate()) {
      pass_drivers[comp.out].push_back(PassUse{c, t->sel, t->data});
      pass_data_of[t->data].push_back(c);
    } else if (const auto* t3 = comp.as_tristate()) {
      pass_drivers[comp.out].push_back(PassUse{c, t3->en, t3->data});
    }
  }

  // ERC004: two pass structures sharing one select but carrying different
  // data onto one net are simultaneously on — a driver fight, not a mux.
  for (const auto& [net, uses] : pass_drivers) {
    std::map<NetId, std::set<NetId>> data_by_sel;
    for (const auto& u : uses) data_by_sel[u.sel].insert(u.data);
    for (const auto& [sel, datas] : data_by_sel) {
      if (datas.size() < 2) continue;
      rep.add("ERC004", Severity::kError, macro, nl.net(net).name,
              strfmt("select '%s' turns on %zu pass gates with different "
                     "data inputs at once",
                     nl.net(sel).name.c_str(), datas.size()));
    }
  }

  // ERC005: a net merged from several pass gates that itself feeds the
  // data side of another pass gate forms a bidirectional chain; charge can
  // sneak between branches while selects overlap.
  for (const auto& [net, uses] : pass_drivers) {
    if (uses.size() < 2) continue;
    auto it = pass_data_of.find(net);
    if (it == pass_data_of.end()) continue;
    rep.add("ERC005", Severity::kWarn, macro, nl.net(net).name,
            strfmt("driven by %zu pass gates and feeding pass gate '%s' — "
                   "possible sneak path",
                   uses.size(),
                   nl.comp(it->second.front()).name.c_str()));
  }

  for (size_t ci = 0; ci < nl.comp_count(); ++ci) {
    const auto c = static_cast<CompId>(ci);
    const Component& comp = nl.comp(c);

    // ERC006: series stacks beyond the family limit lose too much drive to
    // body effect and self-loading to size their way out.
    if (const auto* g = comp.as_static()) {
      const int depth = g->pulldown.max_depth();
      if (depth > kMaxStaticStack) {
        rep.add("ERC006", Severity::kWarn, macro, comp.name,
                strfmt("static series stack of %d exceeds the limit of %d",
                       depth, kMaxStaticStack));
      }
    }
    const auto* d = comp.as_domino();
    if (d == nullptr) continue;
    const bool footed = d->evaluate_label >= 0;
    const int depth = d->pulldown.max_depth() + (footed ? 1 : 0);
    if (depth > kMaxDominoStack) {
      rep.add("ERC006", Severity::kWarn, macro, comp.name,
              strfmt("domino series stack of %d (incl. foot) exceeds the "
                     "limit of %d",
                     depth, kMaxDominoStack));
    }

    // ERC007: the keeper is what holds a dynamic node against leakage and
    // noise. An unfooted (D2) stage without one is a hard error — its
    // inputs may be high at the end of precharge.
    if (d->keeper_ratio <= 0.0) {
      rep.add("ERC007", footed ? Severity::kWarn : Severity::kError, macro,
              comp.name,
              footed ? "footed domino stage has no keeper"
                     : "unfooted (D2) domino stage has no keeper");
    } else if (d->keeper_ratio < kWeakKeeperRatio) {
      rep.add("ERC007", Severity::kWarn, macro, comp.name,
              strfmt("keeper ratio %.3f below the %.3f floor",
                     d->keeper_ratio, kWeakKeeperRatio));
    } else if (d->keeper_ratio > kStrongKeeperRatio) {
      rep.add("ERC007", Severity::kWarn, macro, comp.name,
              strfmt("keeper ratio %.2f fights evaluation (limit %.2f)",
                     d->keeper_ratio, kStrongKeeperRatio));
    }

    // ERC008: domino inputs must rise monotonically during evaluation; a
    // dynamic node *falls*, so feeding one into the next stage without the
    // static output inverter can falsely discharge it.
    std::vector<std::pair<NetId, LabelId>> leaves;
    d->pulldown.collect_leaves(leaves);
    std::set<NetId> seen;
    for (const auto& [in, label] : leaves) {
      if (!seen.insert(in).second) continue;
      for (CompId drv : nl.drivers_of(in)) {
        if (nl.comp(drv).as_domino() == nullptr) continue;
        rep.add("ERC008", Severity::kError, macro, comp.name,
                strfmt("input '%s' is the dynamic node of '%s' — "
                       "non-monotonic without an output inverter",
                       nl.net(in).name.c_str(),
                       nl.comp(drv).name.c_str()));
      }
    }

    // ERC009: many internal diffusion nodes against one keeper: charge
    // sharing can droop the dynamic node when a deep path is mostly on.
    if (d->pulldown.device_count() >= kChargeShareDevices &&
        d->pulldown.max_depth() >= 2 &&
        d->keeper_ratio < kChargeShareKeeper) {
      rep.add("ERC009", Severity::kWarn, macro, comp.name,
              strfmt("%d-device pulldown with keeper ratio %.2f (< %.2f) "
                     "risks charge sharing",
                     d->pulldown.device_count(), d->keeper_ratio,
                     kChargeShareKeeper));
    }
  }

  // ERC010/ERC011: size-label regularity and dead labels.
  std::map<LabelId, std::set<std::string>> sig;
  std::map<LabelId, std::vector<CompId>> users;
  collect_signatures(nl, sig, users);
  for (size_t li = 0; li < nl.label_count(); ++li) {
    const auto l = static_cast<LabelId>(li);
    auto it = sig.find(l);
    if (it == sig.end()) {
      rep.add("ERC011", Severity::kInfo, macro, nl.label(l).name,
              "size label is never used by a device");
      continue;
    }
    if (it->second.size() < 2) continue;
    std::string positions;
    for (const auto& s : it->second) {
      if (!positions.empty()) positions += ", ";
      positions += s;
    }
    rep.add("ERC010", Severity::kWarn, macro, nl.label(l).name,
            strfmt("one size variable labels inequivalent positions: %s",
                   positions.c_str()));
  }

  // ERC012: nets nothing references — stale edits waiting to confuse a
  // later composition.
  std::vector<char> used(nl.net_count(), 0);
  for (const auto& p : nl.inputs()) used[static_cast<size_t>(p.net)] = 1;
  for (const auto& p : nl.outputs()) used[static_cast<size_t>(p.net)] = 1;
  for (size_t n = 0; n < nl.net_count(); ++n) {
    if (used[n] || !nl.load_view().loads_on(static_cast<NetId>(n)).empty())
      continue;
    rep.add("ERC012", Severity::kInfo, macro,
            nl.net(static_cast<NetId>(n)).name,
            "net is connected to nothing");
  }
}

void record_metrics(const Report& rep) {
  auto& tel = obs::Telemetry::instance();
  if (!tel.enabled()) return;
  if (rep.errors() > 0)
    tel.counter_add("lint.findings.error",
                    static_cast<double>(rep.errors()));
  if (rep.warnings() > 0)
    tel.counter_add("lint.findings.warn",
                    static_cast<double>(rep.warnings()));
}

}  // namespace

Report run_erc_flat(const FlatNetlist& flat,
                    const std::vector<int>& external_nodes,
                    const std::string& macro_name, const Options& options) {
  Report rep(options);
  flat_rules(flat, external_nodes, macro_name, rep);
  record_metrics(rep);
  return rep;
}

Report run_erc(const Netlist& nl, const Options& options) {
  SMART_CHECK(nl.finalized(), "ERC needs a finalized netlist");
  Report rep(options);

  const auto flat = netlist::flatten(nl, nl.min_sizing());
  std::vector<int> external;
  for (const auto& p : nl.inputs()) external.push_back(p.net);
  for (size_t n = 0; n < nl.net_count(); ++n)
    if (nl.net(static_cast<NetId>(n)).kind == netlist::NetKind::kClock)
      external.push_back(static_cast<int>(n));
  flat_rules(flat, external, nl.name(), rep);

  component_rules(nl, rep);
  record_metrics(rep);
  return rep;
}

}  // namespace smart::lint
