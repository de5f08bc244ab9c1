#include "refsim/logic_sim.h"

#include "util/check.h"

namespace smart::refsim {

using netlist::NetId;
using netlist::Netlist;
using netlist::Stack;

namespace {

/// Conduction of a series/parallel network given per-leaf gate values.
/// Returns k1 (conducts), k0 (off), or kX.
Logic conducts(const Stack& s, const std::vector<Logic>& state,
               bool invert_inputs) {
  if (s.is_leaf()) {
    const Logic v = state.at(static_cast<size_t>(s.input()));
    if (v == Logic::kZ) return Logic::kX;
    return invert_inputs ? negate(v) : v;
  }
  if (s.op() == Stack::Op::kSeries) {
    Logic acc = Logic::k1;
    for (const auto& c : s.children()) {
      const Logic v = conducts(c, state, invert_inputs);
      if (v == Logic::k0) return Logic::k0;
      if (v == Logic::kX) acc = Logic::kX;
    }
    return acc;
  }
  Logic acc = Logic::k0;
  for (const auto& c : s.children()) {
    const Logic v = conducts(c, state, invert_inputs);
    if (v == Logic::k1) return Logic::k1;
    if (v == Logic::kX) acc = Logic::kX;
  }
  return acc;
}

/// Resolves the contributions of multiple drivers on a shared node.
Logic resolve(Logic a, Logic b) {
  if (a == Logic::kZ) return b;
  if (b == Logic::kZ) return a;
  if (a == b) return a;
  return Logic::kX;
}

}  // namespace

LogicSim::LogicSim(const Netlist& nl) : nl_(&nl) {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
}

std::vector<Logic> LogicSim::evaluate(
    const std::map<NetId, bool>& inputs) const {
  const Netlist& nl = *nl_;
  std::vector<Logic> state(nl.net_count(), Logic::kX);
  for (size_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net(static_cast<NetId>(n)).kind == netlist::NetKind::kClock)
      state[n] = Logic::k1;  // evaluate phase
  }
  for (const auto& [net, value] : inputs)
    state.at(static_cast<size_t>(net)) = from_bool(value);

  for (const NetId n : nl.load_view().topo_order()) {
    const auto& drivers = nl.drivers_of(n);
    if (drivers.empty()) continue;  // primary input or clock
    Logic out = Logic::kZ;
    for (const auto c : drivers) {
      const auto& comp = nl.comp(c);
      Logic contribution = Logic::kZ;
      if (const auto* g = comp.as_static()) {
        // Complementary CMOS: output is the complement of the pull-down
        // conduction; the pull-up is its structural dual.
        const Logic pd = conducts(g->pulldown, state, false);
        contribution = negate(pd);
      } else if (const auto* t = comp.as_transgate()) {
        const Logic sel = state[static_cast<size_t>(t->sel)];
        if (sel == Logic::k1) {
          contribution = state[static_cast<size_t>(t->data)];
        } else if (sel == Logic::k0) {
          contribution = Logic::kZ;
        } else {
          contribution = Logic::kX;
        }
      } else if (const auto* t3 = comp.as_tristate()) {
        const Logic en = state[static_cast<size_t>(t3->en)];
        if (en == Logic::k1) {
          contribution = negate(state[static_cast<size_t>(t3->data)]);
        } else if (en == Logic::k0) {
          contribution = Logic::kZ;
        } else {
          contribution = Logic::kX;
        }
      } else if (const auto* d = comp.as_domino()) {
        // Evaluate phase: the dynamic node was precharged high and falls
        // iff the pull-down conducts (the clocked foot is on).
        const Logic pd = conducts(d->pulldown, state, false);
        contribution = negate(pd);
      }
      out = resolve(out, contribution);
    }
    // A floating shared node holds its precharge/previous value — treat as
    // unknown for functional checking purposes.
    state[static_cast<size_t>(n)] = out == Logic::kZ ? Logic::kX : out;
  }
  return state;
}

}  // namespace smart::refsim
