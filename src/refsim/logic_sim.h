#pragma once

/// \file logic_sim.h
/// Switch-level functional simulator for macro netlists. Evaluates the
/// steady state of one clock phase: static CMOS gates through their
/// pull-down networks, pass gates / tri-states with Z resolution on shared
/// nodes, and domino gates in the evaluate phase (dynamic nodes precharged
/// high, discharged when the pull-down network conducts with the foot on).
/// Used by the test suite to verify that every generated macro computes
/// its intended function at the transistor level.

#include <map>
#include <vector>

#include "netlist/netlist.h"

namespace smart::refsim {

/// Four-valued logic: strong 0/1, unknown, floating.
enum class Logic : uint8_t { k0 = 0, k1 = 1, kX = 2, kZ = 3 };

inline Logic from_bool(bool b) { return b ? Logic::k1 : Logic::k0; }
inline bool is_known(Logic v) { return v == Logic::k0 || v == Logic::k1; }
inline Logic negate(Logic v) {
  if (v == Logic::k0) return Logic::k1;
  if (v == Logic::k1) return Logic::k0;
  return Logic::kX;
}

/// Functional simulator over a finalized netlist.
class LogicSim {
 public:
  explicit LogicSim(const netlist::Netlist& nl);

  /// Evaluate-phase steady state for the given primary input values
  /// (clock nets are implicitly at 1 / "evaluating"). Unassigned inputs
  /// are X. Returns one value per net.
  std::vector<Logic> evaluate(
      const std::map<netlist::NetId, bool>& inputs) const;

  /// Value of one net from an evaluate() result.
  static Logic value(const std::vector<Logic>& state, netlist::NetId n) {
    return state.at(static_cast<size_t>(n));
  }

 private:
  const netlist::Netlist* nl_;
};

}  // namespace smart::refsim
