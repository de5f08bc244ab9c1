#pragma once

/// \file power.h
/// Activity-based power estimation (the reproduction's stand-in for
/// PowerMill, see DESIGN.md). Dynamic power is switched capacitance:
/// P = sum_nets toggles/cycle * C_net * Vdd^2/2 * f. The same per-net
/// activity model is used by the GP power objective (core::Sizer with
/// CostMetric::kPower), so the optimizer minimizes the quantity this
/// estimator reports.

#include "netlist/netlist.h"
#include "tech/tech.h"

namespace smart::power {

/// Toggles per cycle of domino dynamic nodes and their output inverters
/// (discharge + precharge whenever the input pattern evaluates true).
inline constexpr double kDominoActivity = 1.0;
/// Clock nets toggle twice per cycle.
inline constexpr double kClockActivity = 2.0;

struct PowerOptions {
  /// Toggles per cycle of data nets (primary inputs and static logic).
  double data_activity = 0.25;
  /// Frequency in GHz; < 0 uses the technology default.
  double freq_ghz = -1.0;
};

struct PowerReport {
  double total_mw = 0.0;         ///< total dynamic power
  double clock_mw = 0.0;         ///< portion switched by clock nets
  double switched_cap_ff = 0.0;  ///< activity-weighted capacitance
  double clock_cap_ff = 0.0;     ///< capacitance on clock nets
};

/// Toggle rates (transitions per cycle) for every net under the activity
/// model: clock nets use kClockActivity; domino dynamic nodes and nets
/// transitively downstream of them use kDominoActivity; everything else is
/// a data net. Also used by the GP power objective.
std::vector<double> net_activities(const netlist::Netlist& nl,
                                   const PowerOptions& opt);

/// Toggle rate of one net (convenience wrapper over net_activities).
double net_activity(const netlist::Netlist& nl, netlist::NetId n,
                    const PowerOptions& opt);

class PowerEstimator {
 public:
  explicit PowerEstimator(const tech::Tech& tech) : tech_(&tech) {}

  PowerReport estimate(const netlist::Netlist& nl,
                       const netlist::Sizing& sizing,
                       const PowerOptions& opt = {}) const;

 private:
  const tech::Tech* tech_;
};

}  // namespace smart::power
