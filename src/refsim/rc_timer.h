#pragma once

/// \file rc_timer.h
/// Reference static timing engine (the reproduction's stand-in for PathMill,
/// see DESIGN.md). Computes per-net rise/fall arrival times and slopes over
/// a sized netlist using switch-level Elmore RC delays with:
///   - per-device effective resistance and diffusion/gate capacitance,
///   - internal stack-node capacitance along the worst conducting path,
///   - a *saturating* (non-posynomial) input-slope delay term,
///   - domino keeper contention (nonlinear in widths),
///   - separate evaluate and precharge phases for domino logic, where
///     unfooted (D2) stages cannot finish precharging before their inputs
///     reset — the monotonic reset ripple.
/// Because these effects are deliberately richer than the posynomial
/// component models, the SMART sizing loop's model-vs-STA mismatch iteration
/// (paper Fig 4) is exercised for real.

#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "tech/tech.h"

namespace smart::refsim {

/// Timing phase (shared with the netlist edge-transition tables).
using Phase = netlist::Phase;

/// Arrival/slope state of one net (ps). Arrivals start at -inf meaning the
/// transition never occurs in the analyzed phase.
struct NetTiming {
  double arr_rise;
  double arr_fall;
  double slope_rise = 0.0;
  double slope_fall = 0.0;

  double worst_arrival() const;
};

/// Timing at one macro output.
struct OutputTiming {
  netlist::NetId net = -1;
  double arr_rise = 0.0;  ///< -inf if the output never rises in this phase
  double arr_fall = 0.0;
  double slope = 0.0;     ///< slope of the worst transition
};

struct TimingReport {
  std::vector<NetTiming> nets;           ///< evaluate-phase state, by net
  std::vector<OutputTiming> outputs;     ///< evaluate-phase output timing
  double worst_delay = 0.0;              ///< max finite output arrival (ps)
  double worst_output_slope = 0.0;       ///< max slope at any output (ps)
  double max_internal_slope = 0.0;       ///< max slope anywhere (reliability)
  double worst_precharge = 0.0;          ///< max domino precharge settle (ps)
};

/// One pin-to-pin transition delay.
struct EdgeDelay {
  double delay_ps = 0.0;
  double out_slope_ps = 0.0;
};

/// Drive resistance * width of one conduction-path device (kOhm * um); a
/// pass gate's N and P devices conduct in parallel.
inline double device_r(const tech::Tech& t, netlist::DeviceKind kind) {
  switch (kind) {
    case netlist::DeviceKind::kNmos:
      return t.r_nmos;
    case netlist::DeviceKind::kPmos:
      return t.r_pmos;
    case netlist::DeviceKind::kPass:
      break;
  }
  return (t.r_nmos * t.r_pmos) / (t.r_nmos + t.r_pmos);
}

/// Reference RC timer. Stateless w.r.t. netlists; one instance per tech.
/// Every query reads the netlist's compiled load view (netlist/load_view.h)
/// for which devices load a net and which path an arc conducts through,
/// and reads widths, route capacitance and port loads live.
class RcTimer {
 public:
  explicit RcTimer(const tech::Tech& tech) : tech_(&tech) {}

  /// Full static timing analysis of a sized macro.
  TimingReport analyze(const netlist::Netlist& nl,
                       const netlist::Sizing& sizing) const;

  /// Total capacitance on a net: gate + diffusion + wire + port load (fF).
  double net_cap(const netlist::Netlist& nl, const netlist::Sizing& sizing,
                 netlist::NetId n) const;

  /// Capacitance of every net: wire and port constants first, then each
  /// net's loads in component order (net_cap adds the constants last).
  std::vector<double> all_net_caps(const netlist::Netlist& nl,
                                   const netlist::Sizing& sizing) const;

  /// Delay/slope of one arc for a given output transition in a given phase.
  /// `out_rising` selects the pull-up (true) or pull-down (false) event at
  /// the arc's destination. `in_slope` is the slope of the causing input
  /// transition (ps).
  EdgeDelay arc_delay(const netlist::Netlist& nl,
                      const netlist::Sizing& sizing, const netlist::Arc& arc,
                      bool out_rising, double in_slope,
                      Phase phase = Phase::kEvaluate) const;

  /// Same, with the destination net capacitance supplied by the caller
  /// (analyze() computes all net caps once per sizing).
  EdgeDelay arc_delay_with_cap(const netlist::Netlist& nl,
                               const netlist::Sizing& sizing,
                               const netlist::Arc& arc, bool out_rising,
                               double in_slope, Phase phase,
                               double c_out) const;

 private:
  /// Elmore delay/slope through a series device path. `path[0]` is adjacent
  /// to the output node; each entry is (resistance-ohms-um / width-um).
  /// Internal nodes carry the diffusion of their adjacent devices.
  EdgeDelay elmore(std::span<const std::pair<double, double>> r_and_w_from_out,
                   double c_out, double in_slope) const;

  const tech::Tech* tech_;
};

}  // namespace smart::refsim
