#pragma once

/// \file baseline.h
/// Baseline "hand design" sizing policy. The paper compares SMART against
/// manually sized production macros and attributes the baseline's excess
/// area/power to over-design under schedule pressure (§2c: "Tight schedule
/// constraints limit design space exploration, thus resulting in
/// over-design"). This policy reproduces that mechanism:
///   * every stage is sized by a local load rule (drive the measured load
///     at a fixed per-stage RC budget) — no global slack redistribution,
///   * a uniform guard margin is applied everywhere, critical or not,
///   * clocked devices (precharge, evaluate feet) get an extra robustness
///     factor, the way designers guard dynamic nodes.
/// The resulting design is functional and meets its own timing — SMART is
/// then asked to match the baseline's *measured* performance with less
/// width (the §6.1 experiment protocol).

#include "netlist/netlist.h"
#include "tech/tech.h"

namespace smart::core {

struct BaselineOptions {
  /// Per-stage RC delay budget (ps); smaller = faster, larger baseline.
  double stage_delay_ps = 30.0;
  /// Uniform over-design guard margin applied to every width.
  double margin = 1.2;
  /// Extra factor on clock-gated devices (precharge / evaluate feet).
  double clock_margin = 2.2;
  /// Load-rule relaxation passes. Each pass re-derives every width from the
  /// loads implied by the previous pass; heavily self-loaded structures
  /// (wide domino nodes) keep growing for a few passes, reproducing the
  /// guard-banding hand designers apply to dynamic nodes. The loop stops
  /// early once no width moves by more than 2%.
  int passes = 5;
};

/// Produces the "original design" sizing for a macro.
class BaselineSizer {
 public:
  explicit BaselineSizer(const tech::Tech& tech, BaselineOptions opt = {})
      : tech_(&tech), opt_(opt) {}

  netlist::Sizing size(const netlist::Netlist& nl) const;

 private:
  const tech::Tech* tech_;
  BaselineOptions opt_;
};

}  // namespace smart::core
