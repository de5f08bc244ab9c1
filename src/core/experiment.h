#pragma once

/// \file experiment.h
/// The paper's §6.1 experiment protocol, packaged for reuse by benches,
/// tests and examples: "we extracted each macro from the design and
/// measured its loading. The delay through it was measured using PathMill.
/// We used the SMART sizer to produce a design with the same topology and
/// performance. We re-ran PathMill to verify."
///
/// Concretely: baseline-size the macro (the "original" hand design),
/// measure it with the reference timer, then ask SMART for a design with
/// the same measured delay/precharge, no more input pin capacitance, and
/// no worse internal slopes — and compare width / clock load / power.

#include "core/baseline.h"
#include "core/sizer.h"
#include "power/power.h"

namespace smart::core {

/// The original (baseline-sized) design as the reference timer measures
/// it: the fields of a SizerResult a measurement fills, and no more.
struct BaselineMeasurement {
  bool ok = false;
  netlist::Sizing sizing;
  double measured_delay_ps = 0.0;
  double measured_precharge_ps = 0.0;
  double total_width_um = 0.0;
  double clock_width_um = 0.0;
};

/// Result of one iso-performance comparison.
struct IsoDelayComparison {
  bool ok = false;               ///< SMART produced a spec-meeting design
  BaselineMeasurement baseline;  ///< measured original design
  /// SMART solution: its sizing, measurements, verdict and work counts.
  /// Sweeps keep thousands of comparisons, so the solve's own diagnostics
  /// (respec_trace, binding_constraints, solution_x) are released here;
  /// Sizer::size returns them for inspecting one solve.
  SizerResult smart;
  power::PowerReport baseline_power;
  power::PowerReport smart_power;

  double width_saving() const {
    return 1.0 - smart.total_width_um / baseline.total_width_um;
  }
  /// Clock load saving; 0 when the macro has no clocked devices.
  double clock_saving() const {
    return baseline.clock_width_um > 0.0
               ? 1.0 - smart.clock_width_um / baseline.clock_width_um
               : 0.0;
  }
  double power_saving() const {
    return 1.0 - smart_power.total_mw / baseline_power.total_mw;
  }
};

struct IsoDelayOptions {
  BaselineOptions baseline;
  /// Base sizer options; delay/precharge specs, input cap limits and the
  /// slope budget are derived from the baseline design and overwritten.
  SizerOptions sizer;
  power::PowerOptions activity;
};

/// Runs the full §6.1 protocol on one finalized macro netlist.
IsoDelayComparison run_iso_delay(const netlist::Netlist& nl,
                                 const tech::Tech& tech,
                                 const models::ModelLibrary& lib,
                                 const IsoDelayOptions& opt = {});

}  // namespace smart::core
