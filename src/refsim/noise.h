#pragma once

/// \file noise.h
/// Domino noise-immunity checks (the paper's reliability thread: "on a
/// particularly noisy portion of the chip, the designer may like to
/// manually tune certain transistor sizes"). Two classic dynamic-node
/// hazards are analyzed per domino gate:
///   * charge sharing — internal stack nodes steal charge from the dynamic
///     node when upper devices turn on before the path conducts; the
///     voltage droop is approximately C_internal / (C_internal + C_dyn),
///   * keeper strength — the keeper must be strong enough to hold the node
///     against leakage but weak enough not to fight evaluation.
/// A designer reviews this report and locks labels (Netlist::fix_label)
/// where the automatic sizing is not robust enough for the local
/// environment.

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "tech/tech.h"

namespace smart::refsim {

struct NoiseOptions {
  /// Maximum tolerated charge-sharing droop (fraction of the swing).
  double max_charge_share = 0.25;
};

struct DominoNoiseReport {
  netlist::CompId comp = -1;
  std::string name;
  double charge_share = 0.0;     ///< worst-case droop fraction
  double keeper_strength = 0.0;  ///< keeper / pull-down conductance ratio
  bool charge_share_ok = true;
  bool keeper_ok = true;

  bool ok() const { return charge_share_ok && keeper_ok; }
};

/// Analyzes every domino gate of a sized macro. Non-domino macros return
/// an empty report list.
std::vector<DominoNoiseReport> analyze_domino_noise(
    const netlist::Netlist& nl, const netlist::Sizing& sizing,
    const tech::Tech& tech, const NoiseOptions& options = {});

/// True when every domino gate passes both checks.
bool noise_clean(const std::vector<DominoNoiseReport>& reports);

}  // namespace smart::refsim
