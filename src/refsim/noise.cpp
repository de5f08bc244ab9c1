#include "refsim/noise.h"

#include <algorithm>

#include "refsim/rc_timer.h"
#include "util/check.h"

namespace smart::refsim {

using netlist::Netlist;
using netlist::Sizing;
using netlist::Stack;

namespace {

/// Keeper conductance must be at least this fraction of the worst pull-down
/// conductance (holds the node against leakage/noise) ...
constexpr double kMinKeeperStrength = 0.01;
/// ... and at most this fraction (evaluation must win cleanly).
constexpr double kMaxKeeperStrength = 0.5;

/// Worst-case internal capacitance that can share charge with the dynamic
/// node: the diffusion of every device on the deepest series path except
/// the topmost (whose drain *is* the dynamic node).
double internal_share_cap(const Netlist& nl, const netlist::DominoGate& gate,
                          const Sizing& sizing, const tech::Tech& tech) {
  const auto path = gate.pulldown.worst_path();
  double cap = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    // Node between devices i and i+1 carries both diffusions.
    cap += tech.c_diff * (nl.label_width(path[i].second, sizing) +
                          nl.label_width(path[i + 1].second, sizing));
  }
  // A footed stack adds one more internal node above the evaluate device.
  if (gate.evaluate_label >= 0 && !path.empty()) {
    cap += tech.c_diff * (nl.label_width(path.back().second, sizing) +
                          nl.label_width(gate.evaluate_label, sizing));
  }
  return cap;
}

}  // namespace

std::vector<DominoNoiseReport> analyze_domino_noise(
    const Netlist& nl, const Sizing& sizing, const tech::Tech& tech,
    const NoiseOptions& options) {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
  const RcTimer timer(tech);
  const auto caps = timer.all_net_caps(nl, sizing);

  std::vector<DominoNoiseReport> reports;
  for (size_t c = 0; c < nl.comp_count(); ++c) {
    const auto& comp = nl.comp(static_cast<netlist::CompId>(c));
    const auto* gate = comp.as_domino();
    if (gate == nullptr) continue;

    DominoNoiseReport report;
    report.comp = static_cast<netlist::CompId>(c);
    report.name = comp.name;

    const double c_dyn = caps[static_cast<size_t>(comp.out)];
    const double c_int = internal_share_cap(nl, *gate, sizing, tech);
    report.charge_share = c_int / (c_int + c_dyn);
    report.charge_share_ok = report.charge_share <= options.max_charge_share;

    // Conductance ratio of the keeper vs the worst pull-down path.
    double r_path = 0.0;
    for (const auto& [net, label] : gate->pulldown.worst_path())
      r_path += tech.r_nmos / nl.label_width(label, sizing);
    if (gate->evaluate_label >= 0)
      r_path += tech.r_nmos / nl.label_width(gate->evaluate_label, sizing);
    const double g_path = 1.0 / r_path;
    const double g_keeper =
        gate->keeper_ratio * nl.label_width(gate->precharge_label, sizing) /
        tech.r_pmos;
    report.keeper_strength = g_keeper / g_path;
    report.keeper_ok = report.keeper_strength >= kMinKeeperStrength &&
                       report.keeper_strength <= kMaxKeeperStrength;

    reports.push_back(std::move(report));
  }
  return reports;
}

bool noise_clean(const std::vector<DominoNoiseReport>& reports) {
  return std::all_of(reports.begin(), reports.end(),
                     [](const DominoNoiseReport& r) { return r.ok(); });
}

}  // namespace smart::refsim
