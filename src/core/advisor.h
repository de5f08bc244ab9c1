#pragma once

/// \file advisor.h
/// The SMART design advisor (paper Fig 1): given a macro instance with its
/// local constraints, searches the design database, sizes every applicable
/// topology for the designer's spec, and ranks the sized solutions by the
/// chosen cost metric — or hands the whole comparison to the designer
/// (Fig 7's topology exploration). Also produces area-delay trade-off
/// curves (Fig 6) by sweeping the delay specification.

#include <optional>

#include "core/baseline.h"
#include "core/database.h"
#include "core/sizer.h"

namespace smart::core {

/// Compact critical-path view of a sized candidate, extracted from the
/// reference timer's backtrace — the advise report's one-line answer to
/// "where does this topology's delay go and what limits it".
struct CriticalSummary {
  std::string startpoint;   ///< "<net> (R|F)" at the path source
  std::string endpoint;     ///< "<net> (R|F)" at the latest output
  double arrival_ps = 0.0;  ///< reference-timer arrival at the endpoint
  size_t stages = 0;        ///< arcs on the critical path
  std::string limited_by;   ///< first binding GP constraint tag, if any
};

/// One sized candidate from the advisor.
struct Solution {
  std::string topology;  ///< registered topology name
  netlist::Netlist netlist;
  SizerResult sizing;
  double cost_value = 0.0;  ///< value of the requested cost metric
  bool meets_spec = false;
  /// Wall-clock time spent generating + sizing + verifying this candidate.
  /// Always measured (not gated on tracing) so topology-comparison reports
  /// can show where a sweep's time went.
  double wall_ms = 0.0;
  /// Critical-path summary of the sized candidate; absent when the sizing
  /// failed or the backtrace could not be extracted.
  std::optional<CriticalSummary> critical;
};

struct AdvisorRequest {
  MacroSpec spec;
  double delay_spec_ps = 0.0;       ///< <= 0: derive from baseline sizing
  double precharge_spec_ps = -1.0;
  CostMetric cost = CostMetric::kTotalWidth;
  SizerOptions sizer;  ///< delay/precharge/cost fields are overwritten
  BaselineOptions baseline;
};

/// A candidate topology that could not be sized by the optimizer: either
/// the sizer failed outright or it degraded to the baseline fallback. The
/// status carries the structured FailureReason so sweep drivers can react
/// mechanically (skip, retry, or alert) per reason.
struct FailedCandidate {
  std::string topology;
  util::Status status;
  SizingRung rung = SizingRung::kGp;  ///< rung of the reported result
  std::string message;                ///< sizer's human-readable message
  double wall_ms = 0.0;               ///< time burned before giving up
};

/// Result of advising one macro instance. A poisoned or unsizable
/// candidate never aborts the sweep: it is recorded in `failures` and the
/// remaining topologies are ranked as usual.
struct Advice {
  std::vector<Solution> solutions;  ///< ranked, best first
  std::vector<FailedCandidate> failures;  ///< skipped candidates + reasons
  double derived_delay_spec_ps = 0.0;
  std::string message;

  const Solution* best() const {
    return solutions.empty() ? nullptr : &solutions.front();
  }
};

/// One point of an area-delay trade-off curve.
struct TradeoffPoint {
  double delay_spec_ps = 0.0;
  double measured_delay_ps = 0.0;
  double total_width_um = 0.0;
  bool feasible = false;
};

class DesignAdvisor {
 public:
  DesignAdvisor(const MacroDatabase& db, const tech::Tech& tech,
                const models::ModelLibrary& lib)
      : db_(&db), tech_(&tech), lib_(&lib) {}

  /// Sizes every applicable topology and ranks by cost. When the request
  /// has no explicit delay spec, the spec is derived by baseline-sizing the
  /// *first* applicable topology and measuring it — the §6.1 protocol
  /// ("produce a design with the same topology and performance").
  Advice advise(const AdvisorRequest& request) const;

  /// Sizes one named topology at a sweep of delay specs (Fig 6).
  std::vector<TradeoffPoint> tradeoff_curve(
      const netlist::Netlist& nl, const std::vector<double>& delay_specs,
      const SizerOptions& base_options) const;

 private:
  const MacroDatabase* db_;
  const tech::Tech* tech_;
  const models::ModelLibrary* lib_;
};

}  // namespace smart::core
