#include "core/experiment.h"

#include <algorithm>

#include "refsim/rc_timer.h"

namespace smart::core {

namespace {

/// Empties a vector and frees its buffer.
template <class V>
void release(V& v) {
  V().swap(v);
}

}  // namespace

IsoDelayComparison run_iso_delay(const netlist::Netlist& nl,
                                 const tech::Tech& tech,
                                 const models::ModelLibrary& lib,
                                 const IsoDelayOptions& opt) {
  IsoDelayComparison cmp;

  BaselineSizer baseline(tech, opt.baseline);
  const auto base_sizing = baseline.size(nl);
  // One reference-timer run serves both the measurement and the
  // drop-in slope limit below.
  const auto base_report = refsim::RcTimer(tech).analyze(nl, base_sizing);
  const auto base_stats = nl.device_stats(base_sizing);
  cmp.baseline = {true,
                  base_sizing,
                  base_report.worst_delay,
                  base_report.worst_precharge,
                  base_stats.total_width,
                  base_stats.clock_gate_width};
  Sizer sizer(tech, lib);

  SizerOptions sopt = opt.sizer;
  sopt.delay_spec_ps = cmp.baseline.measured_delay_ps;
  // The precharge must fit inside the opposite clock phase; with a
  // symmetric clock that budget is the evaluate-phase delay, so the
  // binding requirement is the looser of the original's settle time and
  // the phase budget.
  sopt.precharge_spec_ps =
      cmp.baseline.measured_precharge_ps > 0.0
          ? std::max(cmp.baseline.measured_precharge_ps,
                     cmp.baseline.measured_delay_ps)
          : -1.0;
  sopt.input_cap_limits_ff = sizer.input_caps(nl, base_sizing);
  // The SMART design must be a drop-in replacement: it may not have worse
  // edges than the original anywhere, but it need not be better either.
  sopt.slope_budget_ps = std::max(
      sopt.slope_budget_ps, base_report.max_internal_slope * 1.02);

  cmp.smart = sizer.size(nl, sopt);
  // A comparison is one row of a results table, and sweeps keep thousands
  // of them: it keeps the design, its measurements, its verdict and its
  // work counts. The solve's own diagnostics (respec trace, binding set,
  // GP point) are released; Sizer::size gives them to callers that want
  // to inspect one solve.
  release(cmp.smart.respec_trace);
  release(cmp.smart.binding_constraints);
  release(cmp.smart.solution_x);
  // Degraded-rung results (relaxed constraints or baseline fallback) are
  // usable sizings but not iso-delay wins: drop-in invariants only hold for
  // a fully constrained GP solve.
  cmp.ok = cmp.smart.converged();

  power::PowerEstimator estimator(tech);
  cmp.baseline_power = estimator.estimate(nl, base_sizing, opt.activity);
  if (cmp.smart.ok)
    cmp.smart_power = estimator.estimate(nl, cmp.smart.sizing, opt.activity);
  return cmp;
}

}  // namespace smart::core
