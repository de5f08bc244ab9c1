#include "core/experiment.h"

#include <algorithm>

#include "refsim/rc_timer.h"

namespace smart::core {

IsoDelayComparison run_iso_delay(const netlist::Netlist& nl,
                                 const tech::Tech& tech,
                                 const models::ModelLibrary& lib,
                                 const IsoDelayOptions& opt) {
  IsoDelayComparison cmp;

  BaselineSizer baseline(tech, opt.baseline);
  const auto base_sizing = baseline.size(nl);
  Sizer sizer(tech, lib);
  cmp.baseline = sizer.measure(nl, base_sizing);

  const refsim::RcTimer timer(tech);
  const auto base_report = timer.analyze(nl, base_sizing);

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
