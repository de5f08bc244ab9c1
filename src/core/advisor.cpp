#include "core/advisor.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "lint/erc.h"
#include "par/par.h"
#include "obs/obs.h"
#include "power/power.h"
#include "refsim/critical_path.h"
#include "refsim/rc_timer.h"
#include "util/check.h"
#include "util/strfmt.h"

namespace smart::core {

namespace {

/// Value of a cost metric for a sized netlist.
double metric_value(const netlist::Netlist& nl, const netlist::Sizing& sizing,
                    CostMetric cost, const power::PowerOptions& activity,
                    const tech::Tech& tech) {
  switch (cost) {
    case CostMetric::kTotalWidth:
      return nl.device_stats(sizing).total_width;
    case CostMetric::kPower: {
      power::PowerEstimator est(tech);
      return est.estimate(nl, sizing, activity).total_mw;
    }
    case CostMetric::kClockLoad:
      return nl.device_stats(sizing).clock_gate_width;
  }
  return 0.0;
}

/// Critical-path one-liner for a sized candidate. Best-effort: a backtrace
/// failure (degenerate netlist, injected fault) leaves the optional empty
/// rather than failing the candidate.
std::optional<CriticalSummary> summarize_critical(
    const netlist::Netlist& nl, const SizerResult& sizing,
    const tech::Tech& tech) {
  try {
    const auto cp = refsim::critical_path(nl, sizing.sizing, tech);
    if (cp.end < 0 || cp.steps.empty()) return std::nullopt;
    CriticalSummary s;
    s.startpoint = util::strfmt("%s (%s)", nl.net(cp.start).name.c_str(),
                                cp.start_rise ? "R" : "F");
    s.endpoint = util::strfmt(
        "%s (%s)", nl.net(cp.end).name.c_str(),
        cp.steps.back().out_rise ? "R" : "F");
    s.arrival_ps = cp.arrival_ps;
    s.stages = cp.steps.size();
    if (!sizing.binding_constraints.empty())
      s.limited_by = sizing.binding_constraints.front();
    return s;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

Advice DesignAdvisor::advise(const AdvisorRequest& request) const {
  obs::Span advise_span("advisor.advise");
  Advice advice;
  const auto topos = db_->topologies(request.spec.type, &request.spec);
  if (topos.empty()) {
    advice.message =
        "no applicable topology for macro type '" + request.spec.type + "'";
    return advice;
  }

  // Derive the delay spec from a baseline-sized reference design if the
  // designer did not give one.
  double delay_spec = request.delay_spec_ps;
  double pre_spec = request.precharge_spec_ps;
  if (delay_spec <= 0.0) {
    try {
      netlist::Netlist ref = topos.front()->generate(request.spec);
      apply_site_wiring(ref, request.spec);
      BaselineSizer baseline(*tech_, request.baseline);
      const auto ref_sizing = baseline.size(ref);
      const refsim::RcTimer timer(*tech_);
      const auto rep = timer.analyze(ref, ref_sizing);
      delay_spec = rep.worst_delay;
      if (pre_spec <= 0.0 && rep.worst_precharge > 0.0)
        pre_spec = rep.worst_precharge;
    } catch (const std::exception& e) {
      advice.message = util::strfmt(
          "could not derive a delay spec from the reference design: %s",
          e.what());
      return advice;
    }
    if (!(delay_spec > 0.0) || !std::isfinite(delay_spec)) {
      advice.message = util::strfmt(
          "reference design produced an unusable delay spec (%g ps)",
          delay_spec);
      return advice;
    }
  }
  advice.derived_delay_spec_ps = delay_spec;

  // Sizes one candidate. Must not throw: a poisoned candidate (bad model,
  // degenerate GP, generator bug) is reported, not fatal — the sweep over
  // the remaining topologies continues.
  auto size_one = [&](const TopologyEntry* entry) {
    // Wall time is measured unconditionally (StopWatch) so Advice always
    // carries per-candidate timing; the span only records when tracing.
    obs::Span span("advisor.candidate:" + entry->name);
    obs::StopWatch watch;
    Solution sol{entry->name, netlist::Netlist{entry->name}, SizerResult{},
                 0.0, false, 0.0, std::nullopt};
    try {
      sol.netlist = entry->generate(request.spec);
      apply_site_wiring(sol.netlist, request.spec);
      // Pre-solve gate: a candidate whose schematic fails ERC (floating
      // gates, undriven nodes, pass-gate contention, ...) would only fail
      // later and slower inside the optimizer — report it structurally
      // instead of spending a GP solve on it.
      const auto erc = lint::run_erc(sol.netlist);
      if (erc.errors() > 0) {
        const auto* worst = erc.first(lint::Severity::kError);
        sol.sizing.ok = false;
        sol.sizing.status = util::Status::Fail(
            util::FailureReason::kInvalidInput,
            util::strfmt("erc %s at %s: %s", worst->rule.c_str(),
                         worst->location.c_str(), worst->message.c_str()));
        sol.sizing.message = sol.sizing.status.to_string();
      } else {
        SizerOptions sopt = request.sizer;
        sopt.delay_spec_ps = delay_spec;
        sopt.precharge_spec_ps = pre_spec;
        sopt.cost = request.cost;
        Sizer sizer(*tech_, *lib_);
        if (sopt.input_cap_limit_ff <= 0.0 &&
            sopt.input_cap_limits_ff.empty()) {
          // Drop-in-replacement rule: the SMART solution may not present
          // more pin capacitance than this topology's baseline-sized
          // design would.
          BaselineSizer baseline(*tech_, request.baseline);
          sopt.input_cap_limits_ff =
              sizer.input_caps(sol.netlist, baseline.size(sol.netlist));
        }
        sol.sizing = sizer.size(sol.netlist, sopt);
        if (sol.sizing.ok && sol.sizing.rung != SizingRung::kBaseline) {
          sol.meets_spec = sol.sizing.rung == SizingRung::kGp &&
                           sol.sizing.message == "converged";
          sol.cost_value = metric_value(sol.netlist, sol.sizing.sizing,
                                        request.cost, request.sizer.activity,
                                        *tech_);
          sol.critical = summarize_critical(sol.netlist, sol.sizing, *tech_);
        }
      }
    } catch (const std::exception& e) {
      sol.sizing.ok = false;
      sol.sizing.status = util::Status::Fail(
          util::FailureReason::kInternal, e.what());
      sol.sizing.message = sol.sizing.status.to_string();
    }
    sol.wall_ms = watch.elapsed_ms();
    auto& tel = obs::Telemetry::instance();
    if (tel.enabled()) {
      const bool ranked =
          sol.sizing.ok && sol.sizing.rung != SizingRung::kBaseline;
      tel.hist_record("advisor.candidate.ms", sol.wall_ms);
      tel.counter_add(ranked ? "advisor.candidate.ok"
                             : "advisor.candidate.failed");
      span.arg("wall_ms", sol.wall_ms);
      span.arg("ok", ranked ? 1.0 : 0.0);
    }
    return sol;
  };

  // Candidate fan-out on the shared worker pool. Results land index-ordered
  // (slot i belongs to topos[i]), so the sweep ranks identically at any
  // thread count; each candidate's sizing runs on one thread. Solution has
  // no default constructor (Netlist carries a mandatory name), hence the
  // optional hop.
  std::vector<Solution> sized;
  sized.reserve(topos.size());
  if (request.parallel && topos.size() > 1) {
    auto slots = par::parallel_map<std::optional<Solution>>(
        topos.size(),
        [&](size_t i) { return std::optional<Solution>(size_one(topos[i])); },
        "advisor.sweep");
    for (auto& slot : slots) sized.push_back(std::move(*slot));
  } else {
    for (const TopologyEntry* entry : topos) sized.push_back(size_one(entry));
  }

  for (auto& sol : sized) {
    // A candidate only ranks when the optimizer produced its sizing; failed
    // and baseline-degraded candidates are reported with their structured
    // reason instead ("reported, not fatal").
    if (!sol.sizing.ok || sol.sizing.rung == SizingRung::kBaseline) {
      advice.message += util::strfmt("[%s: %s] ", sol.topology.c_str(),
                                     sol.sizing.message.c_str());
      advice.failures.push_back({sol.topology, sol.sizing.status,
                                 sol.sizing.rung, sol.sizing.message,
                                 sol.wall_ms});
      continue;
    }
    advice.solutions.push_back(std::move(sol));
  }

  // Deterministic ranking: stable sort plus a full tie-break chain so equal
  // costs cannot reorder between runs (or between parallel/serial sizing).
  std::stable_sort(advice.solutions.begin(), advice.solutions.end(),
                   [](const Solution& a, const Solution& b) {
                     if (a.meets_spec != b.meets_spec) return a.meets_spec;
                     if (a.cost_value != b.cost_value)
                       return a.cost_value < b.cost_value;
                     return a.topology < b.topology;
                   });
  if (advice.message.empty()) advice.message = "ok";
  return advice;
}

std::vector<TradeoffPoint> DesignAdvisor::tradeoff_curve(
    const netlist::Netlist& nl, const std::vector<double>& delay_specs,
    const SizerOptions& base_options) const {
  std::vector<TradeoffPoint> curve;
  Sizer sizer(*tech_, *lib_);
  for (double spec : delay_specs) {
    SizerOptions opt = base_options;
    opt.delay_spec_ps = spec;
    if (base_options.precharge_spec_ps <= 0.0)
      opt.precharge_spec_ps = spec * 1.5;
    // A curve point that cannot meet its spec is simply marked infeasible;
    // walking the degradation ladder would only slow the sweep down.
    opt.allow_relaxed_retry = false;
    opt.allow_baseline_fallback = false;
    const auto result = sizer.size(nl, opt);
    TradeoffPoint point;
    point.delay_spec_ps = spec;
    point.feasible = result.ok && result.rung == SizingRung::kGp &&
                     result.message == "converged";
    if (result.ok) {
      point.measured_delay_ps = result.measured_delay_ps;
      point.total_width_um = result.total_width_um;
    }
    curve.push_back(point);
  }
  return curve;
}

}  // namespace smart::core
