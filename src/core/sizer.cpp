#include "core/sizer.h"

#include <algorithm>
#include <cmath>

#include "gp/verify.h"
#include "obs/obs.h"
#include "prof/resource.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/strfmt.h"

namespace smart::core {

using util::FailureReason;
using util::Status;

namespace {

/// Per-request telemetry: which degradation rung answered (or that none
/// could), plus the respec iteration count of the returned result.
void record_sizing(obs::Span& span, const SizerResult& r) {
  auto& tel = obs::Telemetry::instance();
  if (!tel.enabled()) return;
  tel.counter_add("sizer.size.calls");
  if (r.ok)
    tel.counter_add(std::string("sizer.rung.") + to_string(r.rung));
  else
    tel.counter_add("sizer.failed");
  tel.hist_record("sizer.respec.iterations", r.respec_iterations);
  span.arg("ok", r.ok ? 1.0 : 0.0);
  span.arg("rung", static_cast<double>(r.rung));
  span.arg("respec_iterations", r.respec_iterations);
}

}  // namespace

void spec_from_baseline(const netlist::Netlist& nl, const tech::Tech& tech,
                        const BaselineOptions& baseline, SizerOptions* opt) {
  const refsim::RcTimer timer(tech);
  const auto rep = timer.analyze(nl, BaselineSizer(tech, baseline).size(nl));
  opt->delay_spec_ps = rep.worst_delay;
  if (rep.worst_precharge > 0.0) opt->precharge_spec_ps = rep.worst_precharge;
}

const char* to_string(SizingRung rung) {
  switch (rung) {
    case SizingRung::kGp:
      return "gp";
    case SizingRung::kGpRelaxed:
      return "gp_relaxed";
    case SizingRung::kBaseline:
      return "baseline_fallback";
  }
  return "unknown";
}

SizerResult Sizer::measure(const netlist::Netlist& nl,
                           const netlist::Sizing& sizing) const {
  const refsim::RcTimer timer(*tech_);
  const auto report = timer.analyze(nl, sizing);
  const auto stats = nl.device_stats(sizing);
  SizerResult r;
  r.ok = true;
  r.sizing = sizing;
  r.measured_delay_ps = report.worst_delay;
  r.measured_precharge_ps = report.worst_precharge;
  r.total_width_um = stats.total_width;
  r.clock_width_um = stats.clock_gate_width;
  return r;
}

std::vector<double> Sizer::input_caps(const netlist::Netlist& nl,
                                      const netlist::Sizing& sizing) const {
  const refsim::RcTimer timer(*tech_);
  std::vector<double> caps;
  caps.reserve(nl.inputs().size());
  for (const auto& p : nl.inputs())
    caps.push_back(timer.net_cap(nl, sizing, p.net));
  return caps;
}

SizerResult Sizer::size_gp(const netlist::Netlist& nl,
                           const SizerOptions& opt) const {
  auto& tel = obs::Telemetry::instance();
  const refsim::RcTimer timer(*tech_);

  // One wall-clock budget for the whole rung: extraction, constraint
  // generation (polled between parallel chunks), and every GP solve all
  // draw from it. opt.gp.deadline_ms < 0 disables (the default).
  const util::Deadline deadline = util::Deadline::from_ms(opt.gp.deadline_ms);

  const double target_delay = opt.delay_spec_ps;
  const double target_pre =
      opt.precharge_spec_ps > 0.0 ? opt.precharge_spec_ps : target_delay;

  // Model-facing specifications, retargeted each iteration by the
  // model-vs-reference mismatch. The slope budget also relaxes on repeated
  // infeasibility: the (conservative) slope models can over-predict edges
  // on heavily loaded dynamic nodes that the reference timer accepts.
  double model_spec = target_delay;
  double model_pre_spec = target_pre;
  double slope_budget = opt.slope_budget_ps;

  util::Vec warm_start;  // previous iteration's solution
  // Constraint templates are rebuilt only when the slope budget moves
  // (infeasibility relaxation); otherwise each iteration just re-normalizes
  // them for the new model-facing specs.
  GeneratedProblem gen;
  double built_slope_budget = -1.0;
  SizerResult best;
  best.message = "no feasible GP solve";
  Status last_fail = Status::Fail(FailureReason::kInfeasible,
                                  "no feasible GP solve");
  double best_err = 1e300;
  bool best_meets = false;
  double prev_width = -1.0;
  int total_newton = 0;

  // Introspection: per-iteration retargeting trace plus the parameters of
  // the accepted solve (for the optional snapshot regeneration below).
  std::vector<RespecIteration> respec_trace;
  int accepted_trace_idx = -1;
  gp::GpResult snap_gp;
  double snap_model_spec = 0.0, snap_model_pre = 0.0, snap_slope = 0.0;
  std::vector<double> snap_required;

  // Constraint options at the given model-facing specs; everything else
  // comes from the caller's options.
  auto constraint_options = [&](double spec, double pre, double slope,
                                const std::vector<double>& required) {
    ConstraintOptions copt;
    copt.delay_spec_ps = spec;
    copt.precharge_spec_ps = pre;
    copt.slope_budget_ps = slope;
    copt.enforce_slopes = opt.enforce_slopes;
    copt.otb = opt.otb;
    copt.cost = opt.cost;
    copt.activity = opt.activity;
    copt.prune = opt.prune;
    copt.input_cap_limit_ff = opt.input_cap_limit_ff;
    copt.input_cap_limits_ff = opt.input_cap_limits_ff;
    copt.output_required_ps = required;
    return copt;
  };
  // Infeasible at the current model-facing specs (rejected pre-solve or by
  // the solver): relax them and the slope budget, then retry.
  auto relax = [&] {
    model_spec *= 1.25;
    model_pre_spec *= 1.25;
    slope_budget = std::min(slope_budget * 1.15, opt.slope_budget_ps * 2.0);
  };

  for (int iter = 0; iter < opt.max_respec_iters; ++iter) {
    if (deadline.expired()) {
      last_fail = Status::Fail(FailureReason::kTimeout,
                               "sizing deadline exceeded between respec "
                               "iterations");
      if (!best.ok) best.message = last_fail.to_string();
      break;
    }
    obs::Span iter_span("sizer.respec_iter");
    iter_span.arg("iter", iter);
    tel.counter_add("sizer.respec.iters");
    std::vector<double> scaled_required = opt.output_required_ps;
    for (auto& r : scaled_required)
      if (r > 0.0) r *= model_spec / target_delay;  // respec scales ports too

    {
      obs::Span gen_span("sizer.constraints");
      if (built_slope_budget != slope_budget) {
        ConstraintOptions copt = constraint_options(
            model_spec, model_pre_spec, slope_budget, scaled_required);
        copt.deadline = deadline.enabled ? &deadline : nullptr;
        try {
          gen = generate_problem(nl, copt, *lib_, *tech_);
        } catch (const util::TimeoutError& e) {
          // Extraction/congen ran out of budget: report kTimeout and let
          // the ladder produce a valid (if unoptimized) point.
          last_fail = Status::Fail(FailureReason::kTimeout, e.what());
          if (!best.ok) best.message = last_fail.to_string();
          break;
        }
        built_slope_budget = slope_budget;
        // Pre-solve gate: statically reject degenerate problems (NaN
        // coefficients, box-infeasible constraints, unbounded variables)
        // instead of letting the solver spend Newton iterations discovering
        // the same thing numerically. The structured reason feeds the same
        // degradation ladder a failed solve would.
        const auto wf = verify_generated(gen, {}, nl.name());
        if (wf.errors() > 0) {
          last_fail = gp::verify_status(wf);
          if (!best.ok) {
            best.message = util::strfmt("GP rejected pre-solve: %s",
                                        last_fail.to_string().c_str());
            best.path_stats = gen.path_stats;
          }
          if (last_fail.reason == FailureReason::kInfeasible) {
            // Box-infeasible at this spec: relax exactly as a solver
            // phase-I failure would, and retry.
            relax();
            continue;
          }
          break;
        }
      } else {
        assemble_problem(gen, model_spec, model_pre_spec, opt.otb,
                         scaled_required, nl);
      }
    }

    // First iteration: accept a caller-provided warm start (a cached
    // neighbor's solution) when it matches the generated variable table
    // and is numerically sane; anything else degrades to a cold solve.
    if (iter == 0 && warm_start.empty() && !opt.warm_start.empty() &&
        opt.warm_start.size() == gen.vars->size()) {
      bool sane = true;
      for (const double v : opt.warm_start)
        if (!std::isfinite(v) || v <= 0.0) sane = false;
      if (sane) {
        warm_start = opt.warm_start;
        tel.counter_add("sizer.warm_start.accepted");
      } else {
        tel.counter_add("sizer.warm_start.rejected");
      }
    }

    gp::SolverOptions gpo = opt.gp;
    gpo.deadline_ms = deadline.remaining_ms();  // -1 when no deadline
    gp::GpSolver solver(gpo);
    const gp::GpResult sol =
        warm_start.empty() ? solver.solve(*gen.problem)
                           : solver.solve_from(*gen.problem, warm_start);
    total_newton += sol.newton_iterations;
    RespecIteration rec;
    rec.iter = iter;
    rec.model_spec_ps = model_spec;
    rec.model_pre_spec_ps = model_pre_spec;
    rec.gp_status = sol.status;
    rec.binding_count = sol.binding.size();
    if (sol.status == gp::SolveStatus::kInfeasible) {
      respec_trace.push_back(rec);
      // The model may overestimate delay (it is conservative); relax the
      // model-facing spec and retry. If the target is truly unreachable the
      // loop ends with a best-effort result whose message says so.
      last_fail = sol.diagnostics;
      if (!best.ok) {
        best.message = util::strfmt(
            "infeasible at model spec %.1f ps: %s", model_spec,
            sol.message.c_str());
        best.path_stats = gen.path_stats;
      }
      relax();
      continue;
    }
    if (sol.status == gp::SolveStatus::kNumericalError ||
        sol.status == gp::SolveStatus::kTimeout ||
        sol.status == gp::SolveStatus::kInvalidInput) {
      respec_trace.push_back(rec);
      // Poisoned problem data or an exhausted deadline: retrying the respec
      // loop cannot fix either, so hand the structured reason up the ladder.
      last_fail = sol.diagnostics;
      if (!best.ok) {
        best.message = util::strfmt("GP solve failed: %s",
                                    sol.message.c_str());
        best.path_stats = gen.path_stats;
      }
      break;
    }
    // kOptimal and kMaxIter both carry a usable finite point; a best-effort
    // kMaxIter solution is verified against the reference timer like any
    // other and kept only if it measures well.

    warm_start = sol.x;
    auto sizing = sizing_from_solution(nl, gen, sol.x);
    if (opt.width_grid_um > 0.0) {
      for (size_t li = 0; li < nl.label_count(); ++li) {
        const auto& label = nl.label(static_cast<netlist::LabelId>(li));
        if (label.fixed) continue;
        const double cells = std::ceil(sizing[li] / opt.width_grid_um - 1e-9);
        sizing[li] = std::min(cells * opt.width_grid_um, label.w_max);
      }
    }
    const auto report = [&] {
      obs::Span verify_span("sizer.verify");
      return timer.analyze(nl, sizing);
    }();
    const auto stats = nl.device_stats(sizing);
    if (!std::isfinite(report.worst_delay) ||
        !std::isfinite(report.worst_precharge) ||
        !std::isfinite(stats.total_width)) {
      // Reference verification produced garbage (e.g. an injected timer
      // fault): this sizing cannot be trusted or compared.
      last_fail = Status::Fail(FailureReason::kNumericalError,
                               "non-finite reference-timer measurement");
      if (!best.ok) best.message = last_fail.to_string();
      respec_trace.push_back(rec);
      break;
    }

    // The delay spec is an upper bound: a design that is *faster* than the
    // target at minimum feasible width (e.g. pinned by slope constraints)
    // is converged, not an error.
    const double err_delay =
        std::max(0.0, (report.worst_delay - target_delay) / target_delay);
    const double slack_delay =
        std::max(0.0, (target_delay - report.worst_delay) / target_delay);
    const double err_pre =
        report.worst_precharge > 0.0
            ? std::max(0.0, (report.worst_precharge - target_pre) / target_pre)
            : 0.0;
    // Precharge only penalizes overshoot: settling early is free.
    const double err = std::max(err_delay, err_pre);

    const bool meets =
        report.worst_delay <= target_delay * (1 + kConvergeTol) &&
        report.worst_precharge <= target_pre * (1 + kConvergeTol);
    if (meets && best.converged_iteration < 0)
      best.converged_iteration = iter + 1;
    // Preference order: meeting spec with least width, then closest miss.
    const bool better =
        !best.ok ||
        (meets && (!best_meets || stats.total_width < best.total_width_um)) ||
        (!meets && !best_meets && err < best_err);
    if (better) {
      best.ok = true;
      best.sizing = sizing;
      best.measured_delay_ps = report.worst_delay;
      best.measured_precharge_ps = report.worst_precharge;
      best.total_width_um = stats.total_width;
      best.clock_width_um = stats.clock_gate_width;
      best.modeled_cost = sol.objective;
      best.path_stats = gen.path_stats;
      best.constraint_count = gen.timing_constraints +
                              gen.stage_constraints + gen.slope_constraints;
      best.binding_constraints = sol.binding;
      best.respec_iterations = iter + 1;
      best.solution_x = sol.x;
      best.message = meets ? "converged" : "best effort";
      best_err = err;
      best_meets = meets;
      accepted_trace_idx = static_cast<int>(respec_trace.size());
      if (opt.keep_solve_snapshot) {
        snap_gp = sol;
        snap_model_spec = model_spec;
        snap_model_pre = model_pre_spec;
        snap_slope = slope_budget;
        snap_required = scaled_required;
      }
    }
    rec.measured_delay_ps = report.worst_delay;
    rec.measured_precharge_ps = report.worst_precharge;
    rec.total_width_um = stats.total_width;
    rec.mismatch = std::fabs(report.worst_delay / model_spec - 1.0);
    rec.meets = meets;
    respec_trace.push_back(rec);

    // Model-vs-measured mismatch of this iteration: the GP sized to hit
    // model_spec, the reference timer measured worst_delay — their ratio is
    // the model error the respec loop corrects for ("better model accuracy
    // leads to faster convergence" — §5.1).
    if (tel.enabled()) {
      const double mismatch =
          std::fabs(report.worst_delay / model_spec - 1.0);
      tel.hist_record("sizer.respec.mismatch", mismatch);
      iter_span.arg("model_spec_ps", model_spec);
      iter_span.arg("measured_ps", report.worst_delay);
      iter_span.arg("mismatch", mismatch);
    }

    util::log_debug(util::strfmt(
        "sizer iter %d: model spec %.1f -> measured %.1f (target %.1f), "
        "width %.1f", iter, model_spec, report.worst_delay, target_delay,
        stats.total_width));

    if (meets && slack_delay <= kConvergeTol) break;
    // Width stagnation with spec met: the solution is pinned by other
    // constraints (slopes, caps); relaxing the spec further cannot help.
    if (meets && prev_width > 0.0 &&
        std::fabs(stats.total_width - prev_width) < 0.005 * prev_width) {
      break;
    }
    prev_width = stats.total_width;

    // Retarget by the mismatch ratio, damped to avoid oscillation.
    const double ratio = std::clamp(
        target_delay / std::max(report.worst_delay, 1e-6), 0.5, 2.0);
    model_spec *= std::pow(ratio, 0.8);
    if (report.worst_precharge > 0.0) {
      const double pratio = std::clamp(
          target_pre / std::max(report.worst_precharge, 1e-6), 0.5, 2.0);
      model_pre_spec *= std::pow(pratio, 0.8);
    }
  }

  best.gp_newton_iterations = total_newton;
  best.status = best.ok ? Status::Ok() : last_fail;
  if (accepted_trace_idx >= 0 &&
      accepted_trace_idx < static_cast<int>(respec_trace.size()))
    respec_trace[static_cast<size_t>(accepted_trace_idx)].accepted = true;
  best.respec_trace = std::move(respec_trace);

  // Optional snapshot: regenerate the problem at the accepted iteration's
  // model-facing specs. generate_problem is deterministic in its options,
  // so the regenerated constraint order matches snap_gp.diag index-for-
  // index without having to copy a move-only GeneratedProblem mid-loop.
  if (opt.keep_solve_snapshot && best.ok && snap_model_spec > 0.0) {
    try {
      auto snap = std::make_shared<SolveSnapshot>();
      snap->gen = generate_problem(
          nl,
          constraint_options(snap_model_spec, snap_model_pre, snap_slope,
                             snap_required),
          *lib_, *tech_);
      snap->gp = std::move(snap_gp);
      snap->model_delay_spec_ps = snap_model_spec;
      snap->model_precharge_spec_ps = snap_model_pre;
      snap->slope_budget_ps = snap_slope;
      snap->target_delay_ps = target_delay;
      snap->target_precharge_ps = target_pre;
      snap->scaled_required_ps = snap_required;
      best.snapshot = std::move(snap);
    } catch (const std::exception& e) {
      // A snapshot is an introspection extra; failing to build one must
      // not fail a sizing that already verified.
      util::log_warn(util::strfmt("sizer: snapshot regeneration failed: %s",
                                  e.what()));
    }
  }
  return best;
}

SizerResult Sizer::size(const netlist::Netlist& nl,
                        const SizerOptions& opt) const {
  obs::Span size_span("sizer.size");
  prof::ResourceScope size_rusage("sizer.size");
  if (!(opt.delay_spec_ps > 0.0)) {
    SizerResult r;
    r.status = Status::Fail(FailureReason::kInvalidInput,
                            "delay spec must be positive");
    r.message = r.status.to_string();
    record_sizing(size_span, r);
    return r;
  }

  // The deadline budget spans the whole degradation ladder: a rung-2 retry
  // only gets what rung 1 left over, so a served request's budget bounds
  // the entire call, not each rung separately.
  const util::Deadline ladder_deadline =
      util::Deadline::from_ms(opt.gp.deadline_ms);

  // Rung 1: the full GP sizing loop.
  SizerResult first;
  try {
    first = size_gp(nl, opt);
  } catch (const util::TimeoutError& e) {
    first.ok = false;
    first.status = Status::Fail(FailureReason::kTimeout, e.what());
    first.message = first.status.to_string();
  } catch (const util::Error& e) {
    first.ok = false;
    first.status = Status::Fail(FailureReason::kNumericalError, e.what());
    first.message = first.status.to_string();
  } catch (const std::exception& e) {
    first.ok = false;
    first.status = Status::Fail(FailureReason::kInternal, e.what());
    first.message = first.status.to_string();
  }
  if (first.ok) {
    record_sizing(size_span, first);
    return first;
  }
  const Status gp_failure = first.status.ok()
                                ? Status::Fail(FailureReason::kInfeasible,
                                               first.message)
                                : first.status;

  // Rung 2: the slope and input-cap constraints are the usual source of
  // over-tight problems — drop them and retry a short respec loop.
  if (opt.allow_relaxed_retry &&
      (opt.enforce_slopes || opt.input_cap_limit_ff > 0.0 ||
       !opt.input_cap_limits_ff.empty())) {
    SizerOptions relaxed = opt;
    relaxed.enforce_slopes = false;
    relaxed.input_cap_limit_ff = -1.0;
    relaxed.input_cap_limits_ff.clear();
    relaxed.max_respec_iters = std::min(opt.max_respec_iters, 4);
    // The retry inherits only the unspent budget (0 when already over:
    // size_gp then times out immediately and the ladder falls through to
    // the cheap baseline rung).
    relaxed.gp.deadline_ms = ladder_deadline.remaining_ms();
    SizerResult second;
    try {
      second = size_gp(nl, relaxed);
    } catch (const std::exception&) {
      second.ok = false;
    }
    if (second.ok) {
      second.rung = SizingRung::kGpRelaxed;
      second.message = util::strfmt(
          "%s (relaxed: slope/cap constraints dropped after %s)",
          second.message.c_str(), gp_failure.to_string().c_str());
      util::log_warn(util::strfmt("sizer: %s degraded to relaxed GP (%s)",
                                  nl.name().c_str(),
                                  gp_failure.to_string().c_str()));
      record_sizing(size_span, second);
      return second;
    }
  }

  // Rung 3: proportional baseline sizing. Always yields a functional (if
  // over-designed) sizing, so sweeps over many candidates keep moving; the
  // status preserves why the optimizer could not do better.
  if (opt.allow_baseline_fallback) {
    try {
      const BaselineSizer baseline(*tech_);
      SizerResult third = measure(nl, baseline.size(nl));
      if (std::isfinite(third.measured_delay_ps) &&
          std::isfinite(third.total_width_um)) {
        third.rung = SizingRung::kBaseline;
        third.status = gp_failure;
        third.gp_newton_iterations = first.gp_newton_iterations;
        third.message = util::strfmt("degraded to baseline fallback (%s)",
                                     gp_failure.to_string().c_str());
        util::log_warn(util::strfmt("sizer: %s degraded to baseline (%s)",
                                    nl.name().c_str(),
                                    gp_failure.to_string().c_str()));
        record_sizing(size_span, third);
        return third;
      }
    } catch (const std::exception&) {
      // fall through to the failed first-rung result
    }
  }

  first.status = gp_failure;
  record_sizing(size_span, first);
  return first;
}

}  // namespace smart::core
