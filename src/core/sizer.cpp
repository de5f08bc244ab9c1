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

/// The ladder guard: runs one rung and turns an exception escaping it into
/// a failed result whose status names the exception's kind.
template <class Rung>
SizerResult guarded(const Rung& rung) {
  SizerResult r;
  try {
    return rung();
  } catch (const util::TimeoutError& e) {
    r.status = Status::Fail(FailureReason::kTimeout, e.what());
  } catch (const util::Error& e) {
    r.status = Status::Fail(FailureReason::kNumericalError, e.what());
  } catch (const std::exception& e) {
    r.status = Status::Fail(FailureReason::kInternal, e.what());
  }
  r.message = r.status.to_string();
  return r;
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
  // One problem per sizing: its paths are extracted once, the rest is
  // rebuilt from them only when the slope budget moves (infeasibility
  // relaxation), and otherwise rescaled to the new model-facing specs.
  GeneratedProblem gen;
  double built_slope_budget = -1.0;  // of gen; -1 while none is complete
  double prev_width = -1.0;
  int total_newton = 0;

  // Every iteration that built or solved a problem leaves one record in
  // respec_trace, and the accepted record is the loop's outcome. Beside
  // its index the loop keeps only what the record lacks (the sizing, the
  // GP solve, its binding tags) and fills the result once, after the loop.
  std::vector<RespecIteration> respec_trace;
  int accepted = -1;
  netlist::Sizing accepted_sizing;
  gp::GpResult accepted_sol;
  std::vector<std::string> accepted_binding;
  // The last failure: why a loop that ends without a sizing has none.
  Status last_fail = Status::Fail(FailureReason::kInfeasible,
                                  "no feasible GP solve");
  std::string fail_message = "no feasible GP solve";
  auto fail = [&](Status why, std::string message = {}) {
    fail_message = message.empty() ? why.to_string() : std::move(message);
    last_fail = std::move(why);
  };

  auto scaled_required = [&](double spec) {  // respec scales ports too
    std::vector<double> required = opt.output_required_ps;
    for (auto& r : required)
      if (r > 0.0) r *= spec / target_delay;
    return required;
  };
  // Constraint options at the given model-facing specs; everything else
  // comes from the caller's options.
  auto constraint_options = [&](double spec, double pre, double slope) {
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
    copt.output_required_ps = scaled_required(spec);
    return copt;
  };
  // Infeasible at the current model-facing specs (rejected pre-solve or by
  // the solver): relax them and the slope budget, then retry.
  auto relax = [&] {
    model_spec *= 1.25;
    model_pre_spec *= 1.25;
    slope_budget = std::min(slope_budget * 1.15, opt.slope_budget_ps * 2.0);
  };
  // The record of this iteration's problem, before any solve: the specs
  // and slope budget it was built at and its constraint count.
  auto record = [&](int iter) {
    RespecIteration rec;
    rec.iter = iter;
    rec.model_spec_ps = model_spec;
    rec.model_pre_spec_ps = model_pre_spec;
    rec.slope_budget_ps = slope_budget;
    rec.constraint_count =
        gen.timing_constraints + gen.stage_constraints + gen.slope_constraints;
    return rec;
  };
  // Relative overshoot of the targets. The delay spec is an upper bound,
  // and precharge only penalizes overshoot: settling early is free.
  auto overshoot = [&](const RespecIteration& it) {
    const double pre = it.measured_precharge_ps > 0.0
                           ? (it.measured_precharge_ps - target_pre) / target_pre
                           : 0.0;
    return std::max(
        {0.0, (it.measured_delay_ps - target_delay) / target_delay, pre});
  };

  for (int iter = 0; iter < opt.max_respec_iters; ++iter) {
    if (deadline.expired()) {
      fail(Status::Fail(FailureReason::kTimeout,
                        "sizing deadline exceeded between respec "
                        "iterations"));
      break;
    }
    obs::Span iter_span("sizer.respec_iter");
    iter_span.arg("iter", iter);
    tel.counter_add("sizer.respec.iters");

    {
      obs::Span gen_span("sizer.constraints");
      if (built_slope_budget != slope_budget) {
        ConstraintOptions copt =
            constraint_options(model_spec, model_pre_spec, slope_budget);
        copt.deadline = deadline.enabled ? &deadline : nullptr;
        built_slope_budget = -1.0;
        try {
          build_problem(gen, nl, copt, *lib_, *tech_);
        } catch (const util::TimeoutError& e) {
          // Extraction/congen ran out of budget: report kTimeout and let
          // the ladder produce a valid (if unoptimized) point.
          fail(Status::Fail(FailureReason::kTimeout, e.what()));
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
          const Status why = gp::verify_status(wf);
          fail(why, util::strfmt("GP rejected pre-solve: %s",
                                 why.to_string().c_str()));
          RespecIteration rec = record(iter);
          rec.rejected_pre_solve = true;
          rec.gp_status =
              why.reason == FailureReason::kInfeasible
                  ? gp::SolveStatus::kInfeasible
                  : why.reason == FailureReason::kNumericalError
                        ? gp::SolveStatus::kNumericalError
                        : gp::SolveStatus::kInvalidInput;
          respec_trace.push_back(rec);
          if (why.reason == FailureReason::kInfeasible) {
            // Box-infeasible at this spec: relax exactly as a solver
            // phase-I failure would, and retry.
            relax();
            continue;
          }
          break;
        }
      } else {
        assemble_problem(gen, model_spec, model_pre_spec,
                         scaled_required(model_spec), nl);
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
    gp::GpResult sol = warm_start.empty()
                           ? solver.solve(*gen.problem)
                           : solver.solve_from(*gen.problem, warm_start);
    total_newton += sol.newton_iterations;
    RespecIteration rec = record(iter);
    rec.gp_status = sol.status;
    rec.binding_count = sol.diag.binding_set.size();
    if (sol.status == gp::SolveStatus::kInfeasible) {
      respec_trace.push_back(rec);
      // The model may overestimate delay (it is conservative); relax the
      // model-facing spec and retry. If the target is truly unreachable the
      // loop ends with a best-effort result whose message says so.
      fail(sol.diagnostics,
           util::strfmt("infeasible at model spec %.1f ps: %s", model_spec,
                        sol.message.c_str()));
      relax();
      continue;
    }
    if (sol.status == gp::SolveStatus::kNumericalError ||
        sol.status == gp::SolveStatus::kTimeout ||
        sol.status == gp::SolveStatus::kInvalidInput) {
      respec_trace.push_back(rec);
      // Poisoned problem data or an exhausted deadline: retrying the respec
      // loop cannot fix either, so hand the structured reason up the ladder.
      fail(sol.diagnostics,
           util::strfmt("GP solve failed: %s", sol.message.c_str()));
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
      fail(Status::Fail(FailureReason::kNumericalError,
                        "non-finite reference-timer measurement"));
      respec_trace.push_back(rec);
      break;
    }

    // Model-vs-measured mismatch of this iteration: the GP sized to hit
    // model_spec, the reference timer measured worst_delay — their ratio is
    // the model error the respec loop corrects for ("better model accuracy
    // leads to faster convergence" — §5.1).
    rec.measured_delay_ps = report.worst_delay;
    rec.measured_precharge_ps = report.worst_precharge;
    rec.total_width_um = stats.total_width;
    rec.clock_width_um = stats.clock_gate_width;
    rec.mismatch = std::fabs(report.worst_delay / model_spec - 1.0);
    rec.meets = report.worst_delay <= target_delay * (1 + kConvergeTol) &&
                report.worst_precharge <= target_pre * (1 + kConvergeTol);
    // Preference order: meeting spec with least width, then closest miss.
    const RespecIteration* best =
        accepted < 0 ? nullptr : &respec_trace[static_cast<size_t>(accepted)];
    if (best == nullptr ||
        (rec.meets &&
         (!best->meets || rec.total_width_um < best->total_width_um)) ||
        (!rec.meets && !best->meets && overshoot(rec) < overshoot(*best))) {
      accepted = static_cast<int>(respec_trace.size());
      accepted_sizing = std::move(sizing);
      accepted_binding.clear();
      for (const size_t j : sol.diag.binding_set)
        accepted_binding.push_back(gen.problem->constraints()[j].tag);
      accepted_sol = std::move(sol);
    }
    respec_trace.push_back(rec);

    if (tel.enabled()) {
      tel.hist_record("sizer.respec.mismatch", rec.mismatch);
      iter_span.arg("model_spec_ps", model_spec);
      iter_span.arg("measured_ps", report.worst_delay);
      iter_span.arg("mismatch", rec.mismatch);
    }

    util::log_debug(util::strfmt(
        "sizer iter %d: model spec %.1f -> measured %.1f (target %.1f), "
        "width %.1f", iter, model_spec, report.worst_delay, target_delay,
        stats.total_width));

    // The delay spec is an upper bound: a design that is *faster* than the
    // target at minimum feasible width (e.g. pinned by slope constraints)
    // is converged, not an error.
    const double slack_delay =
        std::max(0.0, (target_delay - report.worst_delay) / target_delay);
    if (rec.meets && slack_delay <= kConvergeTol) break;
    // Width stagnation with spec met: the solution is pinned by other
    // constraints (slopes, caps); relaxing the spec further cannot help.
    if (rec.meets && prev_width > 0.0 &&
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

  SizerResult r;
  r.gp_newton_iterations = total_newton;
  r.path_count = gen.paths.size();
  r.respec_trace = std::move(respec_trace);
  for (const auto& it : r.respec_trace)
    if (it.meets && r.converged_iteration < 0)
      r.converged_iteration = it.iter + 1;
  if (accepted < 0) {
    r.status = std::move(last_fail);
    r.message = std::move(fail_message);
    return r;
  }

  RespecIteration& rec = r.respec_trace[static_cast<size_t>(accepted)];
  rec.accepted = true;
  r.ok = true;
  r.meets = rec.meets;
  r.message = rec.meets ? "converged" : "best effort";
  r.sizing = std::move(accepted_sizing);
  r.measured_delay_ps = rec.measured_delay_ps;
  r.measured_precharge_ps = rec.measured_precharge_ps;
  r.total_width_um = rec.total_width_um;
  r.clock_width_um = rec.clock_width_um;
  r.modeled_cost = accepted_sol.objective;
  r.respec_iterations = rec.iter + 1;
  r.constraint_count = rec.constraint_count;
  r.binding_constraints = std::move(accepted_binding);
  r.solution_x = accepted_sol.x;

  // Optional snapshot: the loop's own problem at the accepted record's
  // specs, rebuilt from the kept paths if the slope budget moved since.
  if (opt.keep_solve_snapshot) {
    try {
      const ConstraintOptions copt = constraint_options(
          rec.model_spec_ps, rec.model_pre_spec_ps, rec.slope_budget_ps);
      if (built_slope_budget == rec.slope_budget_ps)
        assemble_problem(gen, copt.delay_spec_ps, copt.precharge_spec_ps,
                         copt.output_required_ps, nl);
      else
        build_problem(gen, nl, copt, *lib_, *tech_);
      r.snapshot = std::make_shared<SolveSnapshot>(SolveSnapshot{
          std::move(gen), std::move(accepted_sol), target_delay, target_pre});
    } catch (const std::exception& e) {
      // A snapshot is an introspection extra; failing to build one must
      // not fail a sizing that already verified.
      util::log_warn(util::strfmt("sizer: snapshot build failed: %s",
                                  e.what()));
    }
  }
  return r;
}

SizerResult Sizer::size(const netlist::Netlist& nl,
                        const SizerOptions& opt) const {
  obs::Span size_span("sizer.size");
  prof::ResourceScope size_rusage("sizer.size");
  SizerResult r = walk_ladder(nl, opt);
  record_sizing(size_span, r);
  return r;
}

SizerResult Sizer::walk_ladder(const netlist::Netlist& nl,
                               const SizerOptions& opt) const {
  // Malformed requests get a typed error before any rung is tried.
  auto invalid = [](std::string why) {
    SizerResult r;
    r.status = Status::Fail(FailureReason::kInvalidInput, std::move(why));
    r.message = r.status.to_string();
    return r;
  };
  if (!(opt.delay_spec_ps > 0.0)) return invalid("delay spec must be positive");
  // A per-port vector is either empty or has one entry per port.
  auto wrong_length = [](const std::vector<double>& v, size_t ports) {
    return !v.empty() && v.size() != ports;
  };
  if (wrong_length(opt.input_cap_limits_ff, nl.inputs().size()))
    return invalid(util::strfmt(
        "input_cap_limits_ff has %zu entries but the macro has %zu inputs",
        opt.input_cap_limits_ff.size(), nl.inputs().size()));
  if (wrong_length(opt.output_required_ps, nl.outputs().size()))
    return invalid(util::strfmt(
        "output_required_ps has %zu entries but the macro has %zu outputs",
        opt.output_required_ps.size(), nl.outputs().size()));

  // The deadline budget spans the whole degradation ladder: a rung-2 retry
  // only gets what rung 1 left over, so a served request's budget bounds
  // the entire call, not each rung separately.
  const util::Deadline ladder_deadline =
      util::Deadline::from_ms(opt.gp.deadline_ms);

  // Rung 1: the full GP sizing loop.
  SizerResult first = guarded([&] { return size_gp(nl, opt); });
  if (first.ok) return first;
  // A failed size_gp or guarded rung always says why in its status.
  const Status& gp_failure = first.status;

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
    SizerResult second = guarded([&] { return size_gp(nl, relaxed); });
    if (second.ok) {
      second.rung = SizingRung::kGpRelaxed;
      second.message = util::strfmt(
          "%s (relaxed: slope/cap constraints dropped after %s)",
          second.message.c_str(), gp_failure.to_string().c_str());
      util::log_warn(util::strfmt("sizer: %s degraded to relaxed GP (%s)",
                                  nl.name().c_str(),
                                  gp_failure.to_string().c_str()));
      return second;
    }
  }

  // Rung 3: proportional baseline sizing. Always yields a functional (if
  // over-designed) sizing, so sweeps over many candidates keep moving; the
  // status preserves why the optimizer could not do better.
  if (opt.allow_baseline_fallback) {
    SizerResult third = guarded(
        [&] { return measure(nl, BaselineSizer(*tech_).size(nl)); });
    if (third.ok && std::isfinite(third.measured_delay_ps) &&
        std::isfinite(third.total_width_um)) {
      third.rung = SizingRung::kBaseline;
      third.status = gp_failure;
      third.gp_newton_iterations = first.gp_newton_iterations;
      third.message = util::strfmt("degraded to baseline fallback (%s)",
                                   gp_failure.to_string().c_str());
      util::log_warn(util::strfmt("sizer: %s degraded to baseline (%s)",
                                  nl.name().c_str(),
                                  gp_failure.to_string().c_str()));
      return third;
    }
  }

  // Nothing else answered: the failed first-rung result.
  return first;
}

}  // namespace smart::core
