#include "serve/handlers.h"

#include <cmath>
#include <exception>

#include "core/advisor.h"
#include "core/sizer.h"
#include "lint/erc.h"
#include "obs/obs.h"
#include "scope/scope.h"
#include "serve/request.h"
#include "util/deadline.h"
#include "util/json.h"
#include "util/strfmt.h"

namespace smart::serve {

namespace {

using util::FailureReason;
using util::Status;

/// Relative L-infinity radius within which a cached neighbor warm-starts a
/// size request.
constexpr double kNearDistance = 0.25;

core::CostMetric cost_metric(const Request& r) {
  if (r.cost == "power") return core::CostMetric::kPower;
  if (r.cost == "clock") return core::CostMetric::kClockLoad;
  return core::CostMetric::kTotalWidth;
}

/// A failed op: no payload, and accounting only for the macro key.
HandlerOutcome fail(Status st, std::string macro = "") {
  return {std::move(st), "", std::move(macro), "", "", ""};
}

HandlerOutcome fail(FailureReason reason, std::string detail) {
  return fail(Status::Fail(reason, std::move(detail)));
}

/// A successful op that ran no solver (advise, lint).
HandlerOutcome answered(std::string payload) {
  return {Status::Ok(), std::move(payload), "", "", "", ""};
}

/// Resolves the named topology and generates the netlist; generation
/// errors (unknown topology, inapplicable n) are the client's fault.
Status generate(const ServeContext& ctx, const Request& r,
                netlist::Netlist* out) {
  const auto* entry = ctx.db->find(r.type, r.topology);
  if (entry == nullptr)
    return Status::Fail(FailureReason::kInvalidInput,
                        util::strfmt("unknown topology %s/%s",
                                     r.type.c_str(), r.topology.c_str()));
  try {
    *out = entry->generate(to_spec(r));
  } catch (const std::exception& e) {
    return Status::Fail(
        FailureReason::kInvalidInput,
        util::strfmt("macro generation failed: %s", e.what()));
  }
  return Status::Ok();
}

/// Fills the spec-derived SizerOptions fields shared by size and report.
/// When the request has no explicit delay spec it is derived from the hand
/// baseline, same protocol as the CLI.
void sizing_options(const ServeContext& ctx, const Request& r,
                    const netlist::Netlist& nl, double budget_ms,
                    core::SizerOptions* opt) {
  opt->delay_spec_ps = r.delay_ps;
  if (opt->delay_spec_ps <= 0.0)
    core::spec_from_baseline(nl, *ctx.tech, {}, opt);
  if (r.precharge_ps >= 0.0) opt->precharge_spec_ps = r.precharge_ps;
  if (r.slope_ps > 0.0) opt->slope_budget_ps = r.slope_ps;
  opt->cost = cost_metric(r);
  opt->gp.deadline_ms = budget_ms;
}

std::string render_widths(const std::vector<double>& widths) {
  std::string out = "[";
  for (size_t i = 0; i < widths.size(); ++i) {
    if (i > 0) out += ",";
    out += util::strfmt("%.6g", widths[i]);
  }
  out += "]";
  return out;
}

/// SMART-Scope-flavored solve diagnostics for the slow-request spool:
/// which rung answered, how hard the GP worked, what was binding, and the
/// model-vs-STA respec trajectory. Built from fields SizerResult always
/// records — no keep_solve_snapshot needed on the serving path.
std::string solve_diag_json(const core::SizerResult& result) {
  std::string out = util::strfmt(
      "{\"rung\":\"%s\",\"status\":\"%s\",\"ok\":%s,"
      "\"newton_iterations\":%d,\"respec_iterations\":%d,"
      "\"measured_delay_ps\":%.3f,\"total_width_um\":%.3f,"
      "\"binding\":[",
      core::to_string(result.rung),
      util::json_escape(result.status.to_string()).c_str(),
      result.ok ? "true" : "false", result.gp_newton_iterations,
      result.respec_iterations, result.measured_delay_ps,
      result.total_width_um);
  for (size_t i = 0; i < result.binding_constraints.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += util::json_escape(result.binding_constraints[i]);
    out += '"';
  }
  out += "],\"respec_trace\":[";
  for (size_t i = 0; i < result.respec_trace.size(); ++i) {
    const auto& it = result.respec_trace[i];
    if (i > 0) out += ",";
    out += util::strfmt(
        "{\"iter\":%d,\"model_spec_ps\":%.3f,\"measured_delay_ps\":%.3f,"
        "\"mismatch\":%.4f,\"binding_count\":%zu,\"meets\":%s,"
        "\"accepted\":%s}",
        it.iter, it.model_spec_ps, it.measured_delay_ps, it.mismatch,
        it.binding_count, it.meets ? "true" : "false",
        it.accepted ? "true" : "false");
  }
  out += "]}";
  return out;
}

std::string render_size_response(const std::string& macro,
                                 const CachedResult& r,
                                 const char* cache_state, bool warm) {
  return util::strfmt(
      "{\"macro\":\"%s\",\"ok\":true,\"rung\":\"%s\",\"cache\":\"%s\","
      "\"warm_start\":%s,\"measured_delay_ps\":%.3f,"
      "\"measured_precharge_ps\":%.3f,\"total_width_um\":%.3f,"
      "\"newton_iterations\":%d,\"respec_iterations\":%d,"
      "\"widths\":%s}",
      util::json_escape(macro).c_str(), r.rung.c_str(), cache_state,
      warm ? "true" : "false", r.measured_delay_ps, r.measured_precharge_ps,
      r.total_width_um, r.newton_iterations, r.respec_iterations,
      render_widths(r.widths).c_str());
}

HandlerOutcome handle_size(const ServeContext& ctx, const Request& req,
                           double budget_ms) {
  auto& tel = obs::Telemetry::instance();
  const std::string bucket = macro_bucket(req);
  netlist::Netlist nl("");
  if (Status st = generate(ctx, req, &nl); !st.ok())
    return fail(st, bucket);

  const uint64_t fingerprint = request_fingerprint(req);
  const std::vector<double> params = constraint_params(req);
  const bool cache_on = ctx.cache != nullptr && req.use_cache;

  if (cache_on) {
    CachedResult hit;
    if (ctx.cache->lookup_exact(bucket, fingerprint, &hit)) {
      tel.counter_add("serve.cache.hit");
      return {Status::Ok(), render_size_response(bucket, hit, "hit", false),
              bucket, "hit", hit.rung, ""};
    }
  }

  core::SizerOptions opt;
  sizing_options(ctx, req, nl, budget_ms, &opt);

  bool warm = false;
  if (cache_on) {
    CachedResult neighbor;
    if (ctx.cache->lookup_near(bucket, params, kNearDistance, &neighbor)) {
      opt.warm_start = std::move(neighbor.solution_x);
      warm = true;
      tel.counter_add("serve.cache.warm");
    } else {
      tel.counter_add("serve.cache.miss");
    }
  }
  const std::string cache_state = cache_on ? (warm ? "warm" : "miss") : "";

  const core::Sizer sizer(*ctx.tech, *ctx.lib);
  const core::SizerResult result = sizer.size(nl, opt);
  if (!result.ok) {
    const Status st = result.status.ok()
                          ? Status::Fail(FailureReason::kInternal,
                                         result.message)
                          : result.status;
    return {st, "", bucket, cache_state, core::to_string(result.rung),
            solve_diag_json(result)};
  }

  CachedResult value;
  value.solution_x = result.solution_x;
  value.widths = result.sizing;
  value.measured_delay_ps = result.measured_delay_ps;
  value.measured_precharge_ps = result.measured_precharge_ps;
  value.total_width_um = result.total_width_um;
  value.newton_iterations = result.gp_newton_iterations;
  value.respec_iterations = result.respec_iterations;
  value.rung = core::to_string(result.rung);
  const std::string payload =
      render_size_response(bucket, value, warm ? "warm" : "miss", warm);
  if (cache_on) ctx.cache->insert(bucket, fingerprint, params, value);
  return {Status::Ok(), payload, bucket, warm ? "warm" : "miss", value.rung,
          solve_diag_json(result)};
}

HandlerOutcome handle_advise(const ServeContext& ctx, const Request& req,
                             double budget_ms) {
  core::AdvisorRequest request;
  request.spec = to_spec(req);
  request.delay_spec_ps = req.delay_ps;
  request.cost = cost_metric(req);
  request.sizer.gp.deadline_ms = budget_ms;
  const core::DesignAdvisor advisor(*ctx.db, *ctx.tech, *ctx.lib);
  const core::Advice advice = advisor.advise(request);
  if (advice.solutions.empty())
    return fail(FailureReason::kInfeasible,
                advice.message.empty() ? "no feasible topology"
                                       : advice.message);
  std::string out = util::strfmt("{\"spec_ps\":%.3f,\"solutions\":[",
                                 advice.derived_delay_spec_ps);
  for (size_t i = 0; i < advice.solutions.size(); ++i) {
    const auto& sol = advice.solutions[i];
    if (i > 0) out += ",";
    out += util::strfmt(
        "{\"topology\":\"%s\",\"cost\":%.4f,\"delay_ps\":%.3f,"
        "\"width_um\":%.3f,\"meets_spec\":%s}",
        util::json_escape(sol.topology).c_str(), sol.cost_value,
        sol.sizing.measured_delay_ps, sol.sizing.total_width_um,
        sol.meets_spec ? "true" : "false");
  }
  out += "],\"failures\":[";
  for (size_t i = 0; i < advice.failures.size(); ++i) {
    const auto& f = advice.failures[i];
    if (i > 0) out += ",";
    out += util::strfmt("{\"topology\":\"%s\",\"status\":\"%s\"}",
                        util::json_escape(f.topology).c_str(),
                        util::json_escape(f.status.to_string()).c_str());
  }
  out += "]}";
  return answered(out);
}

HandlerOutcome handle_lint(const ServeContext& ctx, const Request& req) {
  netlist::Netlist nl("");
  if (Status st = generate(ctx, req, &nl); !st.ok()) return fail(st);
  const lint::Options opt;
  lint::Report report(opt);
  report.merge(lint::run_erc(nl, opt));
  core::ConstraintOptions copt;
  // Structural check, not a feasibility check — a loose spec on purpose.
  copt.delay_spec_ps = req.delay_ps > 0.0 ? req.delay_ps : 1000.0;
  try {
    const auto gen = core::generate_problem(nl, copt, *ctx.lib, *ctx.tech);
    report.merge(core::verify_generated(gen, opt, nl.name()));
  } catch (const std::exception& e) {
    return fail(FailureReason::kInternal,
                util::strfmt("constraint generation failed: %s", e.what()));
  }
  return answered(report.to_json());
}

HandlerOutcome handle_report(const ServeContext& ctx, const Request& req,
                             double budget_ms) {
  netlist::Netlist nl("");
  if (Status st = generate(ctx, req, &nl); !st.ok()) return fail(st);
  core::SizerOptions opt;
  sizing_options(ctx, req, nl, budget_ms, &opt);
  scope::make_report_grade(&opt);
  const core::Sizer sizer(*ctx.tech, *ctx.lib);
  const core::SizerResult result = sizer.size(nl, opt);
  if (!result.ok)
    return fail(result.status.ok()
                    ? Status::Fail(FailureReason::kInternal, result.message)
                    : result.status);
  scope::ScopeOptions sopt;
  sopt.top_k = static_cast<size_t>(req.top_k);
  const auto report = scope::build_report(nl, result, *ctx.tech, sopt);
  return {Status::Ok(), scope::render_json(report), macro_bucket(req), "",
          core::to_string(result.rung), solve_diag_json(result)};
}

}  // namespace

HandlerOutcome handle_request(const ServeContext& ctx, FrameType type,
                              const std::string& payload, double budget_ms) {
  try {
    Request req;
    if (Status st = parse_request(payload, &req); !st.ok()) return fail(st);
    if ((type == FrameType::kSize || type == FrameType::kLint ||
         type == FrameType::kReport) &&
        req.topology.empty())
      return fail(FailureReason::kInvalidInput,
                  util::strfmt("%s request needs a 'topology'",
                               to_string(type)));
    HandlerOutcome out;
    switch (type) {
      case FrameType::kSize:
        out = handle_size(ctx, req, budget_ms);
        break;
      case FrameType::kAdvise:
        out = handle_advise(ctx, req, budget_ms);
        break;
      case FrameType::kLint:
        out = handle_lint(ctx, req);
        break;
      case FrameType::kReport:
        out = handle_report(ctx, req, budget_ms);
        break;
      default:
        return fail(FailureReason::kInvalidInput,
                    util::strfmt("frame type %s is not a solving request",
                                 to_string(type)));
    }
    // Every op gets a macro key in its access-log record, even the ones
    // (advise, lint) that do not go through the size bucket.
    if (out.macro.empty())
      out.macro = req.topology.empty() ? req.type : macro_bucket(req);
    return out;
  } catch (const util::TimeoutError& e) {
    return fail(FailureReason::kTimeout, e.what());
  } catch (const std::exception& e) {
    // The crash-isolation backstop: whatever a handler let escape becomes
    // a typed error frame, never a dead worker.
    return fail(FailureReason::kInternal, e.what());
  } catch (...) {
    return fail(FailureReason::kInternal, "unknown exception in handler");
  }
}

}  // namespace smart::serve
