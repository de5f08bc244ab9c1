#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "core/baseline.h"
#include "core/constraints.h"
#include "gp/solver.h"
#include "gp/verify.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "refsim/rc_timer.h"
#include "timing/paths.h"

namespace perfbench {

namespace sc = smart::core;

std::unique_ptr<Env> make_env(Tracer& tracer) {
  auto env = std::make_unique<Env>();
  env->tech = &smart::tech::default_tech();
  {
    Span span(tracer, "models.calibrate");
    env->lib = smart::models::calibrate(*env->tech);
  }
  {
    Span span(tracer, "macros.register");
    smart::macros::register_all(env->db);
  }
  return env;
}

smart::netlist::Netlist generate(const Env& env, const std::string& type,
                                 const std::string& topology,
                                 const sc::MacroSpec& spec, Tracer& tracer) {
  const auto* entry = env.db.find(type, topology);
  if (entry == nullptr)
    throw std::runtime_error("unknown topology " + type + "/" + topology);
  Span span(tracer, "macros.generate");
  return entry->generate(spec);
}

sc::SizerOptions iso_options(const Env& env, const smart::netlist::Netlist& nl,
                             sc::CostMetric cost, Tracer& tracer) {
  smart::netlist::Sizing base_sizing;
  {
    Span span(tracer, "baseline.size");
    base_sizing = sc::BaselineSizer(*env.tech).size(nl);
  }
  const sc::Sizer sizer(*env.tech, env.lib);
  const auto base = sizer.measure(nl, base_sizing);
  const auto report =
      smart::refsim::RcTimer(*env.tech).analyze(nl, base_sizing);
  // The same derivation as core/experiment.cpp.
  sc::SizerOptions opt;
  opt.cost = cost;
  opt.delay_spec_ps = base.measured_delay_ps;
  opt.precharge_spec_ps =
      base.measured_precharge_ps > 0.0
          ? std::max(base.measured_precharge_ps, base.measured_delay_ps)
          : -1.0;
  opt.input_cap_limits_ff = sizer.input_caps(nl, base_sizing);
  opt.slope_budget_ps =
      std::max(opt.slope_budget_ps, report.max_internal_slope * 1.02);
  return opt;
}

bool check_sizing(const Env& env, const smart::netlist::Netlist& nl,
                  const smart::netlist::Sizing& sizing, sc::SizingRung rung,
                  double delay_target, double pre_target, std::string* why) {
  if (rung != sc::SizingRung::kGp) {
    *why = std::string("rung ") + sc::to_string(rung);
    return false;
  }
  if (sizing.size() != nl.label_count()) {
    *why = "sizing has the wrong number of labels";
    return false;
  }
  for (const double w : sizing)
    if (!std::isfinite(w) || w < 0.0) {
      *why = "non-finite or negative width";
      return false;
    }
  const auto m = sc::Sizer(*env.tech, env.lib).measure(nl, sizing);
  if (!(m.total_width_um > 0.0)) {
    *why = "zero total width";
    return false;
  }
  if (pre_target <= 0.0) pre_target = delay_target;
  if (!(m.measured_delay_ps <= delay_target * (1.0 + kConvergeTol))) {
    *why = "measured delay over target";
    return false;
  }
  if (!(m.measured_precharge_ps <= pre_target * (1.0 + kConvergeTol))) {
    *why = "measured precharge over target";
    return false;
  }
  return true;
}

namespace {

/// Order-independent byte key of a constraint's terms: equal keys mean the
/// constraints are exact duplicates.
std::string constraint_key(const smart::posy::Posynomial& lhs) {
  std::vector<std::string> terms;
  terms.reserve(lhs.num_terms());
  for (const auto& m : lhs.terms()) {
    std::string t;
    const double c = m.coeff();
    t.append(reinterpret_cast<const char*>(&c), sizeof c);
    for (const auto& f : m.factors()) {
      t.append(reinterpret_cast<const char*>(&f.var), sizeof f.var);
      t.append(reinterpret_cast<const char*>(&f.exp), sizeof f.exp);
    }
    terms.push_back(std::move(t));
  }
  std::sort(terms.begin(), terms.end());
  std::string key;
  for (const auto& t : terms) {
    const uint32_t len = static_cast<uint32_t>(t.size());
    key.append(reinterpret_cast<const char*>(&len), sizeof len);
    key += t;
  }
  return key;
}

}  // namespace

ReplayCounts replay_iteration(const Env& env, const smart::netlist::Netlist& nl,
                              const sc::SizerOptions& opt, Tracer& tracer,
                              int64_t request) {
  Span root(tracer, "replay", request);
  ReplayCounts out;
  // The first iteration's constraint options, as Sizer::size builds them.
  sc::ConstraintOptions copt;
  copt.delay_spec_ps = opt.delay_spec_ps;
  copt.precharge_spec_ps =
      opt.precharge_spec_ps > 0.0 ? opt.precharge_spec_ps : opt.delay_spec_ps;
  copt.slope_budget_ps = opt.slope_budget_ps;
  copt.enforce_slopes = opt.enforce_slopes;
  copt.otb = opt.otb;
  copt.cost = opt.cost;
  copt.activity = opt.activity;
  copt.prune = opt.prune;
  copt.input_cap_limit_ff = opt.input_cap_limit_ff;
  copt.input_cap_limits_ff = opt.input_cap_limits_ff;
  copt.output_required_ps = opt.output_required_ps;

  {
    Span span(tracer, "timing.extract");
    smart::timing::PathStats stats;
    const auto paths = smart::timing::PathExtractor(nl).extract(opt.prune,
                                                                &stats);
    out.paths = paths.size();
    out.raw_edge_paths = stats.raw_edge_paths;
  }
  sc::GeneratedProblem gen;
  {
    Span span(tracer, "constraints.generate");
    gen = sc::generate_problem(nl, copt, env.lib, *env.tech);
  }
  const auto& cons = gen.problem->constraints();
  out.constraints = cons.size();
  std::unordered_set<std::string> distinct;
  for (const auto& c : cons) {
    out.terms += c.lhs.num_terms();
    distinct.insert(constraint_key(c.lhs));
  }
  out.distinct = distinct.size();
  {
    Span span(tracer, "gp.verify");
    smart::gp::verify_problem(*gen.problem, {}, nl.name());
  }
  smart::gp::GpResult sol;
  {
    Span span(tracer, "gp.solve");
    sol = smart::gp::GpSolver(opt.gp).solve(*gen.problem);
  }
  out.newton = sol.newton_iterations;
  out.attempts = sol.attempts;
  out.optimal = sol.status == smart::gp::SolveStatus::kOptimal;
  smart::netlist::Sizing sizing;
  {
    Span span(tracer, "core.sizing_from_solution");
    sizing = sc::sizing_from_solution(nl, gen, sol.x);
  }
  {
    Span span(tracer, "refsim.analyze");
    smart::refsim::RcTimer(*env.tech).analyze(nl, sizing);
  }
  return out;
}

void LayerTally::add(const ReplayCounts& r) {
  ++replays_;
  paths_ += r.paths;
  raw_edge_paths_ += r.raw_edge_paths;
  constraints_ += r.constraints;
  distinct_ += r.distinct;
  terms_ += r.terms;
  newton_ += r.newton;
  attempts_ += r.attempts;
  if (r.optimal) ++optimal_;
}

void LayerTally::add_sizer(const sc::SizerResult& r) {
  ++sizings_;
  if (r.ok && r.rung == sc::SizingRung::kGp) ++gp_rung_;
  sizer_respec_ += r.respec_iterations;
  sizer_newton_ += r.gp_newton_iterations;
}

void LayerTally::emit(const Tracer& tracer, WorkloadResult& out) const {
  auto put = [&](const char* name, double value, const char* unit) {
    out.layer[name] = {value, unit};
  };
  auto time = [&](const char* metric, const char* span) {
    const auto d = tracer.durations_ms(span);
    put(metric, median(d), "ms");
    out.samples[metric] = d.size();
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  put("constraints.count", static_cast<double>(constraints_), "count");
  put("constraints.distinct", static_cast<double>(distinct_), "count");
  put("constraints.distinct_frac",
      ratio(static_cast<double>(distinct_), static_cast<double>(constraints_)),
      "ratio");
  put("constraints.terms", static_cast<double>(terms_), "count");
  time("constraints.generate_ms", "constraints.generate");
  put("gp.newton_iters", static_cast<double>(newton_), "count");
  put("gp.attempts", static_cast<double>(attempts_), "count");
  put("gp.optimal_frac",
      ratio(static_cast<double>(optimal_), static_cast<double>(replays_)),
      "ratio");
  time("gp.solve_ms", "gp.solve");
  double solve_total = 0.0;
  for (const double d : tracer.durations_ms("gp.solve")) solve_total += d;
  put("gp.ms_per_newton", ratio(solve_total, static_cast<double>(newton_)),
      "ms");
  time("gp.verify_ms", "gp.verify");
  time("timing.extract_ms", "timing.extract");
  put("timing.paths", static_cast<double>(paths_), "count");
  put("timing.raw_edge_paths", raw_edge_paths_, "count");
  time("refsim.analyze_ms", "refsim.analyze");
  time("baseline.size_ms", "baseline.size");
  time("sizer.size_ms", "sizer.size");
  put("sizer.respec_iters", static_cast<double>(sizer_respec_), "count");
  put("sizer.newton_iters", static_cast<double>(sizer_newton_), "count");
  put("sizer.rung_gp_frac",
      ratio(static_cast<double>(gp_rung_), static_cast<double>(sizings_)),
      "ratio");
  time("models.calibrate_ms", "models.calibrate");
  time("macros.generate_ms", "macros.generate");
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
