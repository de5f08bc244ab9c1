#include "scope/scope.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "refsim/rc_timer.h"
#include "util/json.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace smart::scope {

namespace {

using core::RespecIteration;
using core::SolveSnapshot;
using util::json_escape;
using util::json_number;

/// Sensitivity drivers listed per size label.
constexpr size_t kMaxDrivers = 3;

const char* arc_kind_name(netlist::ArcKind kind) {
  switch (kind) {
    case netlist::ArcKind::kStaticData: return "static_data";
    case netlist::ArcKind::kPassData: return "pass_data";
    case netlist::ArcKind::kPassControl: return "pass_control";
    case netlist::ArcKind::kTristateData: return "tristate_data";
    case netlist::ArcKind::kTristateEnable: return "tristate_enable";
    case netlist::ArcKind::kDominoEval: return "domino_eval";
    case netlist::ArcKind::kDominoClkEval: return "domino_clk_eval";
    case netlist::ArcKind::kDominoPrecharge: return "domino_precharge";
  }
  return "unknown";
}

/// Replays one representative path through the reference timer at the
/// accepted sizing, producing the per-stage delay/slope/borrow breakdown.
/// Mirrors the model's path composition (slope chains through the arcs)
/// but with the richer non-posynomial STA delays, so the replayed arrival
/// is the reference view of exactly the arcs the GP constrained.
std::vector<StageReport> replay_path(const netlist::Netlist& nl,
                                     const netlist::Sizing& sizing,
                                     const timing::Path& path,
                                     const tech::Tech& tech,
                                     double target_ps) {
  const refsim::RcTimer timer(tech);
  std::vector<StageReport> stages;
  stages.reserve(path.steps.size());
  double arrival = path.start_arrival;
  double slope =
      path.start_slope >= 0.0 ? path.start_slope : tech.default_input_slope;
  const int stages_total = path.domino_stages();
  int stages_seen = 0;
  for (const auto& step : path.steps) {
    StageReport sr;
    sr.from = nl.net(step.arc.from).name;
    sr.to = nl.net(step.arc.to).name;
    sr.comp = nl.comp(step.arc.comp).name;
    sr.kind = arc_kind_name(step.arc.kind);
    sr.out_rise = step.out_rise;
    const bool enters_domino =
        step.arc.kind == netlist::ArcKind::kDominoEval ||
        step.arc.kind == netlist::ArcKind::kDominoClkEval;
    if (enters_domino) {
      ++stages_seen;
      sr.domino_stage = stages_seen;
      // OTB view (paper §5.3): how far past its even phase share the data
      // arrives at this stage's entry — the time the stage borrows.
      if (stages_seen >= 2 && stages_total > 0 && target_ps > 0.0 &&
          path.phase == netlist::Phase::kEvaluate) {
        const double share = target_ps *
                             static_cast<double>(stages_seen - 1) /
                             static_cast<double>(stages_total);
        sr.borrow_ps = std::max(0.0, arrival - share);
      }
    }
    const auto ed = timer.arc_delay(nl, sizing, step.arc, step.out_rise,
                                    slope, path.phase);
    arrival += ed.delay_ps;
    slope = ed.out_slope_ps;
    sr.delay_ps = ed.delay_ps;
    sr.slope_ps = ed.out_slope_ps;
    sr.arrival_ps = arrival;
    stages.push_back(std::move(sr));
  }
  return stages;
}

std::string edge_name(const netlist::Netlist& nl, netlist::NetId net,
                      bool rise) {
  return util::strfmt("%s (%s)", nl.net(net).name.c_str(), rise ? "R" : "F");
}

/// Dual-weighted log-domain sensitivities: for binding constraint j with
/// lhs g_j (its posynomial at the row's scale) and dual estimate lambda_j,
/// the score of variable v is lambda_j * dlog g_j / dlog x_v (the
/// softmax-weighted exponent of v in g_j). Positive => growing the device
/// pushes g_j toward violation.
std::vector<LabelSensitivity> sensitivities(const netlist::Netlist& nl,
                                            const SolveSnapshot& snap) {
  const auto& gen = snap.gen;
  const auto& diag = snap.gp.diag;
  const auto& x = snap.gp.x;
  const gp::GpProblem& problem = *gen.problem;
  const auto& constraints = problem.constraints();

  // Per-variable driver lists over the loose binding set (the solver's
  // designer-facing cut); dual weighting already discounts marginal members.
  std::unordered_map<int, std::vector<SensitivityDriver>> by_var;
  for (const size_t j : diag.binding_set) {
    const auto& cd = diag.constraints[j];
    if (cd.lhs <= 0.0) continue;
    const double scale = problem.scale(j);
    std::unordered_map<int, double> exps;
    for (const auto& term : constraints[j].lhs.terms()) {
      const double val = term.eval(x) * scale;
      for (const auto& fac : term.factors())
        exps[fac.var] += val * fac.exp;
    }
    for (const auto& [var, weighted] : exps) {
      const double score = cd.dual * weighted / cd.lhs;
      if (score == 0.0) continue;
      by_var[var].push_back({constraints[j].tag, score});
    }
  }

  std::vector<LabelSensitivity> out;
  for (size_t li = 0; li < nl.label_count(); ++li) {
    const auto& label = nl.label(static_cast<netlist::LabelId>(li));
    if (label.fixed) continue;
    const posy::Monomial& m = gen.labels.at(li);
    if (m.factors().size() != 1) continue;
    const int var = m.factors()[0].var;
    LabelSensitivity ls;
    ls.label = label.name;
    const auto& info = gen.vars->info(var);
    const double w = var < static_cast<int>(x.size())
                         ? x[static_cast<size_t>(var)]
                         : 0.0;
    ls.width_um = w;
    ls.at_lower = w <= info.lower * 1.001;
    ls.at_upper = w >= info.upper * 0.999;
    auto it = by_var.find(var);
    if (it != by_var.end()) {
      auto drivers = it->second;
      std::stable_sort(drivers.begin(), drivers.end(),
                       [](const SensitivityDriver& a,
                          const SensitivityDriver& b) {
                         return std::fabs(a.score) > std::fabs(b.score);
                       });
      if (drivers.size() > kMaxDrivers) drivers.resize(kMaxDrivers);
      ls.drivers = std::move(drivers);
    }
    out.push_back(std::move(ls));
  }
  return out;
}

}  // namespace

ScopeReport build_report(const netlist::Netlist& nl,
                         const core::SizerResult& result,
                         const tech::Tech& tech, const ScopeOptions& opt) {
  ScopeReport report;
  report.macro = nl.name();
  report.measured_delay_ps = result.measured_delay_ps;
  report.measured_precharge_ps = result.measured_precharge_ps;
  report.respec = result.respec_trace;
  if (!result.snapshot) {
    report.message =
        "no solve snapshot (set SizerOptions::keep_solve_snapshot)";
    return report;
  }
  try {
    const SolveSnapshot& snap = *result.snapshot;
    const auto& gen = snap.gen;
    const auto& diag = snap.gp.diag;
    report.message = "ok";
    report.solve_status = gp::to_string(snap.gp.status);
    report.objective = snap.gp.objective;
    report.target_delay_ps = snap.target_delay_ps;
    report.target_precharge_ps = snap.target_precharge_ps;
    // A snapshot is kept only for an accepted solve.
    const core::RespecIteration& accepted = *result.accepted_record();
    report.model_delay_spec_ps = accepted.model_spec_ps;
    report.model_precharge_spec_ps = accepted.model_pre_spec_ps;
    report.total_paths = gen.paths.size();
    report.total_constraints = gen.problem->constraints().size();
    report.final_t = diag.final_t;
    report.duality_gap = diag.duality_gap;
    report.trace = diag.trace;

    // ---- per-path reports: model view + reference-STA replay ----
    std::vector<PathReport> all;
    all.reserve(gen.paths.size());
    for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
      const auto& path = gen.paths[pi];
      PathReport pr;
      pr.path_index = pi;
      const bool eval = path.phase == netlist::Phase::kEvaluate;
      pr.tag = util::strfmt("%s_path%zu", eval ? "eval" : "pre", pi);
      pr.phase = eval ? "evaluate" : "precharge";
      pr.startpoint = edge_name(nl, path.start, path.start_rise);
      pr.endpoint =
          edge_name(nl, path.end(), path.steps.back().out_rise);
      pr.spec_ps = gen.path_specs[pi];
      pr.target_ps =
          eval ? snap.target_delay_ps : snap.target_precharge_ps;
      pr.model_delay_ps = core::path_model_delay(gen, pi, snap.gp.x);
      pr.model_slack_ps = pr.spec_ps - pr.model_delay_ps;
      if (gen.path_constraint[pi] < diag.constraints.size()) {
        const size_t j = gen.path_constraint[pi];
        const auto& cd = diag.constraints[j];
        pr.constraint = gen.problem->constraints()[j].tag;
        pr.gp_slack = cd.slack;
        pr.gp_dual = cd.dual;
        pr.binding = std::fabs(cd.slack) <= kBindingSlackTol;
      }
      pr.stages =
          replay_path(nl, result.sizing, path, tech, pr.target_ps);
      pr.sta_arrival_ps =
          pr.stages.empty() ? path.start_arrival
                            : pr.stages.back().arrival_ps;
      pr.sta_slack_ps = pr.target_ps - pr.sta_arrival_ps;
      all.push_back(std::move(pr));
    }

    // Slack histogram over every representative path (before truncation).
    std::vector<double> slacks;
    slacks.reserve(all.size());
    for (const auto& pr : all) slacks.push_back(pr.sta_slack_ps);
    report.slack_hist = obs::summarize_samples(slacks);

    // Worst STA slack first; deterministic tie-break on the path index.
    std::stable_sort(all.begin(), all.end(),
                     [](const PathReport& a, const PathReport& b) {
                       if (a.sta_slack_ps != b.sta_slack_ps)
                         return a.sta_slack_ps < b.sta_slack_ps;
                       return a.path_index < b.path_index;
                     });
    if (all.size() > opt.top_k) all.resize(opt.top_k);
    report.paths = std::move(all);

    // ---- tight binding set over every constraint family ----
    for (size_t j = 0; j < diag.constraints.size(); ++j) {
      const auto& cd = diag.constraints[j];
      if (!(std::fabs(cd.slack) <= kBindingSlackTol)) continue;
      report.binding.push_back({gen.problem->constraints()[j].tag,
                                core::constraint_members(gen, j),
                                cd.lhs, cd.slack, cd.dual});
    }
    std::stable_sort(report.binding.begin(), report.binding.end(),
                     [](const BindingReport& a, const BindingReport& b) {
                       return a.dual > b.dual;
                     });

    report.sensitivities = sensitivities(nl, snap);
  } catch (const std::exception& e) {
    report.message = util::strfmt("report failed: %s", e.what());
  }
  return report;
}

std::string render_text(const ScopeReport& r) {
  std::ostringstream out;
  out << "SMART-Scope timing report — " << r.macro << "\n";
  if (r.message != "ok") {
    out << "  " << r.message << "\n";
    return out.str();
  }
  out << util::strfmt(
      "  solve %s | objective %.4g | gap %.3g (t %.3g)\n",
      r.solve_status.c_str(), r.objective, r.duality_gap, r.final_t);
  out << util::strfmt(
      "  target %.1f ps (precharge %.1f ps) | model spec %.1f ps "
      "(pre %.1f ps)\n",
      r.target_delay_ps, r.target_precharge_ps, r.model_delay_spec_ps,
      r.model_precharge_spec_ps);
  out << util::strfmt(
      "  measured: delay %.1f ps, precharge %.1f ps\n",
      r.measured_delay_ps, r.measured_precharge_ps);
  out << util::strfmt(
      "  %zu representative paths, %zu constraints, %zu binding "
      "(|slack| <= 1e-6)\n",
      r.total_paths, r.total_constraints, r.binding.size());

  size_t rank = 0;
  for (const auto& p : r.paths) {
    ++rank;
    out << util::strfmt(
        "\nPath #%zu  %s  (%s)%s%s\n", rank, p.tag.c_str(), p.phase.c_str(),
        p.constraint != p.tag
            ? util::strfmt("  [constraint %s]", p.constraint.c_str()).c_str()
            : "",
        p.binding ? util::strfmt("  [binding, dual %.3g]", p.gp_dual)
                      .c_str()
                  : "");
    out << "  Startpoint: " << p.startpoint
        << "   Endpoint: " << p.endpoint << "\n";
    out << util::strfmt(
        "  model %.2f ps vs spec %.2f ps (slack %.2f) | STA %.2f ps vs "
        "target %.2f ps (slack %.2f)\n",
        p.model_delay_ps, p.spec_ps, p.model_slack_ps, p.sta_arrival_ps,
        p.target_ps, p.sta_slack_ps);
    util::Table table(
        {"from", "to", "comp", "kind", "edge", "delay", "slope", "arrival",
         "borrow"});
    for (const auto& s : p.stages) {
      table.add_row(
          {s.from, s.to, s.comp, s.kind, s.out_rise ? "R" : "F",
           util::strfmt("%.2f", s.delay_ps),
           util::strfmt("%.2f", s.slope_ps),
           util::strfmt("%.2f", s.arrival_ps),
           s.domino_stage > 0
               ? util::strfmt("%.2f@s%d", s.borrow_ps, s.domino_stage)
               : std::string("-")});
    }
    out << table.render();
  }

  if (r.slack_hist.count > 0) {
    out << util::strfmt(
        "\nSlack histogram (ps): %zu paths, min %.2f, p50 %.2f, max %.2f\n",
        r.slack_hist.count, r.slack_hist.min, r.slack_hist.p50,
        r.slack_hist.max);
    out << "  counts:";
    for (size_t c : r.slack_hist.bucket_counts)
      out << util::strfmt(" %zu", c);
    out << "\n";
  }

  if (!r.binding.empty()) {
    out << "\nBinding constraints (|slack| <= 1e-6):\n";
    util::Table table({"tag", "members", "lhs", "slack", "dual"});
    for (const auto& b : r.binding)
      table.add_row({b.tag, util::strfmt("%zu", b.members.size()),
                     util::strfmt("%.9f", b.lhs),
                     util::strfmt("%.3g", b.slack),
                     util::strfmt("%.3g", b.dual)});
    out << table.render();
    for (const auto& b : r.binding) {
      if (b.members.size() < 2) continue;
      out << "  " << b.tag << " stands for ";
      for (size_t m = 0; m < b.members.size(); ++m)
        out << (m ? ", " : "") << b.members[m];
      out << "\n";
    }
  }

  if (!r.sensitivities.empty()) {
    out << "\nWidth sensitivity (\"what limits this width\"):\n";
    for (const auto& ls : r.sensitivities) {
      out << util::strfmt("  %-12s %7.2f um%s%s", ls.label.c_str(),
                          ls.width_um, ls.at_lower ? " [at w_min]" : "",
                          ls.at_upper ? " [at w_max]" : "");
      if (!ls.drivers.empty()) {
        out << "  <-";
        for (const auto& d : ls.drivers)
          out << util::strfmt(" %s (%+.3g)", d.tag.c_str(), d.score);
      }
      out << "\n";
    }
  }

  if (!r.trace.empty()) {
    size_t p1 = 0;
    for (const auto& t : r.trace) p1 += t.phase1 ? 1u : 0u;
    const auto& last = r.trace.back();
    out << util::strfmt(
        "\nSolver: %zu barrier stages (%zu phase-I), final t %.3g, "
        "gap %.3g\n",
        r.trace.size(), p1, last.t, last.gap);
  }
  if (!r.respec.empty()) {
    out << "Respec trace (model spec -> measured):\n";
    for (const auto& it : r.respec) {
      out << util::strfmt(
          "  iter %d: spec %.1f -> measured %.1f ps (mismatch %.1f%%), "
          "width %.1f um, %zu binding, gp %s%s%s%s\n",
          it.iter, it.model_spec_ps, it.measured_delay_ps,
          it.mismatch * 100.0, it.total_width_um, it.binding_count,
          gp::to_string(it.gp_status),
          it.rejected_pre_solve ? " (rejected pre-solve)" : "",
          it.meets ? ", meets" : "",
          it.accepted ? " [accepted]" : "");
    }
  }
  return out.str();
}

std::string render_json(const ScopeReport& r) {
  std::string out = "{\n";
  out += "  \"macro\": \"" + json_escape(r.macro) + "\",\n";
  out += "  \"message\": \"" + json_escape(r.message) + "\",\n";
  out += "  \"status\": \"" + json_escape(r.solve_status) + "\",\n";
  out += "  \"objective\": " + json_number(r.objective) + ",\n";
  out += "  \"specs\": {\"target_delay_ps\": " +
         json_number(r.target_delay_ps) +
         ", \"target_precharge_ps\": " + json_number(r.target_precharge_ps) +
         ", \"model_delay_spec_ps\": " + json_number(r.model_delay_spec_ps) +
         ", \"model_precharge_spec_ps\": " +
         json_number(r.model_precharge_spec_ps) + "},\n";
  out += "  \"measured\": {\"delay_ps\": " + json_number(r.measured_delay_ps) +
         ", \"precharge_ps\": " + json_number(r.measured_precharge_ps) + "},\n";
  out += "  \"summary\": {\"total_paths\": " +
         json_number(static_cast<double>(r.total_paths)) +
         ", \"total_constraints\": " +
         json_number(static_cast<double>(r.total_constraints)) +
         ", \"binding_count\": " +
         json_number(static_cast<double>(r.binding.size())) +
         ", \"final_t\": " + json_number(r.final_t) +
         ", \"duality_gap\": " + json_number(r.duality_gap) + "},\n";

  out += "  \"paths\": [";
  for (size_t i = 0; i < r.paths.size(); ++i) {
    const auto& p = r.paths[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"rank\": " + json_number(static_cast<double>(i + 1)) +
           ", \"index\": " + json_number(static_cast<double>(p.path_index)) +
           ", \"tag\": \"" + json_escape(p.tag) + "\", \"constraint\": \"" +
           json_escape(p.constraint) + "\", \"phase\": \"" +
           json_escape(p.phase) + "\", \"startpoint\": \"" +
           json_escape(p.startpoint) +
           "\", \"endpoint\": \"" + json_escape(p.endpoint) +
           "\", \"spec_ps\": " + json_number(p.spec_ps) +
           ", \"target_ps\": " + json_number(p.target_ps) +
           ", \"model_delay_ps\": " + json_number(p.model_delay_ps) +
           ", \"model_slack_ps\": " + json_number(p.model_slack_ps) +
           ", \"gp_slack\": " + json_number(p.gp_slack) +
           ", \"gp_dual\": " + json_number(p.gp_dual) +
           ", \"binding\": " + (p.binding ? "true" : "false") +
           ", \"sta_arrival_ps\": " + json_number(p.sta_arrival_ps) +
           ", \"sta_slack_ps\": " + json_number(p.sta_slack_ps) +
           ", \"stages\": [";
    for (size_t si = 0; si < p.stages.size(); ++si) {
      const auto& s = p.stages[si];
      out += si ? ", " : "";
      out += "{\"from\": \"" + json_escape(s.from) + "\", \"to\": \"" +
             json_escape(s.to) + "\", \"comp\": \"" + json_escape(s.comp) +
             "\", \"kind\": \"" + json_escape(s.kind) + "\", \"edge\": \"" +
             (s.out_rise ? "R" : "F") +
             "\", \"delay_ps\": " + json_number(s.delay_ps) +
             ", \"slope_ps\": " + json_number(s.slope_ps) +
             ", \"arrival_ps\": " + json_number(s.arrival_ps) +
             ", \"borrow_ps\": " + json_number(s.borrow_ps) +
             ", \"stage\": " +
             json_number(static_cast<double>(s.domino_stage)) +
             "}";
    }
    out += "]}";
  }
  out += r.paths.empty() ? "],\n" : "\n  ],\n";

  out += "  \"slack_histogram\": {\"count\": " +
         json_number(static_cast<double>(r.slack_hist.count)) +
         ", \"min\": " + json_number(r.slack_hist.min) +
         ", \"max\": " + json_number(r.slack_hist.max) +
         ", \"p50\": " + json_number(r.slack_hist.p50) +
         ", \"buckets\": {\"bounds\": [";
  for (size_t b = 0; b < r.slack_hist.bucket_bounds.size(); ++b)
    out += (b ? ", " : "") + json_number(r.slack_hist.bucket_bounds[b]);
  out += "], \"counts\": [";
  for (size_t b = 0; b < r.slack_hist.bucket_counts.size(); ++b)
    out += (b ? ", " : "") +
           json_number(static_cast<double>(r.slack_hist.bucket_counts[b]));
  out += "]}},\n";

  out += "  \"binding\": [";
  for (size_t i = 0; i < r.binding.size(); ++i) {
    const auto& b = r.binding[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"tag\": \"" + json_escape(b.tag) + "\", \"members\": [";
    for (size_t m = 0; m < b.members.size(); ++m)
      out += (m ? ", \"" : "\"") + json_escape(b.members[m]) + "\"";
    out += "], \"lhs\": " + json_number(b.lhs) +
           ", \"slack\": " + json_number(b.slack) +
           ", \"dual\": " + json_number(b.dual) + "}";
  }
  out += r.binding.empty() ? "],\n" : "\n  ],\n";

  out += "  \"sensitivity\": [";
  for (size_t i = 0; i < r.sensitivities.size(); ++i) {
    const auto& ls = r.sensitivities[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"label\": \"" + json_escape(ls.label) +
           "\", \"width_um\": " + json_number(ls.width_um) +
           ", \"at_lower\": " + (ls.at_lower ? "true" : "false") +
           ", \"at_upper\": " + (ls.at_upper ? "true" : "false") +
           ", \"drivers\": [";
    for (size_t di = 0; di < ls.drivers.size(); ++di) {
      out += di ? ", " : "";
      out += "{\"tag\": \"" + json_escape(ls.drivers[di].tag) +
             "\", \"score\": " + json_number(ls.drivers[di].score) + "}";
    }
    out += "]}";
  }
  out += r.sensitivities.empty() ? "],\n" : "\n  ],\n";

  out += "  \"solver_trace\": [";
  for (size_t i = 0; i < r.trace.size(); ++i) {
    const auto& t = r.trace[i];
    out += i ? ", " : "";
    out += "{\"stage\": " + json_number(static_cast<double>(t.stage)) +
           ", \"phase1\": " + (t.phase1 ? "true" : "false") +
           ", \"t\": " + json_number(t.t) +
           ", \"newton_iters\": " + json_number(t.newton_iters) +
           ", \"converged\": " + (t.converged ? "true" : "false") +
           ", \"gap\": " + json_number(t.gap) + "}";
  }
  out += "],\n";

  out += "  \"respec\": [";
  for (size_t i = 0; i < r.respec.size(); ++i) {
    const auto& it = r.respec[i];
    out += i ? ", " : "";
    out += "{\"iter\": " + json_number(it.iter) +
           ", \"model_spec_ps\": " + json_number(it.model_spec_ps) +
           ", \"model_pre_spec_ps\": " + json_number(it.model_pre_spec_ps) +
           ", \"measured_delay_ps\": " + json_number(it.measured_delay_ps) +
           ", \"measured_precharge_ps\": " +
           json_number(it.measured_precharge_ps) +
           ", \"mismatch\": " + json_number(it.mismatch) +
           ", \"total_width_um\": " + json_number(it.total_width_um) +
           ", \"binding_count\": " +
           json_number(static_cast<double>(it.binding_count)) +
           ", \"gp_status\": \"" + json_escape(gp::to_string(it.gp_status)) +
           "\", \"rejected_pre_solve\": " +
           (it.rejected_pre_solve ? "true" : "false") +
           ", \"meets\": " + (it.meets ? "true" : "false") +
           ", \"accepted\": " + (it.accepted ? "true" : "false") + "}";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace scope
