// smart_cli — command-line front end to the SMART design advisor.
//
//   smart_cli list
//   smart_cli advise --type mux --n 8 --bits 8 --load 15 --delay 120
//                    [--cost width|power|clock] [--topology NAME]
//   smart_cli spice  --type mux --topology strong_pass --n 4 [--bits 8]
//                    [--delay 100]
//   smart_cli save   --type mux --topology strong_pass --n 4   (.snl text)
//   smart_cli paths  --type adder --topology domino_cla --n 64
//   smart_cli noise  --type mux --topology domino_unsplit --n 8 [--bits 8]
//   smart_cli lint   <type/topology[/n] | --all> [--format text|json]
//                    [--suppress ID,ID] [--out FILE] [--delay PS]
//   smart_cli report <type/topology[/n]> [--delay PS] [--top-k K]
//                    [--format text|json] [--out FILE]
//   smart_cli client <ping|size|advise|lint|report|shutdown>
//                    (--port N | --unix PATH) [--type T --topology X ...]
//                    [--deadline-ms MS] [--retries N] [--no-cache] [-v]
//   smart_cli stats  (--port N | --unix PATH) [--format text|json]
//                    [--watch] [--interval-ms MS]
//   smart_cli health (--port N | --unix PATH)
//   smart_cli trace-merge FILE... [--out FILE]
//
// `advise` runs the full Fig-1 flow (generate every applicable topology,
// GP-size each against the spec, verify with the reference timer, rank by
// cost); `spice` emits the sized subcircuit; `paths` prints the §5.2
// pruning statistics; `noise` runs the domino reliability checks; `report`
// sizes one macro with a report-grade solve and prints the SMART-Scope
// introspection view (top-K critical paths, binding set with duals, slack
// histogram, width sensitivities).
//
// SMART-Pulse commands: `stats` renders a live snapshot of a running
// smartd (counters, per-stage latency percentiles, cache, utilization,
// recent requests; --watch refreshes it top-style); `health` is a cheap
// liveness probe (exit 0 only when the daemon answers "ok");
// `trace-merge` joins client- and daemon-side Chrome traces into one file
// so a request's cross-process timeline lines up under its trace id.
//
// Global flags (any command, `--flag value` or `--flag=value` style):
//   --trace-out FILE    write a Chrome trace_event JSON of the run's spans
//                       (load in chrome://tracing or https://ui.perfetto.dev)
//   --metrics-out FILE  write the flat metrics JSON (counters/gauges/
//                       histograms: gp.solve.*, timing.prune.*, sizer.*)
//   --log-level LVL     debug|info|warn|error|off (default warn)
//   --threads N         worker threads for the advisor's candidate sweep;
//                       each sizing runs on one thread (positive integer;
//                       default SMART_THREADS env or hardware concurrency;
//                       results are identical at any thread count)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "core/constraints.h"
#include "core/corners.h"
#include "core/report.h"
#include "gp/verify.h"
#include "lint/erc.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "netlist/serialize.h"
#include "netlist/spice_export.h"
#include "obs/obs.h"
#include "par/par.h"
#include "prof/prof.h"
#include "prof/resource.h"
#include "refsim/critical_path.h"
#include "refsim/noise.h"
#include "scope/scope.h"
#include "serve/client.h"
#include "serve/request.h"
#include "timing/paths.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/strfmt.h"
#include "util/table.h"

using namespace smart;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::string str(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
};

// Accepts `--key value` and `--key=value` in any position; the first bare
// token is the command, later bare tokens are positional operands. A flag
// followed by another flag (or nothing) is a boolean flag (e.g. `--all`).
Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "-v") {  // short spelling of --verbose (client timing)
      args.flags["verbose"] = "";
      continue;
    }
    if (token.rfind("--", 0) == 0) {
      std::string key = token.substr(2);
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        args.flags[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "";
      }
    } else if (args.command.empty()) {
      args.command = token;
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

// Flags every command accepts (telemetry / logging plumbing in main()).
const std::set<std::string>& global_flags() {
  static const std::set<std::string> flags = {"trace-out", "metrics-out",
                                              "log-level", "threads"};
  return flags;
}

// Per-command flag vocabulary. An unknown subcommand or a flag outside the
// command's vocabulary is a usage error (exit 2), not a silent no-op: a
// typo like `--topolgy` must not quietly run with the default topology.
const std::map<std::string, std::set<std::string>>& command_flags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"list", {}},
      {"advise",
       {"type", "topology", "n", "bits", "m", "load", "slope", "delay",
        "cost"}},
      {"spice",
       {"type", "topology", "n", "bits", "m", "load", "slope", "delay"}},
      {"save", {"type", "topology", "n", "bits", "m", "load", "slope"}},
      {"paths", {"type", "topology", "n", "bits", "m", "load", "slope"}},
      {"noise", {"type", "topology", "n", "bits", "m", "load", "slope"}},
      {"corners",
       {"type", "topology", "n", "bits", "m", "load", "slope", "delay"}},
      {"lint",
       {"type", "topology", "n", "bits", "m", "load", "slope", "delay",
        "all", "format", "suppress", "out"}},
      {"report",
       {"type", "topology", "n", "bits", "m", "load", "slope", "delay",
        "top-k", "format", "out"}},
      {"profile",
       {"type", "topology", "n", "bits", "m", "load", "slope", "delay",
        "hz", "repeat", "top-k", "folded-out", "speedscope-out",
        "no-span-prefix", "alloc"}},
      {"client",
       {"port", "host", "unix", "type", "topology", "n", "bits", "m",
        "load", "slope", "delay", "precharge", "cost", "top-k",
        "deadline-ms", "retries", "no-cache", "verbose"}},
      {"stats",
       {"port", "host", "unix", "format", "watch", "interval-ms",
        "deadline-ms", "retries"}},
      {"health", {"port", "host", "unix", "deadline-ms", "retries"}},
      {"trace-merge", {"out"}},
  };
  return flags;
}

core::MacroSpec spec_from(const Args& args) {
  core::MacroSpec spec;
  spec.type = args.str("type");
  spec.n = static_cast<int>(args.num("n", 4));
  if (args.has("bits")) spec.params["bits"] = args.num("bits", 8);
  if (args.has("m")) spec.params["m"] = args.num("m", 0);
  spec.load_ff = args.num("load", 15.0);
  if (args.has("slope")) spec.input_slope_ps = args.num("slope", -1.0);
  return spec;
}

core::CostMetric cost_from(const Args& args) {
  const std::string cost = args.str("cost", "width");
  if (cost == "power") return core::CostMetric::kPower;
  if (cost == "clock") return core::CostMetric::kClockLoad;
  return core::CostMetric::kTotalWidth;
}

// Folds a positional `type/topology[/n]` target into --type/--topology/--n
// flags (shared by `lint` and `report`). `extra_hint` extends the "needs a
// target" message with command-specific alternatives. Returns 0 on success,
// 2 on a usage error (already reported to stderr).
int target_into_flags(const Args& args, const char* cmd,
                      const char* extra_hint, Args& one) {
  if (!args.positional.empty()) {
    const std::string& target = args.positional.front();
    const auto s1 = target.find('/');
    if (s1 == std::string::npos) {
      std::fprintf(stderr, "%s target must be type/topology[/n], got '%s'\n",
                   cmd, target.c_str());
      return 2;
    }
    one.flags["type"] = target.substr(0, s1);
    const auto s2 = target.find('/', s1 + 1);
    one.flags["topology"] = target.substr(s1 + 1, s2 == std::string::npos
                                                      ? std::string::npos
                                                      : s2 - s1 - 1);
    if (s2 != std::string::npos) one.flags["n"] = target.substr(s2 + 1);
  } else if (!args.has("type") || !args.has("topology")) {
    std::fprintf(stderr,
                 "%s needs a target: type/topology[/n], "
                 "--type T --topology X%s\n",
                 cmd, extra_hint);
    return 2;
  }
  return 0;
}

netlist::Netlist generate_named(const Args& args) {
  const auto spec = spec_from(args);
  const std::string topo = args.str("topology");
  const auto* entry = macros::builtin_database().find(spec.type, topo);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown topology %s/%s (try: smart_cli list)\n",
                 spec.type.c_str(), topo.c_str());
    std::exit(2);
  }
  return entry->generate(spec);
}

int cmd_list() {
  const auto& db = macros::builtin_database();
  util::Table table({"type", "topology", "description"});
  for (const auto& type : db.macro_types()) {
    for (const auto* entry : db.topologies(type))
      table.add_row({type, entry->name, entry->description});
  }
  std::printf("%s", table.render("SMART design database").c_str());
  return 0;
}

int cmd_advise(const Args& args) {
  core::AdvisorRequest request;
  request.spec = spec_from(args);
  request.delay_spec_ps = args.num("delay", -1.0);
  request.cost = cost_from(args);
  core::DesignAdvisor advisor(macros::builtin_database(),
                              tech::default_tech(),
                              models::default_library());
  const auto advice = advisor.advise(request);
  if (advice.solutions.empty()) {
    std::fprintf(stderr, "no solution: %s\n", advice.message.c_str());
    return 1;
  }
  std::printf("spec: %.1f ps%s\n\n", advice.derived_delay_spec_ps,
              request.delay_spec_ps <= 0 ? " (derived from hand baseline)"
                                         : "");
  util::Table table({"rank", "topology", "cost", "delay (ps)", "width (um)",
                     "time (ms)", "status"});
  int rank = 1;
  for (const auto& sol : advice.solutions) {
    table.add_row({util::strfmt("%d", rank++), sol.topology,
                   util::strfmt("%.2f", sol.cost_value),
                   util::strfmt("%.1f", sol.sizing.measured_delay_ps),
                   util::strfmt("%.1f", sol.sizing.total_width_um),
                   util::strfmt("%.0f", sol.wall_ms),
                   sol.meets_spec ? "meets spec" : "misses spec"});
  }
  std::printf("%s\n", table.render("ranked solutions").c_str());
  if (!advice.failures.empty()) {
    util::Table failed({"topology", "rung", "time (ms)", "reason"});
    for (const auto& f : advice.failures) {
      failed.add_row({f.topology, core::to_string(f.rung),
                      util::strfmt("%.0f", f.wall_ms),
                      f.status.to_string()});
    }
    std::printf("%s\n", failed.render("skipped candidates").c_str());
  }
  const auto* best = advice.best();
  std::printf("%s", core::describe_solution(best->netlist, best->sizing,
                                            tech::default_tech()).c_str());
  const auto cp = refsim::critical_path(best->netlist, best->sizing.sizing,
                                        tech::default_tech());
  std::printf("\n%s", refsim::describe_critical_path(best->netlist, cp).c_str());
  return 0;
}

int cmd_spice(const Args& args) {
  auto nl = generate_named(args);
  netlist::Sizing sizing;
  if (args.num("delay", -1.0) > 0) {
    core::Sizer sizer(tech::default_tech(), models::default_library());
    core::SizerOptions opt;
    opt.delay_spec_ps = args.num("delay", 100.0);
    const auto r = sizer.size(nl, opt);
    if (!r.ok) {
      std::fprintf(stderr, "sizing failed: %s\n", r.message.c_str());
      return 1;
    }
    sizing = r.sizing;
  } else {
    core::BaselineSizer baseline(tech::default_tech());
    sizing = baseline.size(nl);
  }
  std::printf("%s", netlist::to_spice(nl, sizing).c_str());
  return 0;
}

int cmd_save(const Args& args) {
  const auto nl = generate_named(args);
  std::printf("%s", netlist::to_text(nl).c_str());
  return 0;
}

int cmd_paths(const Args& args) {
  const auto nl = generate_named(args);
  timing::PathExtractor extractor(nl);
  timing::PathStats stats;
  const auto paths = extractor.extract({}, &stats);
  util::Table table({"stage", "paths"});
  table.add_row({"raw topological", util::strfmt("%.0f", stats.raw_topological)});
  table.add_row({"edge-annotated", util::strfmt("%.0f", stats.raw_edge_paths)});
  table.add_row({"after regularity", util::strfmt("%zu", stats.after_regularity)});
  table.add_row({"after precedence", util::strfmt("%zu", stats.after_precedence)});
  table.add_row({"after dominance", util::strfmt("%zu", paths.size())});
  std::printf("%s", table.render(nl.name() + " path statistics").c_str());
  return 0;
}

int cmd_corners(const Args& args) {
  const auto nl = generate_named(args);
  core::BaselineSizer baseline(tech::default_tech());
  auto sizing = baseline.size(nl);
  std::string basis = "hand baseline";
  if (args.num("delay", -1.0) > 0) {
    // Sign-off style: size at the slow corner, verify everywhere.
    const auto slow = tech::default_tech().at_corner(tech::Corner::kSlow);
    const auto slow_lib = models::calibrate(slow);
    core::Sizer sizer(slow, slow_lib);
    core::SizerOptions opt;
    opt.delay_spec_ps = args.num("delay", 100.0);
    const auto r = sizer.size(nl, opt);
    if (!r.ok) {
      std::fprintf(stderr, "slow-corner sizing failed: %s\n",
                   r.message.c_str());
      return 1;
    }
    sizing = r.sizing;
    basis = util::strfmt("SMART @ slow corner, spec %.0f ps",
                         args.num("delay", 100.0));
  }
  const auto sweep =
      core::measure_corners(nl, sizing, tech::default_tech());
  util::Table table({"corner", "delay (ps)", "precharge (ps)",
                     "max slope (ps)"});
  for (const auto* m : {&sweep.fast, &sweep.typical, &sweep.slow}) {
    const char* name = m->corner == tech::Corner::kFast    ? "fast"
                       : m->corner == tech::Corner::kSlow ? "slow"
                                                           : "typical";
    table.add_row({name, util::strfmt("%.1f", m->delay_ps),
                   util::strfmt("%.1f", m->precharge_ps),
                   util::strfmt("%.1f", m->max_slope_ps)});
  }
  std::printf("%s", table.render(nl.name() + " corner sweep (" + basis +
                                 ")").c_str());
  return 0;
}

int cmd_noise(const Args& args) {
  const auto nl = generate_named(args);
  core::BaselineSizer baseline(tech::default_tech());
  const auto sizing = baseline.size(nl);
  const auto reports =
      refsim::analyze_domino_noise(nl, sizing, tech::default_tech());
  if (reports.empty()) {
    std::printf("%s has no domino gates; nothing to check\n",
                nl.name().c_str());
    return 0;
  }
  util::Table table({"gate", "charge share", "keeper strength", "verdict"});
  for (const auto& r : reports) {
    table.add_row({r.name, util::strfmt("%.2f", r.charge_share),
                   util::strfmt("%.3f", r.keeper_strength),
                   r.ok() ? "ok" : "CHECK"});
  }
  std::printf("%s", table.render(nl.name() + " domino noise report").c_str());
  return refsim::noise_clean(reports) ? 0 : 1;
}

// Lints one generated macro: ERC over the schematic, then GP
// well-formedness of the sizing problem it would hand the solver.
void lint_macro(const netlist::Netlist& nl, const lint::Options& opt,
                double delay_ps, lint::Report& report) {
  report.merge(lint::run_erc(nl, opt));
  core::ConstraintOptions copt;
  copt.delay_spec_ps = delay_ps;
  try {
    const auto gen = core::generate_problem(nl, copt, models::default_library(),
                                            tech::default_tech());
    report.merge(gp::verify_problem(*gen.problem, opt, nl.name()));
  } catch (const std::exception& e) {
    report.add("GPV100", lint::Severity::kError, nl.name(), "generate",
               util::strfmt("constraint generation failed: %s", e.what()));
  }
}

int cmd_lint(const Args& args) {
  lint::Options opt;
  // --suppress ERC006,GPV103 : drop findings of these rules entirely.
  std::string suppress = args.str("suppress");
  while (!suppress.empty()) {
    const auto comma = suppress.find(',');
    const std::string id = suppress.substr(0, comma);
    if (!id.empty()) opt.suppress.insert(id);
    if (comma == std::string::npos) break;
    suppress.erase(0, comma + 1);
  }
  const std::string format = args.str("format", "text");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "unknown lint format '%s' (want text or json)\n",
                 format.c_str());
    return 2;
  }
  // A deliberately loose default spec: lint checks structural
  // well-formedness, not whether an aggressive spec is achievable.
  const double delay = args.num("delay", 1000.0);

  lint::Report report(opt);
  if (args.has("all")) {
    const auto& db = macros::builtin_database();
    std::set<std::string> seen;
    for (const auto& type : db.macro_types()) {
      // Smallest applicable width per topology from a fixed candidate set
      // (covers the n == 2, n >= 3, power-of-two and n % 4 families).
      for (int n : {2, 3, 4, 8, 16, 32, 64}) {
        core::MacroSpec spec;
        spec.type = type;
        spec.n = n;
        for (const auto* entry : db.topologies(type, &spec)) {
          if (!seen.insert(type + "/" + entry->name).second) continue;
          const std::string qualified =
              util::strfmt("%s/%s/n%d", type.c_str(), entry->name.c_str(), n);
          try {
            lint_macro(entry->generate(spec), opt, delay, report);
          } catch (const std::exception& e) {
            report.add("GPV100", lint::Severity::kError, qualified,
                       "generate",
                       util::strfmt("macro generation failed: %s", e.what()));
          }
        }
      }
    }
  } else {
    // Single-macro mode: `lint type/topology[/n]` or the --type/--topology
    // flag spelling.
    Args one = args;
    if (const int rc = target_into_flags(args, "lint", ", or --all", one);
        rc != 0)
      return rc;
    lint_macro(generate_named(one), opt, delay, report);
  }

  const std::string rendered =
      format == "json" ? report.to_json() : report.to_text();
  const std::string out = args.str("out");
  if (!out.empty()) {
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write report to %s\n", out.c_str());
      return 2;
    }
    std::fputs(rendered.c_str(), f);
    std::fclose(f);
    std::printf("%zu findings (%zu errors, %zu warnings) -> %s\n",
                report.findings().size(), report.errors(), report.warnings(),
                out.c_str());
  } else {
    std::printf("%s", rendered.c_str());
  }
  return report.errors() > 0 ? 1 : 0;
}

// Sizes one macro with a snapshot-keeping, report-grade solve and renders
// the SMART-Scope introspection report.
int cmd_report(const Args& args) {
  Args one = args;
  if (const int rc = target_into_flags(args, "report", "", one); rc != 0)
    return rc;
  const std::string format = args.str("format", "text");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "unknown report format '%s' (want text or json)\n",
                 format.c_str());
    return 2;
  }
  const auto nl = generate_named(one);

  core::SizerOptions opt;
  opt.delay_spec_ps = args.num("delay", -1.0);
  opt.keep_solve_snapshot = true;
  // Report-grade solve: drive the barrier until active constraints sit at
  // |1 - lhs| <= 1e-6, so the reported binding set is the KKT active set
  // to working precision (ScopeOptions::binding_slack_tol).
  opt.gp.tolerance = 1e-6;
  if (opt.delay_spec_ps <= 0.0) {
    // Same rule as advise: derive the spec from the hand-sized baseline.
    core::BaselineSizer baseline(tech::default_tech());
    const refsim::RcTimer timer(tech::default_tech());
    const auto rep = timer.analyze(nl, baseline.size(nl));
    opt.delay_spec_ps = rep.worst_delay;
    if (rep.worst_precharge > 0.0)
      opt.precharge_spec_ps = rep.worst_precharge;
  }
  core::Sizer sizer(tech::default_tech(), models::default_library());
  const auto result = sizer.size(nl, opt);
  if (!result.ok) {
    std::fprintf(stderr, "sizing failed: %s\n", result.message.c_str());
    return 1;
  }

  scope::ScopeOptions sopt;
  sopt.top_k = static_cast<size_t>(args.num("top-k", 5));
  const auto report =
      scope::build_report(nl, result, tech::default_tech(), sopt);
  const std::string rendered = format == "json" ? scope::render_json(report)
                                                : scope::render_text(report);
  const std::string out = args.str("out");
  if (!out.empty()) {
    FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write report to %s\n", out.c_str());
      return 2;
    }
    std::fputs(rendered.c_str(), f);
    std::fclose(f);
    std::printf("report for %s (%zu paths, %zu binding) -> %s\n",
                report.macro.c_str(), report.paths.size(),
                report.binding.size(), out.c_str());
  } else {
    std::printf("%s", rendered.c_str());
  }
  return report.message == "ok" ? 0 : 1;
}

// Runs one sizing target under the SMART-Prof sampling profiler and
// reports where the CPU time went: top frames (self/total), sample counts
// per obs span path, and rusage deltas. --folded-out / --speedscope-out
// write flamegraph-ready exports; --repeat accumulates samples over
// several solves so short targets still profile meaningfully.
int cmd_profile(const Args& args) {
  Args one = args;
  if (const int rc = target_into_flags(args, "profile", "", one); rc != 0)
    return rc;
  const auto nl = generate_named(one);

  core::SizerOptions opt;
  opt.delay_spec_ps = args.num("delay", -1.0);
  if (opt.delay_spec_ps <= 0.0) {
    // Same rule as advise/report: derive the spec from the hand baseline.
    core::BaselineSizer baseline(tech::default_tech());
    const refsim::RcTimer timer(tech::default_tech());
    const auto rep = timer.analyze(nl, baseline.size(nl));
    opt.delay_spec_ps = rep.worst_delay;
    if (rep.worst_precharge > 0.0)
      opt.precharge_spec_ps = rep.worst_precharge;
  }
  const int repeat = std::max(1, static_cast<int>(args.num("repeat", 1)));
  const double hz = args.num("hz", 997.0);
  if (args.has("alloc")) prof::set_alloc_hook_enabled(true);

  auto& profiler = prof::Profiler::instance();
  profiler.reset();
  if (const auto st = profiler.start({.hz = hz}); !st.ok()) {
    std::fprintf(stderr, "profiler start failed: %s\n", st.detail.c_str());
    return 1;
  }
  const prof::ResourceUsage before = prof::snapshot_usage();
  obs::StopWatch watch;
  core::Sizer sizer(tech::default_tech(), models::default_library());
  core::SizerResult result;
  for (int i = 0; i < repeat; ++i) result = sizer.size(nl, opt);
  const double wall_ms = watch.elapsed_ms();
  profiler.stop();
  const prof::ResourceUsage after = prof::snapshot_usage();

  if (!result.ok)
    std::fprintf(stderr, "warning: sizing failed: %s (profile still "
                 "captured)\n", result.message.c_str());

  std::printf("profiled %s/%s: %d solve%s, %.1f ms wall, %zu samples "
              "@ %.0f Hz (%llu dropped, %zu threads)\n",
              one.flags["type"].c_str(), one.flags["topology"].c_str(),
              repeat, repeat == 1 ? "" : "s", wall_ms,
              profiler.sample_count(),
              profiler.hz(),
              static_cast<unsigned long long>(profiler.dropped()),
              prof::registered_thread_count());
  std::printf("rusage: %.1f ms user, %.1f ms sys, %lld minflt, "
              "peak rss %lld KiB\n",
              after.utime_ms - before.utime_ms,
              after.stime_ms - before.stime_ms,
              static_cast<long long>(after.minflt - before.minflt),
              static_cast<long long>(after.peak_rss_kb));
  if (prof::alloc_hook_enabled())
    std::printf("allocs: %llu (%llu bytes) on the main thread\n",
                static_cast<unsigned long long>(after.allocs - before.allocs),
                static_cast<unsigned long long>(after.alloc_bytes -
                                                before.alloc_bytes));

  const size_t total = profiler.sample_count();
  if (total > 0) {
    const size_t top_k = static_cast<size_t>(args.num("top-k", 10));
    util::Table frames({"self", "self %", "total", "frame"});
    for (const auto& f : profiler.top_frames(top_k))
      frames.add_row({util::strfmt("%zu", f.self),
                      util::strfmt("%.1f", 100.0 * f.self / total),
                      util::strfmt("%zu", f.total), f.frame});
    std::printf("\n%s", frames.render("hottest frames").c_str());

    util::Table spans({"samples", "%", "span path"});
    for (const auto& [path, count] : profiler.samples_by_span())
      spans.add_row({util::strfmt("%zu", count),
                     util::strfmt("%.1f", 100.0 * count / total),
                     path.empty() ? "(no span)" : path});
    std::printf("\n%s", spans.render("samples by span").c_str());
  } else {
    std::printf("no samples captured (target too fast? try --repeat or a "
                "higher --hz)\n");
  }

  prof::FoldedOptions fopt;
  fopt.span_prefix = !args.has("no-span-prefix");
  const std::string folded_out = args.str("folded-out");
  if (!folded_out.empty()) {
    if (!profiler.write_folded(folded_out, fopt)) {
      std::fprintf(stderr, "cannot write folded stacks to %s\n",
                   folded_out.c_str());
      return 1;
    }
    std::printf("\nfolded stacks -> %s\n", folded_out.c_str());
  }
  const std::string speedscope_out = args.str("speedscope-out");
  if (!speedscope_out.empty()) {
    const std::string name = one.flags["type"] + "/" + one.flags["topology"];
    if (!profiler.write_speedscope(speedscope_out, name)) {
      std::fprintf(stderr, "cannot write speedscope profile to %s\n",
                   speedscope_out.c_str());
      return 1;
    }
    std::printf("speedscope profile -> %s (open at "
                "https://www.speedscope.app)\n", speedscope_out.c_str());
  }
  return result.ok ? 0 : 1;
}

// Endpoint plumbing shared by the daemon-facing commands (client, stats,
// health). False (with the usage error printed) when no endpoint is given.
bool endpoint_options(const Args& args, const char* cmd,
                      serve::ClientOptions* out) {
  out->unix_path = args.str("unix");
  out->host = args.str("host", "127.0.0.1");
  out->port = static_cast<int>(args.num("port", 0));
  if (out->unix_path.empty() && out->port <= 0) {
    std::fprintf(stderr, "%s needs --port N or --unix PATH\n", cmd);
    return false;
  }
  out->max_retries = static_cast<int>(args.num("retries", 3));
  return true;
}

// Talks to a running smartd over the framed protocol. The op rides as the
// positional operand; the macro spec flags mirror the local commands. The
// client retries only requests the daemon provably never started (connect
// failures, kOverloaded sheds) with exponential backoff + jitter.
int cmd_client(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "client needs an op: "
                 "ping|size|advise|lint|report|shutdown\n");
    return 2;
  }
  const std::string op = args.positional.front();
  serve::FrameType type;
  if (op == "ping") type = serve::FrameType::kPing;
  else if (op == "size") type = serve::FrameType::kSize;
  else if (op == "advise") type = serve::FrameType::kAdvise;
  else if (op == "lint") type = serve::FrameType::kLint;
  else if (op == "report") type = serve::FrameType::kReport;
  else if (op == "shutdown") type = serve::FrameType::kShutdown;
  else {
    std::fprintf(stderr, "unknown client op '%s'\n", op.c_str());
    return 2;
  }

  serve::ClientOptions copt;
  if (!endpoint_options(args, "client", &copt)) return 2;

  serve::Request req;
  req.type = args.str("type");
  req.topology = args.str("topology");
  req.n = static_cast<int>(args.num("n", 4));
  if (args.has("bits")) req.bits = args.num("bits", 8);
  if (args.has("m")) req.m = args.num("m", 0);
  req.load_ff = args.num("load", 15.0);
  req.delay_ps = args.num("delay", -1.0);
  if (args.has("precharge")) req.precharge_ps = args.num("precharge", -1.0);
  if (args.has("slope")) req.slope_ps = args.num("slope", -1.0);
  req.cost = args.str("cost", "width");
  req.top_k = static_cast<int>(args.num("top-k", 5));
  if (args.has("no-cache")) req.use_cache = false;

  const bool solving = type != serve::FrameType::kPing &&
                       type != serve::FrameType::kShutdown;
  if (solving && req.type.empty()) {
    std::fprintf(stderr, "client %s needs --type (and usually --topology)\n",
                 op.c_str());
    return 2;
  }

  serve::Client client(copt);
  serve::Frame reply;
  const auto status =
      client.call(type, solving ? serve::request_json(req) : "",
                  args.num("deadline-ms", -1.0), &reply);
  // -v: per-request timing on stderr (stdout stays the raw payload).
  // Client-side phases always; the server's stage breakdown when the
  // reply carried a pulse object.
  if (args.has("verbose")) {
    const serve::CallStats& cs = client.last_call();
    std::fprintf(stderr,
                 "call: trace %llx, %d attempt%s, total %.2f ms "
                 "(connect %.2f, send %.2f, wait %.2f, decode %.2f)\n",
                 static_cast<unsigned long long>(cs.trace_id), cs.attempts,
                 cs.attempts == 1 ? "" : "s", cs.total_ms, cs.connect_ms,
                 cs.send_ms, cs.wait_ms, cs.decode_ms);
    if (cs.server_solve_us >= 0.0)
      std::fprintf(stderr,
                   "server: queue %.0f us, decode %.0f us, solve %.0f us\n",
                   cs.server_queue_us, cs.server_decode_us,
                   cs.server_solve_us);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "client %s failed: %s\n", op.c_str(),
                 status.to_string().c_str());
    return 1;
  }
  if (type == serve::FrameType::kPing)
    std::printf("pong\n");
  else
    std::printf("%s\n", reply.payload.c_str());
  return 0;
}

// ---- SMART-Pulse commands --------------------------------------------

double jnum(const util::JsonValue* v, double fallback = 0.0) {
  return v != nullptr ? v->number : fallback;
}

// One fetch of the kStats snapshot rendered as a top-style text view.
// Returns false when the payload does not parse (daemon/tool mismatch).
bool render_stats_text(const std::string& payload) {
  util::JsonValue doc;
  if (!util::json_parse(payload, &doc)) return false;
  const util::JsonValue* counters = doc.find("counters");
  const util::JsonValue* gauges = doc.find("gauges");
  const util::JsonValue* util_v = doc.find("utilization");
  if (counters == nullptr || gauges == nullptr || util_v == nullptr)
    return false;
  const auto c = [&](const char* k) {
    return static_cast<unsigned long long>(jnum(counters->find(k)));
  };
  const auto g = [&](const char* k) {
    return static_cast<unsigned long long>(jnum(gauges->find(k)));
  };

  const bool draining =
      doc.find("draining") != nullptr && doc.find("draining")->boolean;
  std::printf("smartd %s — up %.1f s, protocol v%.0f, %s\n",
              doc.find("endpoint") ? doc.find("endpoint")->str.c_str() : "?",
              jnum(doc.find("uptime_s")),
              jnum(doc.find("protocol_version"), 2.0),
              draining ? "DRAINING" : "serving");
  std::printf(
      "requests %llu  responses %llu  pings %llu  shed %llu  errors %llu  "
      "timeouts %llu  bad_frames %llu  abandoned %llu\n",
      c("requests"), c("responses"), c("pings"), c("shed"), c("errors"),
      c("timeouts"), c("bad_frames"), c("abandoned"));
  std::printf(
      "queue %llu  in_flight %llu  connections %llu  workers %.0f  "
      "utilization %.1f%%\n",
      g("queue_depth"), g("in_flight"), g("connections"),
      jnum(util_v->find("workers")),
      100.0 * jnum(util_v->find("busy_ratio")));

  if (const util::JsonValue* cache = doc.find("cache");
      cache != nullptr && cache->kind == util::JsonValue::Kind::kObject) {
    std::printf(
        "cache: size %.0f  hits %.0f  warm %.0f  misses %.0f  "
        "evictions %.0f  poisoned %.0f\n",
        jnum(cache->find("size")), jnum(cache->find("hits")),
        jnum(cache->find("near_hits")), jnum(cache->find("misses")),
        jnum(cache->find("evictions")), jnum(cache->find("poisoned")));
  } else {
    std::printf("cache: disabled\n");
  }

  if (const util::JsonValue* stages = doc.find("stages")) {
    util::Table table({"stage", "count", "p50 (ms)", "p90 (ms)", "p99 (ms)",
                       "max (ms)"});
    for (const char* name :
         {"queue_ms", "decode_ms", "solve_ms", "encode_ms", "total_ms"}) {
      const util::JsonValue* h = stages->find(name);
      if (h == nullptr) continue;
      table.add_row({std::string(name, std::strlen(name) - 3),
                     util::strfmt("%.0f", jnum(h->find("count"))),
                     util::strfmt("%.3f", jnum(h->find("p50"))),
                     util::strfmt("%.3f", jnum(h->find("p90"))),
                     util::strfmt("%.3f", jnum(h->find("p99"))),
                     util::strfmt("%.3f", jnum(h->find("max")))});
    }
    std::printf("%s", table.render("per-stage latency").c_str());
  }

  if (const util::JsonValue* errs = doc.find("errors_by_code");
      errs != nullptr && !errs->object.empty()) {
    std::printf("errors by code:");
    for (const auto& [code, count] : errs->object)
      std::printf("  %s=%.0f", code.c_str(), count.number);
    std::printf("\n");
  }
  const util::JsonValue* slow = doc.find("slow");
  const double slow_thresh = slow ? jnum(slow->find("threshold_ms"), -1) : -1;
  if (slow_thresh > 0.0)
    std::printf("slow capture: threshold %.1f ms, captured %.0f\n",
                slow_thresh, jnum(slow->find("captured")));
  const util::JsonValue* recent = doc.find("recent");
  std::printf("accounted %.0f requests (%zu in ring)\n",
              jnum(doc.find("requests_total")),
              recent != nullptr ? recent->array.size() : 0);
  return true;
}

// Live serving snapshot: one kStats round trip, rendered as text (or the
// raw JSON with --format json); --watch refreshes until interrupted.
int cmd_stats(const Args& args) {
  const std::string format = args.str("format", "text");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "unknown stats format '%s' (want text or json)\n",
                 format.c_str());
    return 2;
  }
  serve::ClientOptions copt;
  if (!endpoint_options(args, "stats", &copt)) return 2;
  const bool watch = args.has("watch");
  const double interval_ms = args.num("interval-ms", 2000.0);

  serve::Client client(copt);
  for (;;) {
    serve::Frame reply;
    const auto status = client.call(serve::FrameType::kStats, "",
                                    args.num("deadline-ms", -1.0), &reply);
    if (!status.ok()) {
      std::fprintf(stderr, "stats failed: %s\n", status.to_string().c_str());
      return 1;
    }
    if (format == "json") {
      std::printf("%s\n", reply.payload.c_str());
    } else if (!render_stats_text(reply.payload)) {
      std::fprintf(stderr, "stats payload did not parse: %s\n",
                   reply.payload.c_str());
      return 1;
    }
    if (!watch) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int64_t>(std::max(100.0, interval_ms))));
  }
}

// Liveness probe: exit 0 only when the daemon answers kHealth with
// status "ok" (draining or unreachable both exit 1, so supervisors can
// gate restarts/traffic on the exit code alone).
int cmd_health(const Args& args) {
  serve::ClientOptions copt;
  if (!endpoint_options(args, "health", &copt)) return 2;
  serve::Client client(copt);
  serve::Frame reply;
  const auto status = client.call(serve::FrameType::kHealth, "",
                                  args.num("deadline-ms", -1.0), &reply);
  if (!status.ok()) {
    std::fprintf(stderr, "health probe failed: %s\n",
                 status.to_string().c_str());
    return 1;
  }
  std::printf("%s\n", reply.payload.c_str());
  util::JsonValue doc;
  if (!util::json_parse(reply.payload, &doc)) return 1;
  const util::JsonValue* st = doc.find("status");
  return st != nullptr && st->str == "ok" ? 0 : 1;
}

// Merges Chrome trace_event files (client + daemon sides of a serving
// run) into one document. Both sides stamp spans on the shared
// CLOCK_MONOTONIC timebase and tag them with the request's trace id, so
// the merged file lines up a request's full cross-process timeline.
int cmd_trace_merge(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "trace-merge needs input files\n");
    return 2;
  }
  util::JsonValue merged;
  merged.kind = util::JsonValue::Kind::kObject;
  util::JsonValue events;
  events.kind = util::JsonValue::Kind::kArray;
  for (const std::string& path : args.positional) {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "trace-merge: cannot read %s\n", path.c_str());
      return 1;
    }
    std::string text;
    char chunk[65536];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
      text.append(chunk, n);
    std::fclose(f);
    util::JsonValue doc;
    if (!util::json_parse(text, &doc)) {
      std::fprintf(stderr, "trace-merge: %s is not valid JSON\n",
                   path.c_str());
      return 1;
    }
    const util::JsonValue* trace_events = doc.find("traceEvents");
    if (trace_events == nullptr ||
        trace_events->kind != util::JsonValue::Kind::kArray) {
      std::fprintf(stderr, "trace-merge: %s has no traceEvents array\n",
                   path.c_str());
      return 1;
    }
    for (const util::JsonValue& ev : trace_events->array)
      events.array.push_back(ev);
    if (const util::JsonValue* unit = doc.find("displayTimeUnit"))
      merged.object.emplace("displayTimeUnit", *unit);
  }
  merged.object["traceEvents"] = std::move(events);

  const std::string rendered = util::json_dump(merged);
  const std::string out = args.str("out");
  if (out.empty()) {
    std::printf("%s\n", rendered.c_str());
    return 0;
  }
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace-merge: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fputs(rendered.c_str(), f);
  std::fclose(f);
  std::printf("merged %zu events from %zu traces -> %s\n",
              merged.object["traceEvents"].array.size(),
              args.positional.size(), out.c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: smart_cli <list|advise|spice|save|paths|noise|corners"
               "|lint|report> [--type T "
               "--topology X --n N --bits B --load FF --delay PS --cost "
               "width|power|clock] [--trace-out FILE] [--metrics-out FILE] "
               "[--log-level debug|info|warn|error|off] [--threads N]\n"
               "       smart_cli lint <type/topology[/n] | --all> "
               "[--format text|json] [--suppress ID,ID] [--out FILE]\n"
               "       smart_cli report <type/topology[/n]> [--delay PS] "
               "[--top-k K] [--format text|json] [--out FILE]\n"
               "       smart_cli profile <type/topology[/n]> [--hz HZ] "
               "[--repeat N] [--delay PS] [--folded-out FILE] "
               "[--speedscope-out FILE] [--top-k K] [--alloc]\n"
               "       smart_cli client <ping|size|advise|lint|report|"
               "shutdown> (--port N | --unix PATH) [--type T --topology X "
               "--n N ...] [--deadline-ms MS] [--retries N] [--no-cache]"
               " [-v]\n"
               "       smart_cli stats (--port N | --unix PATH) "
               "[--format text|json] [--watch] [--interval-ms MS]\n"
               "       smart_cli health (--port N | --unix PATH)\n"
               "       smart_cli trace-merge FILE... [--out FILE]\n");
}

int dispatch(const Args& args) {
  if (args.command == "list") return cmd_list();
  if (args.command == "advise") return cmd_advise(args);
  if (args.command == "spice") return cmd_spice(args);
  if (args.command == "save") return cmd_save(args);
  if (args.command == "paths") return cmd_paths(args);
  if (args.command == "noise") return cmd_noise(args);
  if (args.command == "corners") return cmd_corners(args);
  if (args.command == "lint") return cmd_lint(args);
  if (args.command == "report") return cmd_report(args);
  if (args.command == "profile") return cmd_profile(args);
  if (args.command == "client") return cmd_client(args);
  if (args.command == "stats") return cmd_stats(args);
  if (args.command == "health") return cmd_health(args);
  if (args.command == "trace-merge") return cmd_trace_merge(args);
  usage();
  return args.command.empty() ? 1 : 2;
}

// Usage errors the dispatcher cannot see: a flag outside the command's
// vocabulary, or a stray positional operand. Returns 0 when fine.
int validate(const Args& args) {
  const auto known = command_flags().find(args.command);
  if (known == command_flags().end()) return 0;  // dispatch reports it
  for (const auto& [key, value] : args.flags) {
    (void)value;
    if (known->second.count(key) == 0 && global_flags().count(key) == 0) {
      std::fprintf(stderr, "unknown flag '--%s' for command '%s'\n",
                   key.c_str(), args.command.c_str());
      usage();
      return 2;
    }
  }
  if (!args.positional.empty() && args.command != "lint" &&
      args.command != "report" && args.command != "profile" &&
      args.command != "client" && args.command != "trace-merge") {
    std::fprintf(stderr, "unexpected argument '%s' for command '%s'\n",
                 args.positional.front().c_str(), args.command.c_str());
    usage();
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  if (const int rc = validate(args); rc != 0) return rc;
  if (args.has("log-level")) {
    util::LogLevel level;
    if (!util::parse_log_level(args.str("log-level"), &level)) {
      std::fprintf(stderr, "unknown log level '%s'\n",
                   args.str("log-level").c_str());
      return 2;
    }
    util::set_log_level(level);
  }
  if (args.has("threads")) {
    int n = 0;
    if (!par::parse_thread_spec(args.str("threads").c_str(), &n)) {
      std::fprintf(stderr,
                   "invalid --threads '%s' (want an integer in [1, %d])\n",
                   args.str("threads").c_str(), par::kMaxThreads);
      return 2;
    }
    par::set_thread_count(n);
  }
  const std::string trace_out = args.str("trace-out");
  const std::string metrics_out = args.str("metrics-out");
  auto& telemetry = obs::Telemetry::instance();
  if (!trace_out.empty() || !metrics_out.empty()) {
    telemetry.enable(true);
    telemetry.set_process_label("smart_cli");
  }

  int rc = 2;
  try {
    rc = dispatch(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 2;
  }

  // Telemetry is flushed even when the command failed — failed runs are
  // the ones worth tracing.
  if (!trace_out.empty() && !telemetry.write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    if (rc == 0) rc = 1;
  }
  if (!metrics_out.empty() && !telemetry.write_metrics(metrics_out)) {
    std::fprintf(stderr, "cannot write metrics to %s\n", metrics_out.c_str());
    if (rc == 0) rc = 1;
  }
  return rc;
}
