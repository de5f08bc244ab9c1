#include "core/constraints.h"

#include <cstring>
#include <unordered_map>

#include "obs/obs.h"
#include "util/check.h"
#include "util/strfmt.h"

namespace smart::core {

using netlist::Netlist;
using posy::Monomial;
using posy::PosyAccum;
using posy::Posynomial;

posy::Posynomial cost_posy(const Netlist& nl, CostMetric cost,
                           const models::LabelVarMap& labels,
                           const power::PowerOptions& activity,
                           const tech::Tech& tech) {
  PosyAccum obj;
  switch (cost) {
    case CostMetric::kTotalWidth: {
      for (size_t c = 0; c < nl.comp_count(); ++c) {
        for (const auto& ref :
             nl.all_device_widths(static_cast<netlist::CompId>(c))) {
          Monomial m = labels.at(static_cast<size_t>(ref.label));
          m *= ref.scale;
          obj.add(m);
        }
      }
      break;
    }
    case CostMetric::kPower: {
      const auto act = power::net_activities(nl, activity);
      const auto caps = models::net_cap_posy_all(nl, labels, tech);
      for (size_t n = 0; n < nl.net_count(); ++n)
        obj.add(caps[n] * act[n]);
      break;
    }
    case CostMetric::kClockLoad: {
      for (size_t n = 0; n < nl.net_count(); ++n) {
        if (nl.net(static_cast<netlist::NetId>(n)).kind !=
            netlist::NetKind::kClock)
          continue;
        for (size_t c = 0; c < nl.comp_count(); ++c) {
          for (const auto& ref : nl.gate_width_on_net(
                   static_cast<netlist::CompId>(c),
                   static_cast<netlist::NetId>(n))) {
            Monomial m = labels.at(static_cast<size_t>(ref.label));
            m *= ref.scale;
            obj.add(m);
          }
        }
      }
      // Clock load alone can leave data devices unconstrained from above;
      // a small width term keeps the objective bounded and realistic.
      Posynomial width = cost_posy(nl, CostMetric::kTotalWidth, labels,
                                   activity, tech);
      obj.add(width * 0.01);
      break;
    }
  }
  Posynomial out = obj.take();
  SMART_CHECK(!out.is_zero(), "cost objective is zero — empty netlist?");
  return out;
}

GeneratedProblem generate_problem(const Netlist& nl,
                                  const ConstraintOptions& opt,
                                  const models::ModelLibrary& lib,
                                  const tech::Tech& tech) {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
  SMART_CHECK(opt.delay_spec_ps > 0.0, "delay spec must be positive");

  GeneratedProblem gen;
  gen.built_options = opt;
  // The deadline is a per-call borrow; the stored options must not keep a
  // pointer that outlives the caller's Deadline.
  gen.built_options.deadline = nullptr;
  gen.vars = std::make_unique<posy::VarTable>();
  gen.labels = models::make_label_vars(nl, *gen.vars);

  gen.objective = cost_posy(nl, opt.cost, gen.labels, opt.activity, tech);

  // Net capacitances are shared across many arc models; precompute them all
  // in one scatter pass instead of a lazy per-net cache, which was
  // O(nets * comps).
  const std::vector<Posynomial> caps = [&] {
    obs::Span caps_span("core.congen.net_caps");
    return models::net_cap_posy_all(nl, gen.labels, tech);
  }();
  auto net_cap = [&](netlist::NetId n) -> const Posynomial& {
    return caps[static_cast<size_t>(n)];
  };

  const Posynomial slope_budget(opt.slope_budget_ps);

  // ---- timing constraint templates from representative paths ----
  timing::PathExtractor extractor(nl);
  timing::PruneOptions prune = opt.prune;
  if (opt.deadline != nullptr) prune.deadline = opt.deadline;
  gen.paths = extractor.extract(prune, &gen.path_stats);

  // The same arc transition at the same input slope appears on many paths;
  // model it once. Keys collect in path order, each distinct model builds
  // into its own slot, and the emission stage below only reads the
  // finished memo — so the produced posynomials are the ones per-step
  // calls would produce, at a fraction of the calls.
  struct StepKey {
    int32_t comp;
    int32_t from;
    int32_t to;
    int8_t kind;
    int8_t out_rise;
    int8_t phase;
    uint64_t slope_bits;
    bool operator==(const StepKey&) const = default;
  };
  struct StepKeyHash {
    size_t operator()(const StepKey& k) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      auto mix = [&h](uint64_t v) {
        v *= 0xff51afd7ed558ccdULL;
        v ^= v >> 33;
        h = (h ^ v) * 0x2545f4914f6cdd1dULL;
        h ^= h >> 29;
      };
      mix(static_cast<uint64_t>(static_cast<uint32_t>(k.comp)));
      mix((static_cast<uint64_t>(static_cast<uint32_t>(k.from)) << 32) |
          static_cast<uint64_t>(static_cast<uint32_t>(k.to)));
      mix((static_cast<uint64_t>(static_cast<uint8_t>(k.kind)) << 16) |
          (static_cast<uint64_t>(static_cast<uint8_t>(k.out_rise)) << 8) |
          static_cast<uint64_t>(static_cast<uint8_t>(k.phase)));
      mix(k.slope_bits);
      return static_cast<size_t>(h);
    }
  };
  auto step_key = [&](const timing::PathStep& step, netlist::Phase phase,
                      double slope) {
    StepKey k;
    k.comp = static_cast<int32_t>(step.arc.comp);
    k.from = static_cast<int32_t>(step.arc.from);
    k.to = static_cast<int32_t>(step.arc.to);
    k.kind = static_cast<int8_t>(step.arc.kind);
    k.out_rise = step.out_rise ? 1 : 0;
    k.phase = static_cast<int8_t>(phase);
    std::memcpy(&k.slope_bits, &slope, sizeof(slope));
    return k;
  };
  std::unordered_map<StepKey, uint32_t, StepKeyHash> model_index;
  std::vector<std::pair<StepKey, double>> model_keys;
  {
    obs::Span keys_span("core.congen.model_keys");
    for (const auto& path : gen.paths) {
      const double in_slope = path.start_slope >= 0.0
                                  ? path.start_slope
                                  : tech.default_input_slope;
      for (size_t si = 0; si < path.steps.size(); ++si) {
        const double slope = si == 0 ? in_slope : opt.slope_budget_ps;
        const StepKey k = step_key(path.steps[si], path.phase, slope);
        if (model_index.emplace(k, model_keys.size()).second)
          model_keys.emplace_back(k, slope);
      }
    }
  }
  std::vector<models::ArcPosy> models_memo(model_keys.size());
  {
    obs::Span models_span("core.congen.arc_models");
    for (size_t i = 0; i < model_keys.size(); ++i) {
      if (util::deadline_expired(opt.deadline))
        throw util::TimeoutError(
            "constraint generation deadline exceeded (arc models)");
      const auto& [k, slope] = model_keys[i];
      netlist::Arc arc;
      arc.from = static_cast<netlist::NetId>(k.from);
      arc.to = static_cast<netlist::NetId>(k.to);
      arc.comp = static_cast<netlist::CompId>(k.comp);
      arc.kind = static_cast<netlist::ArcKind>(k.kind);
      models_memo[i] = models::arc_model_posy(
          nl, arc, k.out_rise != 0, Posynomial(slope), net_cap(arc.to),
          gen.labels, lib, tech, static_cast<netlist::Phase>(k.phase));
    }
  }

  {
    obs::Span templates_span("core.congen.templates");
    gen.path_templates.reserve(gen.paths.size());
    for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
      if (util::deadline_expired(opt.deadline))
        throw util::TimeoutError(
            "constraint generation deadline exceeded (templates)");
      const auto& path = gen.paths[pi];
      const double in_slope = path.start_slope >= 0.0
                                  ? path.start_slope
                                  : tech.default_input_slope;
      PathConstraintTemplate tmpl;
      tmpl.phase = path.phase;
      tmpl.end = path.end();
      tmpl.stages_total = path.domino_stages();
      PosyAccum total;
      total.add(path.start_arrival);
      int stages_seen = 0;
      for (size_t si = 0; si < path.steps.size(); ++si) {
        const auto& step = path.steps[si];
        const double slope = si == 0 ? in_slope : opt.slope_budget_ps;
        const auto& arc_posy = models_memo[model_index.find(
            step_key(step, path.phase, slope))->second];

        const bool enters_domino =
            step.arc.kind == netlist::ArcKind::kDominoEval ||
            step.arc.kind == netlist::ArcKind::kDominoClkEval;
        if (enters_domino) {
          ++stages_seen;
          // Without opportunistic time borrowing, a stage that evaluates
          // in phase k cannot start before its inputs are final at the
          // phase edge: everything upstream of domino stage k must settle
          // within the first (k-1)/S of the spec. With OTB ([12])
          // evaluation simply begins when the data arrives and only the
          // end-to-end constraint remains. Recorded as a prefix template
          // here; normalized by the current spec in assemble_problem.
          if (stages_seen >= 2 && path.phase == netlist::Phase::kEvaluate)
            tmpl.stage_prefixes.emplace_back(stages_seen, total.snapshot());
        }
        total.add(arc_posy.delay);
      }
      tmpl.total = total.take();
      gen.path_templates.push_back(std::move(tmpl));
    }
  }

  // ---- input pin capacitance (load) constraints ----
  const auto& per_port = opt.input_cap_limits_ff;
  SMART_CHECK(per_port.empty() || per_port.size() == nl.inputs().size(),
              "input cap limit list must match the input port count");
  for (size_t ii = 0; ii < nl.inputs().size(); ++ii) {
    const double limit = per_port.empty() ? opt.input_cap_limit_ff
                                          : per_port[ii];
    if (limit <= 0.0) continue;
    const netlist::NetId in = nl.inputs()[ii].net;
    gen.static_constraints.push_back(gp::Constraint{
        net_cap(in) * (1.0 / (limit * opt.input_cap_slack)),
        util::strfmt("incap_%s", nl.net(in).name.c_str())});
  }

  // ---- per-arc slope (reliability) constraints ----
  if (opt.enforce_slopes) {
    obs::Span slopes_span("core.congen.slopes");
    // Reuses the memoized model when a timing path already evaluated the
    // same transition at the slope budget.
    std::vector<netlist::EdgeMap> maps;
    for (const auto& arc : nl.arcs()) {
      if (util::deadline_expired(opt.deadline))
        throw util::TimeoutError(
            "constraint generation deadline exceeded (slopes)");
      bool footed = true;
      if (const auto* dg = nl.comp(arc.comp).as_domino())
        footed = dg->evaluate_label >= 0;
      netlist::arc_edge_maps(arc.kind, netlist::Phase::kEvaluate, footed,
                             maps);
      // Each distinct output transition gets one slope bound.
      bool done_rise = false, done_fall = false;
      for (const auto& em : maps) {
        if (em.out_rise ? done_rise : done_fall) continue;
        (em.out_rise ? done_rise : done_fall) = true;
        timing::PathStep step;
        step.arc = arc;
        step.out_rise = em.out_rise;
        const auto it = model_index.find(step_key(
            step, netlist::Phase::kEvaluate, opt.slope_budget_ps));
        // Each (arc, transition) maps to a distinct memo index and the path
        // templates above only read .delay, so the memoized slope
        // posynomial can be stolen instead of copied.
        Posynomial out_slope =
            it != model_index.end()
                ? std::move(models_memo[it->second].out_slope)
                : models::arc_out_slope_posy(nl, arc, em.out_rise,
                                             slope_budget, net_cap(arc.to),
                                             gen.labels, lib, tech);
        out_slope *= 1.0 / opt.slope_budget_ps;
        std::string tag = "slope_";
        tag += nl.net(arc.to).name;
        tag += em.out_rise ? "_r" : "_f";
        gen.static_constraints.push_back(
            gp::Constraint{std::move(out_slope), std::move(tag)});
        ++gen.slope_constraints;
      }
    }
  }

  assemble_problem(gen, opt.delay_spec_ps, opt.precharge_spec_ps, opt.otb,
                   opt.output_required_ps, nl);
  return gen;
}

void assemble_problem(GeneratedProblem& gen, double delay_spec_ps,
                      double precharge_spec_ps, bool otb,
                      const std::vector<double>& output_required_ps,
                      const Netlist& nl) {
  SMART_CHECK(delay_spec_ps > 0.0, "delay spec must be positive");
  const double pre_spec =
      precharge_spec_ps > 0.0 ? precharge_spec_ps : delay_spec_ps;

  SMART_CHECK(output_required_ps.empty() ||
                  output_required_ps.size() == nl.outputs().size(),
              "output required-time list must match the output port count");
  std::vector<double> required(nl.net_count(), -1.0);
  for (size_t oi = 0; oi < output_required_ps.size(); ++oi) {
    if (output_required_ps[oi] > 0.0)
      required[static_cast<size_t>(nl.outputs()[oi].net)] =
          output_required_ps[oi];
  }

  gen.problem = std::make_unique<gp::GpProblem>(*gen.vars);
  gen.problem->set_objective(gen.objective);
  gen.timing_constraints = 0;
  gen.stage_constraints = 0;
  gen.path_specs.assign(gen.path_templates.size(), 0.0);
  for (size_t pi = 0; pi < gen.path_templates.size(); ++pi) {
    const auto& tmpl = gen.path_templates[pi];
    double spec =
        tmpl.phase == netlist::Phase::kEvaluate ? delay_spec_ps : pre_spec;
    if (tmpl.phase == netlist::Phase::kEvaluate &&
        required[static_cast<size_t>(tmpl.end)] > 0.0) {
      spec = required[static_cast<size_t>(tmpl.end)];
    }
    gen.path_specs[pi] = spec;
    if (!otb) {
      for (const auto& [stage, prefix] : tmpl.stage_prefixes) {
        const double deadline = spec * static_cast<double>(stage - 1) /
                                static_cast<double>(tmpl.stages_total);
        gen.problem->add_constraint(
            prefix * (1.0 / deadline),
            util::strfmt("stage%d_of_path%zu", stage, pi));
        ++gen.stage_constraints;
      }
    }
    gen.problem->add_constraint(
        tmpl.total * (1.0 / spec),
        util::strfmt("%s_path%zu",
                     tmpl.phase == netlist::Phase::kEvaluate ? "eval" : "pre",
                     pi));
    ++gen.timing_constraints;
  }
  for (const auto& c : gen.static_constraints)
    gen.problem->add_constraint(c.lhs, c.tag);
}

netlist::Sizing sizing_from_solution(const Netlist& nl,
                                     const GeneratedProblem& gen,
                                     const util::Vec& x) {
  netlist::Sizing sizing(nl.label_count(), 0.0);
  for (size_t li = 0; li < nl.label_count(); ++li) {
    const auto& label = nl.label(static_cast<netlist::LabelId>(li));
    if (label.fixed) {
      sizing[li] = label.fixed_width;
      continue;
    }
    const Monomial& m = gen.labels.at(li);
    SMART_CHECK(m.factors().size() == 1,
                "free label is not a single variable");
    sizing[li] = x.at(static_cast<size_t>(m.factors()[0].var));
  }
  return sizing;
}

}  // namespace smart::core
