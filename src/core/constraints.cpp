#include "core/constraints.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "gp/verify.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/strfmt.h"

namespace smart::core {

using netlist::Netlist;
using posy::Monomial;
using posy::PosyAccum;
using posy::Posynomial;

namespace {

/// Headroom applied to input cap limits. Limits are usually taken from a
/// reference design whose drivers may already be at minimum width; a few
/// percent of slack keeps the constraint strictly satisfiable.
constexpr double kInputCapSlack = 1.05;

using util::bits_of;
using util::mix64;

/// Canonical form of a posynomial: its terms in sorted order and a hash of
/// them. Posynomials keep terms in first-appearance order, so the same sum
/// accumulated along two differently ordered paths only compares equal
/// term-sorted. Terms sort by their (var, exp) factors, which are unique
/// within a posynomial; the coefficient only breaks ties.
struct CanonPosy {
  uint64_t hash = 0;
  std::vector<uint32_t> order;  ///< term indices in canonical order
};

/// Mixes monomial `t`, its coefficient and factors, into hash `h`.
uint64_t mix_term(uint64_t h, const Monomial& t) {
  h = mix64(h, bits_of(t.coeff()));
  h = mix64(h, t.factors().size());
  for (const auto& f : t.factors()) {
    h = mix64(h, static_cast<uint32_t>(f.var));
    h = mix64(h, bits_of(f.exp));
  }
  return h;
}

CanonPosy canonical(const Posynomial& p) {
  const auto& terms = p.terms();
  CanonPosy c;
  c.order.resize(terms.size());
  std::iota(c.order.begin(), c.order.end(), 0u);
  std::sort(c.order.begin(), c.order.end(), [&](uint32_t a, uint32_t b) {
    const auto& fa = terms[a].factors();
    const auto& fb = terms[b].factors();
    if (fa == fb) return terms[a].coeff() < terms[b].coeff();
    return std::lexicographical_compare(
        fa.begin(), fa.end(), fb.begin(), fb.end(),
        [](const posy::ExpFactor& x, const posy::ExpFactor& y) {
          return x.var != y.var ? x.var < y.var : x.exp < y.exp;
        });
  });
  c.hash = mix64(util::kMix64Seed, terms.size());
  for (const uint32_t i : c.order) c.hash = mix_term(c.hash, terms[i]);
  return c;
}

/// Bit-for-bit equality of two monomials.
bool same_term(const Monomial& a, const Monomial& b) {
  return bits_of(a.coeff()) == bits_of(b.coeff()) &&
         a.factors() == b.factors();
}

/// Exact equality of two canonicalized posynomials (the hash only picks
/// the candidates).
bool same_posy(const Posynomial& a, const CanonPosy& ca, const Posynomial& b,
               const CanonPosy& cb) {
  if (ca.hash != cb.hash || ca.order.size() != cb.order.size()) return false;
  for (size_t k = 0; k < ca.order.size(); ++k)
    if (!same_term(a.terms()[ca.order[k]], b.terms()[cb.order[k]]))
      return false;
  return true;
}

/// A path's timing bound before normalization: its delay posynomial and,
/// without OTB, the domino stage prefixes its stage deadlines bound.
struct PathDelay {
  netlist::Phase phase = netlist::Phase::kEvaluate;
  int stages_total = 0;
  Posynomial total;  ///< arrival + sum of arc delays
  /// (stage index k >= 2, prefix delay before entering stage k).
  std::vector<std::pair<int, Posynomial>> stage_prefixes;
};

/// Canonical key of a path delay: phase, stages_total, total and the stage
/// prefixes. stages_total only enters the constraints through the stage
/// deadlines, so it is part of the key only when there are prefixes.
struct CanonDelay {
  uint64_t hash = 0;
  CanonPosy total;
  std::vector<CanonPosy> prefixes;  ///< aligned with stage_prefixes
};

CanonDelay canonical(const PathDelay& d) {
  CanonDelay c;
  c.total = canonical(d.total);
  const int stages = d.stage_prefixes.empty() ? 0 : d.stages_total;
  c.hash = mix64(
      mix64(static_cast<uint64_t>(d.phase), static_cast<uint64_t>(stages)),
      c.total.hash);
  for (const auto& [stage, prefix] : d.stage_prefixes) {
    c.prefixes.push_back(canonical(prefix));
    c.hash = mix64(mix64(c.hash, static_cast<uint64_t>(stage)),
                   c.prefixes.back().hash);
  }
  return c;
}

bool same_delay(const PathDelay& a, const CanonDelay& ca, const PathDelay& b,
                const CanonDelay& cb) {
  if (ca.hash != cb.hash || a.phase != b.phase ||
      a.stage_prefixes.size() != b.stage_prefixes.size() ||
      (!a.stage_prefixes.empty() && a.stages_total != b.stages_total) ||
      !same_posy(a.total, ca.total, b.total, cb.total))
    return false;
  for (size_t k = 0; k < a.stage_prefixes.size(); ++k)
    if (a.stage_prefixes[k].first != b.stage_prefixes[k].first ||
        !same_posy(a.stage_prefixes[k].second, ca.prefixes[k],
                   b.stage_prefixes[k].second, cb.prefixes[k]))
      return false;
  return true;
}

/// Hashed class index: returns the class whose key matches (`same(c)`),
/// or registers `fresh` under `hash` and returns it.
template <class Same>
uint32_t find_or_add(std::unordered_multimap<uint64_t, uint32_t>& index,
                     uint64_t hash, uint32_t fresh, Same same) {
  const auto [lo, hi] = index.equal_range(hash);
  for (auto it = lo; it != hi; ++it)
    if (same(it->second)) return it->second;
  index.emplace(hash, fresh);
  return fresh;
}

/// Exact equality of two posynomials as stored: the same terms in the same
/// order, bit for bit. Stricter than same_posy, and what makes two
/// products with them bit-identical.
bool same_terms(const Posynomial& a, const Posynomial& b) {
  return std::equal(a.terms().begin(), a.terms().end(), b.terms().begin(),
                    b.terms().end(), same_term);
}

/// Load class of every net: nets whose capacitance posynomials are
/// same_terms share one, so arcs into them build bit-identical RC
/// posynomials. Classes number in first-net order.
std::vector<int32_t> load_classes(const std::vector<Posynomial>& caps) {
  std::vector<int32_t> cls(caps.size());
  std::vector<size_t> first;  ///< first net of each class
  std::unordered_multimap<uint64_t, uint32_t> index;
  for (size_t n = 0; n < caps.size(); ++n) {
    uint64_t h = mix64(util::kMix64Seed, caps[n].num_terms());
    for (const Monomial& t : caps[n].terms()) h = mix_term(h, t);
    const auto fresh = static_cast<uint32_t>(first.size());
    const uint32_t c = find_or_add(index, h, fresh, [&](uint32_t k) {
      return same_terms(caps[first[k]], caps[n]);
    });
    if (c == fresh) first.push_back(n);
    cls[n] = static_cast<int32_t>(c);
  }
  return cls;
}

/// Arc models keyed by what their posynomials are built from: the class
/// coefficients as read through their fault sites, the series RC path as
/// its (resistance, label) sequence, the destination's load class and the
/// input slope. Equal keys build bit-identical posynomials, so each
/// distinct key builds once however many arc transitions share it: the
/// bit slices of a regular macro repeat the same devices into the same
/// loads.
class ArcModelMemo {
 public:
  struct Slot {
    /// The delay is built only for path steps, which all come before the
    /// slope bounds; a slope bound's output slope moves into its static
    /// class on first use.
    models::ArcPosy posy;
    int32_t slope_class = -1;  ///< static class of its slope bound, once added
  };

  ArcModelMemo(const Netlist& nl, const std::vector<Posynomial>& caps,
               const models::LabelVarMap& labels,
               const models::ModelLibrary& lib, const tech::Tech& tech)
      : nl_(nl), caps_(caps), loads_(load_classes(caps)), labels_(labels),
        lib_(lib), tech_(tech) {}

  /// The slot of one arc transition at `in_slope`, built on first sight of
  /// its key (with the delay when `with_delay`). Reads the
  /// coefficients, and so hits their fault sites, once per call.
  uint32_t find_or_build(const netlist::Arc& arc, bool out_rise,
                         netlist::Phase phase, double in_slope,
                         bool with_delay) {
    const models::ModelCoeffs m = models::arc_coeffs(nl_, arc, lib_, phase);
    models::arc_rc_path(nl_, arc, out_rise, tech_, path_, phase);
    key_.assign({bits_of(m.a_int), bits_of(m.a_rc), bits_of(m.a_slope),
                 bits_of(m.b_int), bits_of(m.b_rc), bits_of(m.b_slope),
                 m.saturating_slope ? 1u : 0u,
                 static_cast<uint32_t>(loads_[static_cast<size_t>(arc.to)]),
                 bits_of(in_slope)});
    for (const auto& d : path_) {
      key_.push_back(bits_of(d.r));
      key_.push_back(static_cast<uint32_t>(d.label));
    }
    uint64_t h = util::kMix64Seed;
    for (const uint64_t w : key_) h = mix64(h, w);
    const auto fresh = static_cast<uint32_t>(slots_.size());
    const uint32_t s = find_or_add(index_, h, fresh, [&](uint32_t c) {
      return std::equal(key_.begin(), key_.end(),
                        keys_.begin() + key_begin_[c],
                        keys_.begin() + key_begin_[c + 1]);
    });
    if (s != fresh) return s;
    keys_.insert(keys_.end(), key_.begin(), key_.end());
    key_begin_.push_back(static_cast<uint32_t>(keys_.size()));
    const Posynomial rc = models::rc_path_posy(
        path_, caps_[static_cast<size_t>(arc.to)], labels_, tech_);
    const Posynomial slope(in_slope);
    Slot& slot = slots_.emplace_back();
    if (with_delay)
      slot.posy = models::model_posy(m, rc, slope, tech_);
    else
      slot.posy.out_slope = models::out_slope_posy(m, rc, slope);
    return s;
  }

  Slot& operator[](uint32_t s) { return slots_[s]; }
  /// Distinct keys seen, i.e. arc models built.
  size_t size() const { return slots_.size(); }

 private:
  const Netlist& nl_;
  const std::vector<Posynomial>& caps_;
  const std::vector<int32_t> loads_;
  const models::LabelVarMap& labels_;
  const models::ModelLibrary& lib_;
  const tech::Tech& tech_;
  std::vector<Slot> slots_;
  /// Every slot's key, concatenated; slot s's is keys_[key_begin_[s],
  /// key_begin_[s + 1]).
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> key_begin_{0};
  std::vector<uint64_t> key_;            ///< the key being looked up
  std::vector<models::RcDevice> path_;   ///< its RC path
  std::unordered_multimap<uint64_t, uint32_t> index_;
};

/// The kPower objective: every net's capacitance times its activity.
Posynomial power_posy(const Netlist& nl, const std::vector<Posynomial>& caps,
                      const power::PowerOptions& activity) {
  const auto act = power::net_activities(nl, activity);
  PosyAccum obj;
  for (size_t n = 0; n < nl.net_count(); ++n) obj.add(caps[n] * act[n]);
  Posynomial out = obj.take();
  SMART_CHECK(!out.is_zero(), "cost objective is zero — empty netlist?");
  return out;
}

/// Tag of path `pi`'s end-to-end bound (stage 0) or its stage-k deadline.
std::string path_tag(const GeneratedProblem& gen, int stage, size_t pi) {
  if (stage > 0) return util::strfmt("stage%d_of_path%zu", stage, pi);
  const bool eval = gen.paths[pi].phase == netlist::Phase::kEvaluate;
  return util::strfmt("%s_path%zu", eval ? "eval" : "pre", pi);
}

/// A class bound's limit (ps): the class spec, or its stage-k share.
double bound_limit(const GeneratedProblem& gen, const PathClass& cls,
                   int stage) {
  if (stage == 0) return cls.spec;
  return cls.spec * static_cast<double>(stage - 1) /
         static_cast<double>(gen.paths[cls.paths.front()].domino_stages());
}

/// Adds path class `c`'s stage-k deadline (or, for stage 0, its end-to-end
/// bound) as a row on the delay `delay`, constant or not; assemble_problem
/// writes its offset.
void add_path_bound(GeneratedProblem& gen, uint32_t c, int stage,
                    Posynomial delay) {
  const PathClass& cls = gen.path_classes[c];
  using Kind = ConstraintOrigin::Kind;
  if (stage == 0)
    for (const size_t pi : cls.paths)
      gen.path_constraint[pi] = gen.origins.size();
  ++(stage > 0 ? gen.stage_constraints : gen.timing_constraints);
  gen.origins.push_back({stage > 0 ? Kind::kStage : Kind::kPath, c, stage});
  gen.problem->add_row(std::move(delay),
                       path_tag(gen, stage, cls.paths.front()), 0.0);
}

}  // namespace

posy::Posynomial cost_posy(const Netlist& nl, CostMetric cost,
                           const models::LabelVarMap& labels,
                           const power::PowerOptions& activity,
                           const tech::Tech& tech) {
  PosyAccum obj;
  switch (cost) {
    case CostMetric::kTotalWidth: {
      for (size_t c = 0; c < nl.comp_count(); ++c) {
        for (const auto& ref :
             nl.load_view().devices_of(static_cast<netlist::CompId>(c))) {
          Monomial m = labels.at(static_cast<size_t>(ref.label));
          m *= ref.scale;
          obj.add(m);
        }
      }
      break;
    }
    case CostMetric::kPower:
      return power_posy(nl, models::net_cap_posy_all(nl, labels, tech),
                        activity);
    case CostMetric::kClockLoad: {
      for (size_t n = 0; n < nl.net_count(); ++n) {
        if (nl.net(static_cast<netlist::NetId>(n)).kind !=
            netlist::NetKind::kClock)
          continue;
        const netlist::LoadView& view = nl.load_view();
        for (const auto& load :
             view.loads_on(static_cast<netlist::NetId>(n))) {
          for (const auto& ref : view.gate_refs(load)) {
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
  GeneratedProblem gen;
  build_problem(gen, nl, opt, lib, tech);
  return gen;
}

void build_problem(GeneratedProblem& gen, const Netlist& nl,
                   const ConstraintOptions& opt,
                   const models::ModelLibrary& lib, const tech::Tech& tech) {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
  SMART_CHECK(opt.delay_spec_ps > 0.0, "delay spec must be positive");
  // Free the previous problem before building its replacement.
  std::vector<timing::Path> paths = std::move(gen.paths);
  gen = GeneratedProblem();
  if (paths.empty()) {
    timing::PruneOptions prune = opt.prune;
    if (opt.deadline != nullptr) prune.deadline = opt.deadline;
    paths = timing::PathExtractor(nl).extract(prune);
  }
  gen.paths = std::move(paths);
  gen.vars = std::make_unique<posy::VarTable>();
  gen.labels = models::make_label_vars(nl, *gen.vars);

  // Net capacitances are shared across many arc models (and the power
  // objective); precompute them all in one scatter pass instead of a lazy
  // per-net cache, which was O(nets * comps).
  const std::vector<Posynomial> caps = [&] {
    obs::Span caps_span("core.congen.net_caps");
    return models::net_cap_posy_all(nl, gen.labels, tech);
  }();
  gen.problem = std::make_unique<gp::GpProblem>(*gen.vars);
  gen.problem->set_objective(
      opt.cost == CostMetric::kPower
          ? power_posy(nl, caps, opt.activity)
          : cost_posy(nl, opt.cost, gen.labels, opt.activity, tech));

  // Path steps and slope bounds draw on one memo of arc models. A path
  // step's arc transition at its input slope is looked up once, in path
  // order, and step_slot keeps that arc identity's memo slot: the delay
  // and slope stages below reuse it without reading the coefficients (and
  // hitting their fault sites) again.
  using StepKey = std::array<uint64_t, 3>;
  struct StepKeyHash {
    size_t operator()(const StepKey& k) const {
      return static_cast<size_t>(
          mix64(mix64(mix64(util::kMix64Seed, k[0]), k[1]), k[2]));
    }
  };
  auto step_key = [](const netlist::Arc& arc, bool out_rise,
                     netlist::Phase phase, double slope) {
    const auto u = [](auto v) {
      return static_cast<uint64_t>(static_cast<uint32_t>(v));
    };
    return StepKey{(u(arc.comp) << 32) | u(arc.from),
                   (u(arc.to) << 32) | (u(arc.kind) << 16) |
                       (u(out_rise) << 8) | u(phase),
                   bits_of(slope)};
  };
  std::optional<ArcModelMemo> memo;
  memo.emplace(nl, caps, gen.labels, lib, tech);
  std::unordered_map<StepKey, uint32_t, StepKeyHash> step_slot;
  std::vector<uint32_t> path_slots;  ///< memo slot of every path step
  {
    obs::Span models_span("core.congen.arc_models");
    for (const auto& path : gen.paths) {
      const double in_slope = path.start_slope >= 0.0
                                  ? path.start_slope
                                  : tech.default_input_slope;
      for (size_t si = 0; si < path.steps.size(); ++si) {
        const auto& step = path.steps[si];
        const double slope = si == 0 ? in_slope : opt.slope_budget_ps;
        const auto [it, fresh] = step_slot.try_emplace(
            step_key(step.arc, step.out_rise, path.phase, slope), 0u);
        if (fresh) {
          if (util::deadline_expired(opt.deadline))
            throw util::TimeoutError(
                "constraint generation deadline exceeded (arc models)");
          it->second = memo->find_or_build(step.arc, step.out_rise,
                                           path.phase, slope, true);
        }
        path_slots.push_back(it->second);
      }
    }
  }

  // ---- timing constraints from representative paths ----
  // Only the first path of each class keeps its delay, until the class is
  // emitted.
  std::vector<PathDelay> class_delays;
  {
    obs::Span templates_span("core.congen.templates");
    std::vector<CanonDelay> class_keys;
    std::unordered_multimap<uint64_t, uint32_t> class_index;
    size_t next_step = 0;
    for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
      if (util::deadline_expired(opt.deadline))
        throw util::TimeoutError(
            "constraint generation deadline exceeded (templates)");
      const auto& path = gen.paths[pi];
      PathDelay d;
      d.phase = path.phase;
      d.stages_total = path.domino_stages();
      PosyAccum total;
      total.add(path.start_arrival);
      int stages_seen = 0;
      for (const auto& step : path.steps) {
        const Posynomial& delay =
            (*memo)[path_slots[next_step++]].posy.delay;

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
          // end-to-end constraint remains, so no prefix is kept.
          if (!opt.otb && stages_seen >= 2 &&
              path.phase == netlist::Phase::kEvaluate)
            d.stage_prefixes.emplace_back(stages_seen, total.snapshot());
        }
        total.add(delay);
      }
      d.total = total.take();

      // Group the path into its canonical class.
      CanonDelay key = canonical(d);
      const auto fresh = static_cast<uint32_t>(gen.path_classes.size());
      const uint32_t cls =
          find_or_add(class_index, key.hash, fresh, [&](uint32_t c) {
            return same_delay(class_delays[c], class_keys[c], d, key);
          });
      if (cls == fresh) {
        gen.path_classes.emplace_back();
        class_delays.push_back(std::move(d));
        class_keys.push_back(std::move(key));
      }
      gen.path_classes[cls].paths.push_back(pi);
    }
  }

  // Slope and input-cap constraints are grouped the same way, by their
  // normalized posynomial. Each class's constraint is held here until the
  // path constraints before it are emitted.
  std::vector<gp::Constraint> static_bounds;
  std::vector<CanonPosy> static_keys;
  std::unordered_multimap<uint64_t, uint32_t> static_index;
  // Returns the constraint's class.
  auto add_static = [&](Posynomial lhs, std::string tag,
                        std::string member) -> uint32_t {
    CanonPosy key = canonical(lhs);
    const auto fresh = static_cast<uint32_t>(gen.static_classes.size());
    const uint32_t cls =
        find_or_add(static_index, key.hash, fresh, [&](uint32_t c) {
          return same_posy(static_bounds[c].lhs, static_keys[c], lhs, key);
        });
    if (cls == fresh) {
      gen.static_classes.emplace_back();
      static_bounds.push_back({std::move(lhs), std::move(tag)});
      static_keys.push_back(std::move(key));
    }
    gen.static_classes[cls].members.push_back(std::move(member));
    return cls;
  };
  // ---- input pin capacitance (load) constraints ----
  const auto& per_port = opt.input_cap_limits_ff;
  SMART_CHECK(per_port.empty() || per_port.size() == nl.inputs().size(),
              "input cap limit list must match the input port count");
  for (size_t ii = 0; ii < nl.inputs().size(); ++ii) {
    const double limit = per_port.empty() ? opt.input_cap_limit_ff
                                          : per_port[ii];
    if (limit <= 0.0) continue;
    const netlist::NetId in = nl.inputs()[ii].net;
    std::string tag = util::strfmt("incap_%s", nl.net(in).name.c_str());
    std::string member = tag;
    add_static(caps[static_cast<size_t>(in)] *
                   (1.0 / (limit * kInputCapSlack)),
               std::move(tag), std::move(member));
  }
  const size_t first_slope_class = gen.static_classes.size();

  // ---- per-arc slope (reliability) constraints ----
  size_t slope_bounds = 0;  ///< arc transitions given a slope bound
  if (opt.enforce_slopes) {
    obs::Span slopes_span("core.congen.slopes");
    // A transition whose arc model is already in the memo (from a path
    // step, or from an earlier transition with the same key) builds
    // nothing: its member name joins the slope class that model's bound
    // went to.
    std::vector<netlist::EdgeMap> maps;
    for (const auto& arc : nl.arcs()) {
      if (util::deadline_expired(opt.deadline))
        throw util::TimeoutError(
            "constraint generation deadline exceeded (slopes)");
      netlist::arc_edge_maps(nl, arc, netlist::Phase::kEvaluate, maps);
      // Each distinct output transition gets one slope bound.
      bool done_rise = false, done_fall = false;
      for (const auto& em : maps) {
        if (em.out_rise ? done_rise : done_fall) continue;
        (em.out_rise ? done_rise : done_fall) = true;
        ++slope_bounds;
        const auto it = step_slot.find(step_key(
            arc, em.out_rise, netlist::Phase::kEvaluate, opt.slope_budget_ps));
        auto& slot = (*memo)[it != step_slot.end()
                                 ? it->second
                                 : memo->find_or_build(
                                       arc, em.out_rise,
                                       netlist::Phase::kEvaluate,
                                       opt.slope_budget_ps, false)];
        std::string member;
        member.reserve(nl.net(arc.to).name.size() +
                       nl.net(arc.from).name.size() +
                       nl.comp(arc.comp).name.size() + 17);
        member += "slope_";
        member += nl.net(arc.to).name;
        member += em.out_rise ? "_r" : "_f";
        const size_t tag_len = member.size();
        member += " from ";
        member += nl.net(arc.from).name;
        member += " (";
        member += nl.comp(arc.comp).name;
        member += ')';
        if (slot.slope_class >= 0) {
          gen.static_classes[static_cast<size_t>(slot.slope_class)]
              .members.push_back(std::move(member));
          continue;
        }
        // Path bounds only read the delay, so the slot's output slope
        // moves into the constraint.
        Posynomial out_slope = std::move(slot.posy.out_slope);
        out_slope *= 1.0 / opt.slope_budget_ps;
        std::string tag = member.substr(0, tag_len);
        slot.slope_class = static_cast<int32_t>(
            add_static(std::move(out_slope), std::move(tag), std::move(member)));
      }
    }
  }
  auto& tel = obs::Telemetry::instance();
  if (tel.enabled()) {
    tel.counter_add("core.congen.slope_bounds",
                    static_cast<double>(slope_bounds));
    tel.counter_add("core.congen.arc_models_built",
                    static_cast<double>(memo->size()));
  }
  // The rows compile as they are added: add them once the arc models are
  // freed, so the two never share the heap's peak.
  memo.reset();
  gen.path_constraint.assign(gen.paths.size(), 0);
  for (uint32_t c = 0; c < class_delays.size(); ++c) {
    for (auto& [stage, prefix] : class_delays[c].stage_prefixes)
      add_path_bound(gen, c, stage, std::move(prefix));
    add_path_bound(gen, c, 0, std::move(class_delays[c].total));
  }

  for (size_t c = 0; c < static_bounds.size(); ++c) {
    // A constant bound that holds everywhere is dropped and leaves no
    // origin; one above 1 stays, for GPV104 to reject.
    const size_t index = gen.problem->constraints().size();
    gen.problem->add_constraint(std::move(static_bounds[c].lhs),
                                std::move(static_bounds[c].tag));
    if (gen.problem->constraints().size() == index) continue;
    gen.origins.push_back(
        {ConstraintOrigin::Kind::kStatic, static_cast<uint32_t>(c), 0});
    if (c >= first_slope_class) ++gen.slope_constraints;
  }
  assemble_problem(gen, opt.delay_spec_ps, opt.precharge_spec_ps,
                   opt.output_required_ps, nl);
}

void assemble_problem(GeneratedProblem& gen, double delay_spec_ps,
                      double precharge_spec_ps,
                      const std::vector<double>& output_required_ps,
                      const Netlist& nl) {
  SMART_CHECK(delay_spec_ps > 0.0, "delay spec must be positive");
  const double pre_spec =
      precharge_spec_ps > 0.0 ? precharge_spec_ps : delay_spec_ps;
  SMART_CHECK(output_required_ps.empty() ||
                  output_required_ps.size() == nl.outputs().size(),
              "output required-time list must match the output port count");
  gen.path_specs.resize(gen.paths.size());
  for (size_t pi = 0; pi < gen.paths.size(); ++pi) {
    const timing::Path& path = gen.paths[pi];
    const bool eval = path.phase == netlist::Phase::kEvaluate;
    double spec = eval ? delay_spec_ps : pre_spec;
    for (size_t oi = 0; eval && oi < output_required_ps.size(); ++oi)
      if (output_required_ps[oi] > 0.0 && nl.outputs()[oi].net == path.end())
        spec = output_required_ps[oi];
    gen.path_specs[pi] = spec;
  }

  for (PathClass& cls : gen.path_classes) {
    // Every member's T/s_i <= 1 holds exactly when T/min(s_i) <= 1.
    cls.spec = gen.path_specs[cls.paths.front()];
    for (const size_t pi : cls.paths)
      cls.spec = std::min(cls.spec, gen.path_specs[pi]);
  }
  for (size_t j = 0; j < gen.origins.size(); ++j) {
    const ConstraintOrigin& o = gen.origins[j];
    if (o.kind == ConstraintOrigin::Kind::kStatic) continue;
    gen.problem->set_offset(
        j, -std::log(bound_limit(gen, gen.path_classes[o.cls], o.stage)));
  }
}

std::vector<std::string> constraint_members(const GeneratedProblem& gen,
                                            size_t index) {
  const ConstraintOrigin& origin = gen.origins.at(index);
  if (origin.kind == ConstraintOrigin::Kind::kStatic)
    return gen.static_classes[origin.cls].members;
  std::vector<std::string> out;
  for (const size_t pi : gen.path_classes[origin.cls].paths)
    out.push_back(path_tag(gen, origin.stage, pi));
  return out;
}

double path_model_delay(const GeneratedProblem& gen, size_t path,
                        const util::Vec& x) {
  return gen.problem->constraints()[gen.path_constraint.at(path)].lhs.eval(x);
}

lint::Report verify_generated(const GeneratedProblem& gen,
                              const lint::Options& options,
                              const std::string& name) {
  return gp::verify_problem(
      *gen.problem, options, name, [&gen](size_t index) {
        const auto members = constraint_members(gen, index);
        if (members.size() < 2) return std::string();
        constexpr size_t kShown = 8;
        std::string list;
        for (size_t k = 0; k < members.size() && k < kShown; ++k) {
          if (k > 0) list += ", ";
          list += members[k];
        }
        if (members.size() > kShown)
          list += util::strfmt(", +%zu more", members.size() - kShown);
        return util::strfmt(" (stands for %zu merged constraints: %s)",
                            members.size(), list.c_str());
      });
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
