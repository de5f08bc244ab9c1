// macro_iso_mix: the §6.1 iso-performance protocol behind Table 1, Fig 5,
// Fig 7 and §6.4. One request is one core::run_iso_delay call. A pass
// sends every instance of the pool once, in an order drawn from the seed,
// so each pass does the same work whatever the seed.

#include <cmath>

#include "core/experiment.h"
#include "layers.h"
#include "par/par.h"
#include "util/strfmt.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sc = smart::core;

struct Instance {
  const char* source;  ///< the paper table or figure it comes from
  const char* type;
  const char* topology;
  int n;
  double bits;   ///< mux data width; < 0 = absent
  double load;   ///< fF
  double arity;  ///< zero-detect tree arity; < 0 = absent
  bool power;    ///< cost metric: power (as that bench sizes it) or width
};

/// The instance lists of the paper benches, each with the cost metric its
/// bench uses. Left out, each for taking over 1.5 s at seed (which would
/// make one instance most of a pass): incrementors 39/47/48 bit,
/// decrementor 64 bit, decoder 7:128, the §6.4 13-bit incrementor; and
/// Table 1's split domino 16x16, which also fails at seed.
constexpr Instance kPool[] = {
    {"table1", "mux", "strong_pass", 4, 8, 12, -1, false},
    {"table1", "mux", "strong_pass", 4, 16, 20, -1, false},
    {"table1", "mux", "strong_pass", 8, 8, 12, -1, false},
    {"table1", "mux", "strong_pass", 6, 8, 16, -1, false},
    {"table1", "mux", "encoded2", 2, 8, 12, -1, false},
    {"table1", "mux", "encoded2", 2, 16, 20, -1, false},
    {"table1", "mux", "encoded2", 2, 32, 12, -1, false},
    {"table1", "mux", "tristate", 4, 8, 40, -1, false},
    {"table1", "mux", "tristate", 4, 8, 80, -1, false},
    {"table1", "mux", "tristate", 8, 8, 60, -1, false},
    {"table1", "mux", "domino_unsplit", 4, 8, 12, -1, true},
    {"table1", "mux", "domino_unsplit", 8, 8, 12, -1, true},
    {"table1", "mux", "domino_unsplit", 8, 16, 16, -1, true},
    {"table1", "mux", "domino_split", 8, 8, 12, -1, true},
    {"table1", "mux", "domino_split", 16, 8, 12, -1, true},
    {"fig5a", "incrementor", "ks_prefix", 3, -1, 12, -1, false},
    {"fig5a", "decrementor", "ks_prefix", 3, -1, 12, -1, false},
    {"fig5a", "incrementor", "ks_prefix", 13, -1, 12, -1, false},
    {"fig5a", "incrementor", "ks_prefix", 13, -1, 30, -1, false},
    {"fig5a", "incrementor", "ks_prefix", 27, -1, 12, -1, false},
    {"fig5b", "zero_detect", "static_tree", 6, -1, 12, 4, false},
    {"fig5b", "zero_detect", "static_tree", 8, -1, 12, 4, false},
    {"fig5b", "zero_detect", "static_tree", 8, -1, 30, 2, false},
    {"fig5b", "zero_detect", "static_tree", 16, -1, 12, 4, false},
    {"fig5b", "zero_detect", "static_tree", 16, -1, 30, 2, false},
    {"fig5b", "zero_detect", "static_tree", 22, -1, 12, 4, false},
    {"fig5b", "zero_detect", "static_tree", 32, -1, 12, 4, false},
    {"fig5b", "zero_detect", "static_tree", 63, -1, 12, 4, false},
    {"fig5c", "decoder", "predecode", 3, -1, 10, -1, false},
    {"fig5c", "decoder", "predecode", 3, -1, 25, -1, false},
    {"fig5c", "decoder", "predecode", 4, -1, 10, -1, false},
    {"fig5c", "decoder", "predecode", 4, -1, 18, -1, false},
    {"fig5c", "decoder", "predecode", 4, -1, 30, -1, false},
    {"fig5c", "decoder", "predecode", 6, -1, 10, -1, false},
    {"fig5c", "decoder", "predecode", 6, -1, 20, -1, false},
    {"fig7", "comparator", "xorsum2_nor4", 32, -1, 12, -1, true},
    {"fig7", "comparator", "xorsum1_nor8", 32, -1, 12, -1, true},
    {"fig7", "comparator", "xorsum4_nor4", 32, -1, 12, -1, true},
    {"sec64", "mux", "domino_unsplit", 8, 8, 15, -1, true},
    {"sec64", "mux", "domino_unsplit", 4, 16, 15, -1, true},
    {"sec64", "mux", "domino_unsplit", 8, 16, 15, -1, true},
    {"sec64", "mux", "strong_pass", 4, 16, 15, -1, true},
    {"sec64", "mux", "strong_pass", 4, 32, 15, -1, true},
    {"sec64", "mux", "domino_split", 8, 8, 15, -1, true},
    {"sec64", "mux", "domino_split", 8, 16, 15, -1, true},
    {"sec64", "comparator", "xorsum2_nor4", 32, -1, 15, -1, true},
    {"sec64", "zero_detect", "static_tree", 32, -1, 15, -1, true},
};

std::string describe(const Instance& in) {
  std::string s = smart::util::strfmt("%s %s/%s/%d", in.source, in.type,
                                      in.topology, in.n);
  if (in.bits > 0) s += smart::util::strfmt("x%g", in.bits);
  if (in.arity > 0) s += smart::util::strfmt(" arity %g", in.arity);
  return s + smart::util::strfmt(" load %g fF cost %s", in.load,
                                 in.power ? "power" : "width");
}

sc::CostMetric cost_of(const Instance& in) {
  return in.power ? sc::CostMetric::kPower : sc::CostMetric::kTotalWidth;
}

class MacroIsoMix : public Workload {
 public:
  MacroIsoMix(const RunOptions& opt, Tracer& tracer)
      : opt_(opt), tracer_(tracer) {
    for (size_t i = 0; i < std::size(kPool); ++i) order_.push_back(i);
    Rng rng(opt.seed ^ 0x150ULL);
    rng.shuffle(order_);
  }

  void setup() override {
    env_ = make_env(tracer_);
    netlists_.clear();
    for (const size_t i : order_) {
      const Instance& in = kPool[i];
      sc::MacroSpec spec;
      spec.type = in.type;
      spec.n = in.n;
      spec.load_ff = in.load;
      if (in.bits > 0) spec.params["bits"] = in.bits;
      if (in.arity > 0) spec.params["arity"] = in.arity;
      netlists_.push_back(
          generate(*env_, in.type, in.topology, spec, tracer_));
    }
  }

  void run(double seconds, WorkloadResult& out,
           const std::function<void()>& between_passes) override {
    out.pool_threads = smart::par::thread_count();
    for (const size_t i : order_) out.plan.push_back(describe(kPool[i]));

    // first_[k]: the first pass's comparison for plan entry k.
    first_.clear();
    std::vector<sc::IsoDelayComparison> later;  // passes 2.., in plan order
    double timed_ms = 0.0;
    int64_t id = 0;
    do {
      const auto p0 = Clock::now();
      for (size_t k = 0; k < netlists_.size(); ++k, ++id) {
        sc::IsoDelayOptions iso;
        iso.sizer.cost = cost_of(kPool[order_[k]]);
        const auto r0 = Clock::now();
        sc::IsoDelayComparison cmp;
        {
          Span request(tracer_, "request", id);
          Span call(tracer_, "core.run_iso_delay");
          cmp = sc::run_iso_delay(netlists_[k], *env_->tech, env_->lib, iso);
        }
        out.latencies_ms.push_back(ms_between(r0, Clock::now()));
        (out.passes == 0 ? first_ : later).push_back(std::move(cmp));
      }
      timed_ms += ms_between(p0, Clock::now());
      ++out.passes;
      between_passes();
    } while (more_passes(timed_ms, out.passes, seconds));
    out.timed_wall_s = timed_ms / 1000.0;
    out.attempted = id;
    out.sizings = id;

    // Outside-in checks on the first pass; later passes must repeat it.
    std::vector<bool> good(first_.size());
    int64_t newton = 0, constraints = 0, respec = 0;
    double clock_width = 0.0;
    for (size_t k = 0; k < first_.size(); ++k) {
      const auto& cmp = first_[k];
      good[k] = check(k, cmp, out);
      if (good[k]) ++out.ok;
      out.total_width_um += cmp.smart.total_width_um;
      clock_width += cmp.smart.clock_width_um;
      newton += cmp.smart.gp_newton_iterations;
      constraints += static_cast<int64_t>(cmp.smart.constraint_count);
      respec += cmp.smart.respec_iterations;
    }
    for (size_t j = 0; j < later.size(); ++j) {
      const size_t k = j % first_.size();
      const bool same =
          later[j].smart.total_width_um == first_[k].smart.total_width_um &&
          later[j].smart.gp_newton_iterations ==
              first_[k].smart.gp_newton_iterations;
      if (!same) out.fail(out.plan[k] + ": differs from the first pass");
      if (same && good[k]) ++out.ok;
    }
    out.clock_width_um = clock_width;
    out.deterministic["iso.total_width_um"] = out.total_width_um;
    out.deterministic["iso.clock_width_um"] = clock_width;
    out.deterministic["iso.newton_iters"] = static_cast<double>(newton);
    out.deterministic["iso.constraints"] = static_cast<double>(constraints);
    out.deterministic["iso.respec_iters"] = static_cast<double>(respec);
    out.samples["latency_p50_ms"] = out.latencies_ms.size();
  }

  void replay(WorkloadResult& out) override {
    LayerTally tally;
    for (size_t k = 0; k < netlists_.size(); ++k) {
      const auto& nl = netlists_[k];
      const auto opt =
          iso_options(*env_, nl, cost_of(kPool[order_[k]]), tracer_);
      tally.add(replay_iteration(*env_, nl, opt, tracer_,
                                 static_cast<int64_t>(k)));
      {
        Span span(tracer_, "sizer.size", static_cast<int64_t>(k));
        sc::Sizer(*env_->tech, env_->lib).size(nl, opt);
      }
      tally.add_sizer(first_[k].smart);
    }
    tally.emit(tracer_, out);
    serve_probe(opt_, tracer_, out);
  }

 private:
  /// Passes when run_iso_delay reports a spec-meeting GP design and the
  /// returned sizing re-measures within tolerance of the baseline's
  /// delay and precharge targets.
  bool check(size_t k, const sc::IsoDelayComparison& cmp,
             WorkloadResult& out) const {
    const std::string& what = out.plan[k];
    if (!cmp.ok) {
      out.fail(what + ": not ok (" + cmp.smart.message + ")");
      return false;
    }
    const double delay = cmp.baseline.measured_delay_ps;
    const double pre = cmp.baseline.measured_precharge_ps > 0.0
                           ? std::max(cmp.baseline.measured_precharge_ps, delay)
                           : -1.0;
    std::string why;
    if (!check_sizing(*env_, netlists_[k], cmp.smart.sizing, cmp.smart.rung,
                      delay, pre, &why)) {
      out.fail(what + ": " + why);
      return false;
    }
    return true;
  }

  RunOptions opt_;
  Tracer& tracer_;
  std::vector<size_t> order_;  ///< pool indices in request order
  std::unique_ptr<Env> env_;
  std::vector<smart::netlist::Netlist> netlists_;  ///< in request order
  std::vector<sc::IsoDelayComparison> first_;
};

}  // namespace

std::unique_ptr<Workload> make_macro_iso_mix(const RunOptions& opt,
                                             Tracer& tracer) {
  return std::make_unique<MacroIsoMix>(opt, tracer);
}

}  // namespace perfbench
