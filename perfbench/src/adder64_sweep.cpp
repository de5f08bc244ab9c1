// adder64_sweep: the Fig 6 headline. One request is one
// DesignAdvisor::tradeoff_curve call on adder/domino_cla/64 at 12 fF over
// Fig 6 delay specs around d1 = 1.25 x the baseline delay. The spec set is
// fixed, because sizing time swings by 10x between specs 0.3% apart; the
// seed draws the order in which the curve visits them.

#include <algorithm>
#include <cmath>

#include "core/advisor.h"
#include "core/baseline.h"
#include "layers.h"
#include "par/par.h"
#include "util/strfmt.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sc = smart::core;

/// Fig 6 normalized delays sized by every request. The fast end (0.90 and
/// 0.95 take 21-25 s each at seed) is left out to keep a run near 30 s.
constexpr double kRelSpecs[] = {1.00, 1.10, 1.30};

class Adder64Sweep : public Workload {
 public:
  Adder64Sweep(const RunOptions& opt, Tracer& tracer)
      : opt_(opt), tracer_(tracer) {
    Rng rng(opt.seed ^ 0xadd64ULL);
    for (const double r : kRelSpecs) rel_.push_back(r);
    rng.shuffle(rel_);
  }

  void setup() override {
    env_ = make_env(tracer_);
    sc::MacroSpec spec;
    spec.type = "adder";
    spec.n = 64;
    spec.load_ff = 12.0;
    nl_ = std::make_unique<smart::netlist::Netlist>(
        generate(*env_, "adder", "domino_cla", spec, tracer_));
    // The curve's anchor: baseline-size and measure (the Fig 6 bench gets
    // the same baseline delay from run_iso_delay, at ~40 s more).
    smart::netlist::Sizing base;
    {
      Span span(tracer_, "baseline.size");
      base = sc::BaselineSizer(*env_->tech).size(*nl_);
    }
    const auto m = sc::Sizer(*env_->tech, env_->lib).measure(*nl_, base);
    d1_ = m.measured_delay_ps * 1.25;
    base_opt_ = sc::SizerOptions{};
    base_opt_.precharge_spec_ps = std::max(m.measured_precharge_ps, d1_) * 1.2;
    base_opt_.slope_budget_ps = 240.0;
    specs_.clear();
    for (const double r : rel_) specs_.push_back(r * d1_);
  }

  void run(double seconds, WorkloadResult& out,
           const std::function<void()>& between_passes) override {
    out.pool_threads = smart::par::thread_count();
    std::string plan = "adder/domino_cla/64 load 12 fF, specs x d1:";
    for (const double r : rel_) plan += smart::util::strfmt(" %.2f", r);
    out.plan.push_back(plan + smart::util::strfmt(" (d1 %.3f ps)", d1_));

    // A pass is one request: the whole curve.
    const sc::DesignAdvisor advisor(env_->db, *env_->tech, env_->lib);
    std::vector<std::vector<sc::TradeoffPoint>> curves;
    double timed_ms = 0.0;
    do {
      const int64_t id = static_cast<int64_t>(curves.size());
      const auto r0 = Clock::now();
      {
        Span request(tracer_, "request", id);
        Span call(tracer_, "advisor.tradeoff_curve");
        curves.push_back(advisor.tradeoff_curve(*nl_, specs_, base_opt_));
      }
      out.latencies_ms.push_back(ms_between(r0, Clock::now()));
      timed_ms += out.latencies_ms.back();
      ++out.passes;
      between_passes();
    } while (more_passes(timed_ms, out.passes, seconds));
    out.timed_wall_s = timed_ms / 1000.0;

    out.attempted = static_cast<int64_t>(curves.size());
    for (const auto& curve : curves) {
      out.sizings += static_cast<int64_t>(curve.size());
      if (check_curve(curve, curves.front(), out)) ++out.ok;
    }
    const auto& first = curves.front();
    for (size_t i = 0; i < first.size(); ++i) {
      out.total_width_um += first[i].total_width_um;
      const auto tag = smart::util::strfmt("%.2f", rel_[i]);
      out.deterministic["adder.width_um@" + tag] = first[i].total_width_um;
      out.deterministic["adder.delay_ps@" + tag] = first[i].measured_delay_ps;
    }
    out.deterministic["adder.total_width_um"] = out.total_width_um;
    out.samples["latency_p50_ms"] = out.latencies_ms.size();
  }

  void replay(WorkloadResult& out) override {
    // One request, replayed at its first spec: one respec iteration layer
    // by layer, then the whole Sizer::size the curve runs for that point.
    sc::SizerOptions opt = base_opt_;
    opt.delay_spec_ps = specs_.front();
    opt.allow_relaxed_retry = false;
    opt.allow_baseline_fallback = false;
    LayerTally tally;
    tally.add(replay_iteration(*env_, *nl_, opt, tracer_, 0));
    {
      Span span(tracer_, "sizer.size", 0);
      tally.add_sizer(sc::Sizer(*env_->tech, env_->lib).size(*nl_, opt));
    }
    tally.emit(tracer_, out);
    serve_probe(opt_, tracer_, out);
  }

 private:
  /// A curve passes when every point is feasible, measures within the
  /// sizer's tolerance of its spec, has a finite positive width, width
  /// does not grow as the spec relaxes, and it repeats the first curve.
  bool check_curve(const std::vector<sc::TradeoffPoint>& curve,
                   const std::vector<sc::TradeoffPoint>& first,
                   WorkloadResult& out) const {
    if (curve.size() != specs_.size()) {
      out.fail("adder: curve has the wrong number of points");
      return false;
    }
    std::vector<std::pair<double, double>> by_spec;  // (spec, width)
    for (size_t i = 0; i < curve.size(); ++i) {
      const auto& p = curve[i];
      const auto where = smart::util::strfmt("adder @%.2f: ", rel_[i]);
      if (!p.feasible) {
        out.fail(where + "infeasible");
        return false;
      }
      if (!(p.measured_delay_ps <= p.delay_spec_ps * (1.0 + kConvergeTol))) {
        out.fail(where + "measured delay over spec");
        return false;
      }
      if (!std::isfinite(p.total_width_um) || p.total_width_um <= 0.0) {
        out.fail(where + "bad width");
        return false;
      }
      if (p.total_width_um != first[i].total_width_um) {
        out.fail(where + "width differs from the first pass");
        return false;
      }
      by_spec.emplace_back(p.delay_spec_ps, p.total_width_um);
    }
    std::sort(by_spec.begin(), by_spec.end());
    for (size_t i = 1; i < by_spec.size(); ++i)
      if (by_spec[i].second > by_spec[i - 1].second * (1.0 + 1e-9)) {
        out.fail("adder: width grows as the spec relaxes");
        return false;
      }
    return true;
  }

  RunOptions opt_;
  Tracer& tracer_;
  std::vector<double> rel_;  ///< Fig 6 normalized specs in request order
  std::unique_ptr<Env> env_;
  std::unique_ptr<smart::netlist::Netlist> nl_;
  double d1_ = 0.0;
  sc::SizerOptions base_opt_;
  std::vector<double> specs_;
};

}  // namespace

std::unique_ptr<Workload> make_adder64_sweep(const RunOptions& opt,
                                             Tracer& tracer) {
  return std::make_unique<Adder64Sweep>(opt, tracer);
}

}  // namespace perfbench
