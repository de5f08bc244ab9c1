// Tests for the compiled load view (netlist/load_view.h): every reader of a
// netlist's load structure — the reference timer, the baseline sizer, the
// power estimator, the sizer's pin caps, device statistics and the
// posynomial cap and cost models — must produce the same bits as the
// per-call transistor-stack walks it replaced. The golden digests below
// were computed by those stack walks; each covers every value one reader
// produces on one sized instance.

#include <gtest/gtest.h>

#include <barrier>
#include <cinttypes>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/baseline.h"
#include "core/constraints.h"
#include "core/sizer.h"
#include "helpers.h"
#include "macros/registry.h"
#include "models/arc_model.h"
#include "models/fitter.h"
#include "power/power.h"
#include "refsim/rc_timer.h"
#include "util/rng.h"

namespace smart::netlist {
namespace {

/// FNV-1a over the bit patterns of the values fed to it.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void add_bits(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) {
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    add_bits(b);
  }
  void add(int64_t v) { add_bits(static_cast<uint64_t>(v)); }
  void add(const posy::Posynomial& p) {
    add(static_cast<int64_t>(p.num_terms()));
    for (const auto& m : p.terms()) {
      add(m.coeff());
      for (const auto& f : m.factors()) {
        add(static_cast<int64_t>(f.var));
        add(f.exp);
      }
    }
  }
};

/// One digest per reader of the load structure, at one sizing.
struct Readings {
  uint64_t caps = 0;       ///< all_net_caps, then net_cap of every net
  uint64_t pins = 0;       ///< Sizer::input_caps
  uint64_t stats = 0;      ///< device_stats
  uint64_t posy = 0;       ///< net_cap_posy_all, net_cap_posy, cost_posy
  uint64_t arcs = 0;       ///< arc_delay and arc_rc_path of every transition
  uint64_t sta = 0;        ///< analyze and PowerEstimator::estimate
  uint64_t baseline = 0;   ///< BaselineSizer::size (sizing-independent)
  double max_cap = 0.0;    ///< largest all_net_caps entry
  double total_width = 0.0;
  double worst_delay = 0.0;

  bool operator==(const Readings&) const = default;
};

Readings read(const Netlist& nl, const Sizing& sizing) {
  const auto& tech = tech::default_tech();
  const refsim::RcTimer timer(tech);
  Readings r;

  Digest caps;
  const auto all = timer.all_net_caps(nl, sizing);
  for (double c : all) {
    caps.add(c);
    r.max_cap = std::max(r.max_cap, c);
  }
  for (size_t n = 0; n < nl.net_count(); ++n)
    caps.add(timer.net_cap(nl, sizing, static_cast<NetId>(n)));
  r.caps = caps.h;

  Digest pins;
  const core::Sizer sizer(tech, models::default_library());
  for (double c : sizer.input_caps(nl, sizing)) pins.add(c);
  r.pins = pins.h;

  Digest stats;
  const DeviceStats ds = nl.device_stats(sizing);
  stats.add(static_cast<int64_t>(ds.device_count));
  stats.add(ds.total_width);
  stats.add(ds.clock_gate_width);
  r.stats = stats.h;
  r.total_width = ds.total_width;

  Digest posy;
  posy::VarTable vars;
  const auto labels = models::make_label_vars(nl, vars);
  for (const auto& p : models::net_cap_posy_all(nl, labels, tech)) posy.add(p);
  for (size_t n = 0; n < nl.net_count(); ++n)
    posy.add(models::net_cap_posy(nl, static_cast<NetId>(n), labels, tech));
  for (const auto cost : {core::CostMetric::kTotalWidth,
                          core::CostMetric::kPower,
                          core::CostMetric::kClockLoad})
    posy.add(core::cost_posy(nl, cost, labels, {}, tech));
  r.posy = posy.h;

  Digest arcs;
  std::vector<EdgeMap> maps;
  std::vector<models::RcDevice> path;
  for (const Arc& a : nl.arcs()) {
    for (const Phase phase : {Phase::kEvaluate, Phase::kPrecharge}) {
      arc_edge_maps(nl, a, phase, maps);
      for (const EdgeMap& em : maps) {
        const auto ed = timer.arc_delay(nl, sizing, a, em.out_rise,
                                        em.in_rise ? 30.0 : 45.0, phase);
        arcs.add(ed.delay_ps);
        arcs.add(ed.out_slope_ps);
        models::arc_rc_path(nl, a, em.out_rise, tech, path, phase);
        for (const auto& d : path) {
          arcs.add(d.r);
          arcs.add(static_cast<int64_t>(d.label));
        }
      }
    }
  }
  r.arcs = arcs.h;

  Digest sta;
  const auto rep = timer.analyze(nl, sizing);
  for (const auto& nt : rep.nets) {
    sta.add(nt.arr_rise);
    sta.add(nt.arr_fall);
    sta.add(nt.slope_rise);
    sta.add(nt.slope_fall);
  }
  sta.add(rep.worst_delay);
  sta.add(rep.worst_output_slope);
  sta.add(rep.max_internal_slope);
  sta.add(rep.worst_precharge);
  const auto pw = power::PowerEstimator(tech).estimate(nl, sizing);
  sta.add(pw.total_mw);
  sta.add(pw.clock_mw);
  sta.add(pw.switched_cap_ff);
  sta.add(pw.clock_cap_ff);
  r.sta = sta.h;
  r.worst_delay = rep.worst_delay;

  Digest base;
  for (double w : core::BaselineSizer(tech).size(nl)) base.add(w);
  r.baseline = base.h;
  return r;
}

/// A seeded sizing inside every label's bounds (fixed labels keep theirs).
Sizing random_sizing(const Netlist& nl) {
  util::Rng rng(0x10ad);
  Sizing s(nl.label_count());
  for (size_t i = 0; i < s.size(); ++i) {
    const auto& l = nl.label(static_cast<LabelId>(i));
    s[i] = rng.uniform(l.w_min, std::min(l.w_max, 40.0));
  }
  return s;
}

struct Instance {
  std::string name;  ///< type/topology/n
  std::string topology;
  core::MacroSpec spec;
};

/// Every registry topology at n in {4, 8, 16}; muxes at 8 bits.
std::vector<Instance> registry_instances() {
  const auto& db = macros::builtin_database();
  std::vector<Instance> out;
  for (const auto& type : db.macro_types()) {
    for (const int n : {4, 8, 16}) {
      core::MacroSpec spec;
      spec.type = type;
      spec.n = n;
      if (type == "mux") spec.params["bits"] = 8;
      for (const auto* e : db.topologies(type, &spec))
        out.push_back(
            {type + "/" + e->name + "/" + std::to_string(n), e->name, spec});
    }
  }
  return out;
}

Netlist generate(const Instance& inst) {
  return test::generate(inst.spec.type, inst.topology, inst.spec);
}

std::string describe(const Readings& r) {
  return util::strfmt(
      "{0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
      ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", %a, %a, %a}",
      r.caps, r.pins, r.stats, r.posy, r.arcs, r.sta, r.baseline, r.max_cap,
      r.total_width, r.worst_delay);
}

struct Golden {
  const char* name;
  Readings baseline;  ///< at BaselineSizer's sizing
  Readings random;    ///< at random_sizing
};

// Computed by the per-call stack walks the view replaced, at their last
// revision; printed by describe().
const Golden kGolden[] = {
#include "load_view_golden.inc"
};

TEST(CompiledLoadViewTest, EveryRegistryInstanceReadsTheGoldenBits) {
  const auto instances = registry_instances();
  EXPECT_EQ(instances.size(), std::size(kGolden));
  std::string table;
  for (size_t i = 0; i < instances.size(); ++i) {
    const Netlist nl = generate(instances[i]);
    const Readings at_base =
        read(nl, core::BaselineSizer(tech::default_tech()).size(nl));
    const Readings at_rand = read(nl, random_sizing(nl));
    table += "{\"" + instances[i].name + "\", " + describe(at_base) + ", " +
             describe(at_rand) + "},\n";
    if (i >= std::size(kGolden)) continue;
    EXPECT_EQ(instances[i].name, kGolden[i].name);
    EXPECT_TRUE(at_base == kGolden[i].baseline)
        << instances[i].name << " at the baseline sizing: "
        << describe(at_base) << " want " << describe(kGolden[i].baseline);
    EXPECT_TRUE(at_rand == kGolden[i].random)
        << instances[i].name << " at the random sizing: "
        << describe(at_rand) << " want " << describe(kGolden[i].random);
  }
  if (HasFailure()) std::fputs(table.c_str(), stdout);
}

Instance mux8() {
  Instance inst{"mux/strong_pass/8", "strong_pass", {}};
  inst.spec.type = "mux";
  inst.spec.n = 8;
  inst.spec.params["bits"] = 8;
  return inst;
}

Instance adder16() {
  Instance inst{"adder/domino_cla/16", "domino_cla", {}};
  inst.spec.type = "adder";
  inst.spec.n = 16;
  return inst;
}

TEST(CompiledLoadViewTest, ExtraWireSetAfterFirstUseIsSeen) {
  for (const auto& inst : {mux8(), adder16()}) {
    Netlist used = generate(inst);
    const Sizing s = core::BaselineSizer(tech::default_tech()).size(used);
    const Readings before = read(used, s);
    const refsim::RcTimer timer(tech::default_tech());
    const NetId out = used.outputs().front().net;
    const double cap_before = timer.net_cap(used, s, out);
    Netlist fresh = generate(inst);
    for (const auto& port : used.outputs()) {
      used.set_extra_wire(port.net, 7.5);
      fresh.set_extra_wire(port.net, 7.5);
    }
    const Readings after = read(used, s);
    EXPECT_TRUE(after == read(fresh, s)) << inst.name;
    EXPECT_GT(after.worst_delay, before.worst_delay) << inst.name;
    EXPECT_GT(timer.net_cap(used, s, out), cap_before) << inst.name;
  }
}

TEST(CompiledLoadViewTest, OutputLoadChangedAfterFirstUseIsSeen) {
  for (const auto& inst : {mux8(), adder16()}) {
    Netlist used = generate(inst);
    const Sizing s = core::BaselineSizer(tech::default_tech()).size(used);
    const Readings before = read(used, s);
    const refsim::RcTimer timer(tech::default_tech());
    const auto out = static_cast<size_t>(used.outputs().front().net);
    const double cap_before = timer.all_net_caps(used, s)[out];
    for (auto& port : used.mutable_outputs()) port.load_ff *= 3.0;
    Netlist fresh = generate(inst);
    for (auto& port : fresh.mutable_outputs()) port.load_ff *= 3.0;
    const Readings after = read(used, s);
    EXPECT_TRUE(after == read(fresh, s)) << inst.name;
    EXPECT_GT(after.worst_delay, before.worst_delay) << inst.name;
    EXPECT_GT(timer.all_net_caps(used, s)[out], cap_before) << inst.name;
  }
}

TEST(CompiledLoadViewTest, CopiesReadLikeTheirOriginal) {
  for (const auto& inst : {mux8(), adder16()}) {
    const Netlist original = generate(inst);
    const Sizing s = random_sizing(original);
    const Netlist before_use = original;  // copied before any reader ran
    const Readings want = read(original, s);
    Netlist after_use = original;  // copied after every reader ran
    EXPECT_TRUE(read(before_use, s) == want) << inst.name;
    EXPECT_TRUE(read(after_use, s) == want) << inst.name;
    // A copy's later edits stay its own.
    after_use.set_extra_wire(after_use.outputs().front().net, 4.0);
    EXPECT_FALSE(read(after_use, s) == want) << inst.name;
    EXPECT_TRUE(read(original, s) == want) << inst.name;
  }
}

TEST(CompiledLoadViewTest, ConcurrentFirstUseGivesIdenticalCaps) {
  // Eight threads make the first use of one netlist at the same time, the
  // way an advisor sweep's workers share a candidate netlist.
  const Instance inst = adder16();
  const Netlist reference = generate(inst);
  const Sizing s = random_sizing(reference);
  const refsim::RcTimer timer(tech::default_tech());
  const auto want = timer.all_net_caps(reference, s);
  const auto want_delay = timer.analyze(reference, s).worst_delay;

  const Netlist shared = generate(inst);
  constexpr int kThreads = 8;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<double> got_delay(kThreads, 0.0);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      got[static_cast<size_t>(i)] = timer.all_net_caps(shared, s);
      got_delay[static_cast<size_t>(i)] = timer.analyze(shared, s).worst_delay;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], want) << "thread " << i;
    EXPECT_EQ(got_delay[static_cast<size_t>(i)], want_delay) << "thread " << i;
  }
}

}  // namespace
}  // namespace smart::netlist
