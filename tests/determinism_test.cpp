// Determinism suite for the parallel pipeline. The par contract is
// bit-exactness: extraction, constraint generation, advisor sweeps, and
// sizing must produce identical results at any thread count (static
// chunking + index-ordered merge, see par.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/constraints.h"
#include "core/database.h"
#include "gp/problem.h"
#include "helpers.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "par/par.h"
#include "tech/tech.h"
#include "timing/paths.h"
#include "util/strfmt.h"

namespace smart {
namespace {

/// Exact textual fingerprint of an extracted path set. %a prints doubles
/// losslessly, so two fingerprints match iff the paths are bit-identical.
std::string fingerprint(const std::vector<timing::Path>& paths) {
  std::string out;
  for (const auto& p : paths) {
    out += util::strfmt("S%d r%d a%a s%a ph%d|", p.start, p.start_rise ? 1 : 0,
                        p.start_arrival, p.start_slope,
                        static_cast<int>(p.phase));
    for (const auto& st : p.steps)
      out += util::strfmt("%d>%d %d%d d%d,%d f%d;", st.arc.from, st.arc.to,
                          st.in_rise ? 1 : 0, st.out_rise ? 1 : 0,
                          st.pin_depth, st.comp_depth, st.fanout);
    out += '\n';
  }
  return out;
}

/// Exact textual fingerprint of a generated GP (tags, term coefficients,
/// factor lists) in constraint order.
std::string fingerprint(const gp::GpProblem& p) {
  std::string out;
  auto posy = [&](const posy::Posynomial& q) {
    for (const auto& t : q.terms()) {
      out += util::strfmt("%a", t.coeff());
      for (const auto& f : t.factors())
        out += util::strfmt(" v%d^%a", f.var, f.exp);
      out += ';';
    }
  };
  posy(p.objective());
  out += '\n';
  for (const auto& c : p.constraints()) {
    out += c.tag;
    out += '=';
    posy(c.lhs);
    out += '\n';
  }
  return out;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { par::set_thread_count(saved_); }
  const int saved_ = par::thread_count();
};

TEST_F(DeterminismTest, ExtractionBitExactAcrossThreadCounts) {
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 16;
  const auto nl =
      macros::builtin_database().find("adder", "domino_cla")->generate(spec);
  par::set_thread_count(1);
  const timing::PathExtractor pe(nl);
  const std::string want = fingerprint(pe.extract());
  ASSERT_FALSE(want.empty());
  for (int threads : {2, 8}) {
    par::set_thread_count(threads);
    EXPECT_EQ(fingerprint(pe.extract()), want) << "threads=" << threads;
  }
}

TEST_F(DeterminismTest, ConstraintGenerationBitExactAcrossThreadCounts) {
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 13;
  const auto nl = macros::builtin_database()
                      .find("incrementor", "ks_prefix")
                      ->generate(spec);
  core::ConstraintOptions opt;
  opt.delay_spec_ps = 400.0;
  par::set_thread_count(1);
  const auto seq = core::generate_problem(nl, opt, models::default_library(),
                                          tech::default_tech());
  ASSERT_NE(seq.problem, nullptr);
  const std::string want = fingerprint(*seq.problem);
  for (int threads : {2, 8}) {
    par::set_thread_count(threads);
    const auto par_gen = core::generate_problem(
        nl, opt, models::default_library(), tech::default_tech());
    ASSERT_NE(par_gen.problem, nullptr);
    EXPECT_EQ(fingerprint(*par_gen.problem), want) << "threads=" << threads;
  }
}

TEST_F(DeterminismTest, AdvisorSweepBitExactAcrossThreadCounts) {
  core::DesignAdvisor advisor{macros::builtin_database(), tech::default_tech(),
                              models::default_library()};
  core::AdvisorRequest req;
  req.spec.type = "mux";
  req.spec.n = 4;
  req.spec.params["bits"] = 4;
  req.spec.load_ff = 12.0;

  par::set_thread_count(1);
  const auto want = advisor.advise(req);
  ASSERT_FALSE(want.solutions.empty()) << want.message;
  for (int threads : {2, 8}) {
    par::set_thread_count(threads);
    const auto got = advisor.advise(req);
    ASSERT_EQ(got.solutions.size(), want.solutions.size());
    for (size_t i = 0; i < want.solutions.size(); ++i) {
      const auto& a = want.solutions[i];
      const auto& b = got.solutions[i];
      EXPECT_EQ(b.topology, a.topology) << "threads=" << threads;
      EXPECT_EQ(b.meets_spec, a.meets_spec);
      EXPECT_EQ(b.cost_value, a.cost_value);  // bit-exact, not approximate
      ASSERT_EQ(b.sizing.sizing.size(), a.sizing.sizing.size());
      for (size_t w = 0; w < a.sizing.sizing.size(); ++w)
        EXPECT_EQ(b.sizing.sizing[w], a.sizing.sizing[w])
            << "label " << w << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace smart
