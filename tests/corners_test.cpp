// Tests for process-corner support: technology shifts, sweep measurement,
// and the sign-off property that slow-corner sizing holds everywhere.

#include <gtest/gtest.h>

#include "core/corners.h"
#include "core/experiment.h"
#include "helpers.h"
#include "models/fitter.h"

namespace smart::core {
namespace {

TEST(CornerTest, TechnologyShiftsMonotone) {
  const auto& typ = tech::default_tech();
  const auto slow = typ.at_corner(tech::Corner::kSlow);
  const auto fast = typ.at_corner(tech::Corner::kFast);
  EXPECT_GT(slow.r_nmos, typ.r_nmos);
  EXPECT_GT(slow.c_gate, typ.c_gate);
  EXPECT_LT(fast.r_pmos, typ.r_pmos);
  EXPECT_LT(fast.c_diff, typ.c_diff);
  // Typical corner is the identity.
  EXPECT_DOUBLE_EQ(typ.at_corner(tech::Corner::kTypical).r_nmos, typ.r_nmos);
}

TEST(CornerTest, SweepOrdersDelays) {
  const auto nl = test::inverter_chain(3, 20.0);
  const netlist::Sizing sizing(nl.label_count(), 2.0);
  const auto sweep = measure_corners(nl, sizing, tech::default_tech());
  EXPECT_LT(sweep.fast.delay_ps, sweep.typical.delay_ps);
  EXPECT_LT(sweep.typical.delay_ps, sweep.slow.delay_ps);
  EXPECT_DOUBLE_EQ(sweep.worst_delay_ps(), sweep.slow.delay_ps);
}

TEST(CornerTest, MeetsChecksEveryCorner) {
  const auto nl = test::inverter_chain(2, 15.0);
  const netlist::Sizing sizing(nl.label_count(), 2.0);
  const auto sweep = measure_corners(nl, sizing, tech::default_tech());
  EXPECT_TRUE(sweep.meets(sweep.slow.delay_ps + 1.0));
  EXPECT_FALSE(sweep.meets(sweep.typical.delay_ps));  // slow corner misses
}

TEST(CornerTest, SlowCornerSizingSignsOffEverywhere) {
  // The sign-off flow: size at the slow corner, verify at all corners.
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 4;
  const auto nl = test::generate("decoder", "predecode", spec);

  const auto& base = tech::default_tech();
  const auto slow = base.at_corner(tech::Corner::kSlow);
  const auto slow_lib = models::calibrate(slow);
  Sizer sizer(slow, slow_lib);
  SizerOptions opt;
  opt.delay_spec_ps = 160.0;
  const auto r = sizer.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  ASSERT_TRUE(r.converged()) << r.message;

  const auto sweep = measure_corners(nl, r.sizing, base);
  EXPECT_TRUE(sweep.meets(160.0 * 1.03))
      << "slow " << sweep.slow.delay_ps << " typ " << sweep.typical.delay_ps;
}

TEST(CornerTest, TypicalSizingCanMissSlowCorner) {
  // The converse property that motivates corner-aware sign-off: a design
  // sized exactly to spec at typical silicon overshoots when slow.
  core::MacroSpec spec;
  spec.type = "decoder";
  spec.n = 4;
  const auto nl = test::generate("decoder", "predecode", spec);
  Sizer sizer(tech::default_tech(), models::default_library());
  SizerOptions opt;
  opt.delay_spec_ps = 160.0;
  const auto r = sizer.size(nl, opt);
  ASSERT_TRUE(r.ok) << r.message;
  const auto sweep = measure_corners(nl, r.sizing, tech::default_tech());
  EXPECT_GT(sweep.slow.delay_ps, 160.0);
}

}  // namespace
}  // namespace smart::core
