// Tests for the netlist substrate: stack trees, component accounting,
// structural validation, timing arcs and device statistics.

#include <gtest/gtest.h>

#include "netlist/netlist.h"
#include "util/check.h"

namespace smart::netlist {
namespace {

TEST(StackTest, DepthAndCount) {
  const Stack s = Stack::series({Stack::leaf(0, 0),
                                 Stack::parallel({Stack::leaf(1, 1),
                                                  Stack::leaf(2, 1)})});
  EXPECT_EQ(s.device_count(), 3);
  EXPECT_EQ(s.max_depth(), 2);
}

TEST(StackTest, FlattensNestedSameOp) {
  const Stack s = Stack::series(
      {Stack::leaf(0, 0),
       Stack::series({Stack::leaf(1, 0), Stack::leaf(2, 0)})});
  EXPECT_EQ(s.children().size(), 3u);
  EXPECT_EQ(s.max_depth(), 3);
}

TEST(StackTest, SingleChildCollapses) {
  const Stack s = Stack::series({Stack::leaf(3, 1)});
  EXPECT_TRUE(s.is_leaf());
  EXPECT_EQ(s.input(), 3);
}

TEST(StackTest, DualSwapsOps) {
  const Stack s = Stack::series({Stack::leaf(0, 0), Stack::leaf(1, 0)});
  const Stack d = s.dual();
  EXPECT_EQ(d.op(), Stack::Op::kParallel);
  EXPECT_EQ(d.device_count(), 2);
  EXPECT_EQ(d.max_depth(), 1);
  // Dual of dual restores depth.
  EXPECT_EQ(d.dual().max_depth(), s.max_depth());
}

TEST(StackTest, WorstPathThroughSeries) {
  const Stack s = Stack::series({Stack::leaf(0, 10), Stack::leaf(1, 11)});
  std::vector<std::pair<NetId, LabelId>> path;
  ASSERT_TRUE(s.worst_path_through(1, path));
  EXPECT_EQ(path.size(), 2u);  // both series devices conduct
}

TEST(StackTest, WorstPathThroughParallelPicksBranch) {
  const Stack s = Stack::parallel(
      {Stack::leaf(0, 10),
       Stack::series({Stack::leaf(1, 11), Stack::leaf(2, 12)})});
  std::vector<std::pair<NetId, LabelId>> path;
  ASSERT_TRUE(s.worst_path_through(0, path));
  EXPECT_EQ(path.size(), 1u);
  path.clear();
  ASSERT_TRUE(s.worst_path_through(2, path));
  EXPECT_EQ(path.size(), 2u);
  path.clear();
  EXPECT_FALSE(s.worst_path_through(99, path));
}

TEST(StackTest, WorstPathOverall) {
  const Stack s = Stack::parallel(
      {Stack::leaf(0, 1),
       Stack::series({Stack::leaf(1, 2), Stack::leaf(2, 3)})});
  const auto path = s.worst_path();
  EXPECT_EQ(path.size(), 2u);
}

class SmallNetlist : public ::testing::Test {
 protected:
  SmallNetlist() : nl_("small") {
    in_ = nl_.add_net("in");
    mid_ = nl_.add_net("mid");
    out_ = nl_.add_net("out");
    n1_ = nl_.add_label("N1");
    p1_ = nl_.add_label("P1");
    n2_ = nl_.add_label("N2");
    p2_ = nl_.add_label("P2");
    nl_.add_inverter("i1", in_, mid_, n1_, p1_);
    nl_.add_inverter("i2", mid_, out_, n2_, p2_);
    nl_.add_input(in_);
    nl_.add_output(out_, 12.0);
    nl_.finalize();
  }
  Netlist nl_;
  NetId in_, mid_, out_;
  LabelId n1_, p1_, n2_, p2_;
};

TEST_F(SmallNetlist, ArcsAndDrivers) {
  EXPECT_EQ(nl_.arcs().size(), 2u);
  EXPECT_EQ(nl_.drivers_of(mid_).size(), 1u);
  EXPECT_EQ(nl_.arcs_into(out_).size(), 1u);
  EXPECT_EQ(nl_.arcs_from(in_).size(), 1u);
  EXPECT_EQ(nl_.arcs()[0].kind, ArcKind::kStaticData);
}

TEST_F(SmallNetlist, GateWidthAccounting) {
  // Inverter i2's input pin on mid: one NMOS + one PMOS device.
  const LoadView& view = nl_.load_view();
  const auto loads = view.loads_on(mid_);
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[1].comp, 1);
  const auto refs = view.gate_refs(loads[1]);
  ASSERT_EQ(refs.size(), 2u);
  Sizing s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(nl_.resolve_width(refs, s), 3.0 + 4.0);
}

TEST_F(SmallNetlist, DiffusionWidthAccounting) {
  // Driver i1's diffusion on mid: its N and P devices.
  const LoadView& view = nl_.load_view();
  const auto loads = view.loads_on(mid_);
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0].comp, 0);
  Sizing s = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(nl_.resolve_width(view.diffusion_refs(loads[0]), s),
                   1.0 + 2.0);
  // i2 has no diffusion on its own input.
  EXPECT_TRUE(view.diffusion_refs(loads[1]).empty());
}

TEST_F(SmallNetlist, DeviceStats) {
  Sizing s = {1.0, 2.0, 3.0, 4.0};
  const auto stats = nl_.device_stats(s);
  EXPECT_EQ(stats.device_count, 4);
  EXPECT_DOUBLE_EQ(stats.total_width, 10.0);
  EXPECT_DOUBLE_EQ(stats.clock_gate_width, 0.0);
}

TEST_F(SmallNetlist, FixedLabelWidth) {
  Netlist nl("fixed");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const LabelId n = nl.add_label("N"), p = nl.add_label("P");
  nl.fix_label(p, 7.5);
  nl.add_inverter("i", a, b, n, p);
  nl.add_input(a);
  nl.add_output(b);
  nl.finalize();
  Sizing s = {2.0, 999.0};  // fixed label ignores the sizing slot
  EXPECT_DOUBLE_EQ(nl.label_width(p, s), 7.5);
  EXPECT_DOUBLE_EQ(nl.device_stats(s).total_width, 9.5);
}

TEST(NetlistValidation, RejectsDrivenInputPort) {
  Netlist nl("bad");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const LabelId n = nl.add_label("N"), p = nl.add_label("P");
  nl.add_inverter("i", a, b, n, p);
  nl.add_input(b);  // b is driven by the inverter
  nl.add_output(b);
  EXPECT_THROW(nl.finalize(), util::Error);
}

TEST(NetlistValidation, RejectsUndrivenOutputPort) {
  Netlist nl("bad");
  const NetId a = nl.add_net("a");
  nl.add_input(a);
  nl.add_output(nl.add_net("floating"));
  EXPECT_THROW(nl.finalize(), util::Error);
}

TEST(NetlistValidation, RejectsMultipleStaticDrivers) {
  Netlist nl("bad");
  const NetId a = nl.add_net("a"), b = nl.add_net("b"), o = nl.add_net("o");
  const LabelId n = nl.add_label("N"), p = nl.add_label("P");
  nl.add_inverter("i1", a, o, n, p);
  nl.add_inverter("i2", b, o, n, p);
  nl.add_input(a);
  nl.add_input(b);
  nl.add_output(o);
  EXPECT_THROW(nl.finalize(), util::Error);
}

TEST(NetlistValidation, AllowsSharedPassNode) {
  Netlist nl("ok");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const NetId s0 = nl.add_net("s0"), s1 = nl.add_net("s1");
  const NetId o = nl.add_net("o");
  const LabelId l = nl.add_label("N2");
  nl.add_component("t0", o, TransGate{a, s0, l});
  nl.add_component("t1", o, TransGate{b, s1, l});
  nl.add_input(a);
  nl.add_input(b);
  nl.add_input(s0);
  nl.add_input(s1);
  nl.add_output(o);
  EXPECT_NO_THROW(nl.finalize());
  EXPECT_EQ(nl.drivers_of(o).size(), 2u);
}

TEST(NetlistValidation, RejectsCombinationalCycle) {
  Netlist nl("cycle");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const LabelId n = nl.add_label("N"), p = nl.add_label("P");
  nl.add_inverter("i1", a, b, n, p);
  nl.add_inverter("i2", b, a, n, p);
  EXPECT_THROW(nl.finalize(), util::Error);
}

TEST(NetlistValidation, ClockOnlyFeedsDominoClockPins) {
  Netlist nl("badclk");
  const NetId clk = nl.add_net("clk", NetKind::kClock);
  const NetId o = nl.add_net("o");
  const LabelId n = nl.add_label("N"), p = nl.add_label("P");
  nl.add_inverter("i", clk, o, n, p);  // clock into a static gate
  nl.add_output(o);
  EXPECT_THROW(nl.finalize(), util::Error);
}

TEST(NetlistDomino, ArcsIncludePhases) {
  Netlist nl("dom");
  const NetId clk = nl.add_net("clk", NetKind::kClock);
  const NetId d = nl.add_net("d"), dyn = nl.add_net("dyn");
  const LabelId n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
  const LabelId n2 = nl.add_label("N2");
  nl.add_component("g", dyn, DominoGate{Stack::leaf(d, n1), p1, n2, clk, 0.1});
  nl.add_input(d);
  nl.add_output(dyn);
  nl.finalize();
  int eval = 0, clk_eval = 0, pre = 0;
  for (const auto& a : nl.arcs()) {
    if (a.kind == ArcKind::kDominoEval) ++eval;
    if (a.kind == ArcKind::kDominoClkEval) ++clk_eval;
    if (a.kind == ArcKind::kDominoPrecharge) ++pre;
  }
  EXPECT_EQ(eval, 1);
  EXPECT_EQ(clk_eval, 1);
  EXPECT_EQ(pre, 1);
  const Sizing s = {1.0, 2.0, 3.0};
  // keeper (0.1 * precharge) counts toward width; clock gates P1 and N2.
  EXPECT_DOUBLE_EQ(nl.device_stats(s).clock_gate_width, 2.0 + 3.0);
  EXPECT_NEAR(nl.device_stats(s).total_width, 1.0 + 2.0 + 0.2 + 3.0, 1e-12);
}

TEST(NetlistDomino, UnfootedHasNoClkEvalArc) {
  Netlist nl("d2");
  const NetId clk = nl.add_net("clk", NetKind::kClock);
  const NetId d = nl.add_net("d"), dyn = nl.add_net("dyn");
  const LabelId n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
  nl.add_component("g", dyn, DominoGate{Stack::leaf(d, n1), p1, -1, clk, 0.1});
  nl.add_input(d);
  nl.add_output(dyn);
  nl.finalize();
  for (const auto& a : nl.arcs())
    EXPECT_NE(a.kind, ArcKind::kDominoClkEval);
}

TEST(EdgeMaps, StaticInvertsAndDominoMonotonic) {
  std::vector<EdgeMap> maps;
  arc_edge_maps(ArcKind::kStaticData, Phase::kEvaluate, true, maps);
  ASSERT_EQ(maps.size(), 2u);
  EXPECT_NE(maps[0].in_rise, maps[0].out_rise);
  arc_edge_maps(ArcKind::kDominoEval, Phase::kEvaluate, true, maps);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_TRUE(maps[0].in_rise);
  EXPECT_FALSE(maps[0].out_rise);
  // Unfooted stages participate in the precharge ripple; footed do not.
  arc_edge_maps(ArcKind::kDominoEval, Phase::kPrecharge, false, maps);
  EXPECT_EQ(maps.size(), 1u);
  arc_edge_maps(ArcKind::kDominoEval, Phase::kPrecharge, true, maps);
  EXPECT_TRUE(maps.empty());
}

TEST(NetlistMisc, FindAndRename) {
  Netlist nl("x");
  const NetId a = nl.add_net("alpha");
  EXPECT_EQ(nl.find_net("alpha"), a);
  EXPECT_EQ(nl.find_net("beta"), -1);
  nl.rename_net(a, "beta");
  EXPECT_EQ(nl.find_net("beta"), a);
}

TEST(NetlistMisc, ExtraWireCapStored) {
  Netlist nl("w");
  const NetId a = nl.add_net("a");
  EXPECT_DOUBLE_EQ(nl.net(a).extra_wire_ff, 0.0);
  nl.set_extra_wire(a, 42.5);
  EXPECT_DOUBLE_EQ(nl.net(a).extra_wire_ff, 42.5);
}

TEST(NetlistMisc, MinSizing) {
  Netlist nl("m");
  nl.add_label("A", 0.4, 10.0);
  nl.add_label("B", 1.5, 10.0);
  const auto s = nl.min_sizing();
  EXPECT_DOUBLE_EQ(s[0], 0.4);
  EXPECT_DOUBLE_EQ(s[1], 1.5);
}

}  // namespace
}  // namespace smart::netlist
