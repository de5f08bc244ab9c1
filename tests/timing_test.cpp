// Tests for path extraction and the three §5.2 pruning techniques:
// correct counts on hand-built netlists, safety of the Pareto domination
// rule, phase classification, and the adder problem-size reduction.

#include <gtest/gtest.h>

#include "helpers.h"
#include "timing/paths.h"

namespace smart::timing {
namespace {

using netlist::LabelId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Stack;
using netlist::StaticGate;

TEST(PathExtractorTest, ChainHasRiseAndFallPaths) {
  const auto nl = test::inverter_chain(3);
  PathExtractor ex(nl);
  PathStats stats;
  const auto paths = ex.extract({}, &stats);
  // One topological path, two transition polarities.
  EXPECT_DOUBLE_EQ(stats.raw_topological, 1.0);
  EXPECT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.steps.size(), 3u);
    EXPECT_EQ(p.phase, netlist::Phase::kEvaluate);
    EXPECT_EQ(p.end(), nl.find_net("n2"));
  }
}

TEST(PathExtractorTest, CountsTopologicalPathsOnDiamond) {
  // in -> two parallel inverters -> NAND2 -> out: 2 topological paths.
  Netlist nl("diamond");
  const NetId in = nl.add_net("in");
  const NetId a = nl.add_net("a"), b = nl.add_net("b"), o = nl.add_net("o");
  const LabelId n1 = nl.add_label("NA"), p1 = nl.add_label("PA");
  const LabelId n2 = nl.add_label("NB"), p2 = nl.add_label("PB");
  const LabelId n3 = nl.add_label("NC"), p3 = nl.add_label("PC");
  nl.add_inverter("ia", in, a, n1, p1);
  nl.add_inverter("ib", in, b, n2, p2);
  nl.add_component("g", o,
                   StaticGate{Stack::series({Stack::leaf(a, n3),
                                             Stack::leaf(b, n3)}),
                              p3});
  nl.add_input(in);
  nl.add_output(o);
  nl.finalize();
  PathExtractor ex(nl);
  EXPECT_DOUBLE_EQ(ex.count_topological_paths(), 2.0);
  PathStats stats;
  const auto paths = ex.extract({}, &stats);
  // The branches use different labels, so regularity cannot merge them:
  // 2 routes x 2 polarities.
  EXPECT_EQ(stats.after_regularity, 4u);
  EXPECT_EQ(paths.size(), 4u);
}

TEST(PathExtractorTest, RegularityMergesIdenticalSlices) {
  // Same diamond but both branches share labels -> the two routes are one
  // equivalence class per polarity... except pin depth distinguishes the
  // NAND pins, which precedence then collapses.
  Netlist nl("diamond_reg");
  const NetId in = nl.add_net("in");
  const NetId a = nl.add_net("a"), b = nl.add_net("b"), o = nl.add_net("o");
  const LabelId n1 = nl.add_label("NA"), p1 = nl.add_label("PA");
  const LabelId n3 = nl.add_label("NC"), p3 = nl.add_label("PC");
  nl.add_inverter("ia", in, a, n1, p1);
  nl.add_inverter("ib", in, b, n1, p1);
  nl.add_component("g", o,
                   StaticGate{Stack::series({Stack::leaf(a, n3),
                                             Stack::leaf(b, n3)}),
                              p3});
  nl.add_input(in);
  nl.add_output(o);
  nl.finalize();
  PathExtractor ex(nl);
  PathStats stats;
  PruneOptions opt;
  const auto paths = ex.extract(opt, &stats);
  EXPECT_EQ(stats.after_regularity, 4u);   // pin depths differ
  EXPECT_EQ(stats.after_precedence, 2u);   // collapsed to worst pin
  EXPECT_EQ(paths.size(), 2u);
  // The representative keeps the deeper pin.
  for (const auto& p : paths) EXPECT_EQ(p.steps.back().pin_depth, 1);
}

TEST(PathExtractorTest, DisablingRegularityKeepsIdentities) {
  Netlist nl("diamond_reg2");
  const NetId in = nl.add_net("in");
  const NetId a = nl.add_net("a"), b = nl.add_net("b"), o = nl.add_net("o");
  const LabelId n1 = nl.add_label("NA"), p1 = nl.add_label("PA");
  const LabelId n3 = nl.add_label("NC"), p3 = nl.add_label("PC");
  nl.add_inverter("ia", in, a, n1, p1);
  nl.add_inverter("ib", in, b, n1, p1);
  nl.add_component("g", o,
                   StaticGate{Stack::series({Stack::leaf(a, n3),
                                             Stack::leaf(b, n3)}),
                              p3});
  nl.add_input(in);
  nl.add_output(o);
  nl.finalize();
  PathExtractor ex(nl);
  PruneOptions opt;
  opt.regularity = false;
  opt.precedence = false;
  opt.dominance = false;
  PathStats stats;
  const auto paths = ex.extract(opt, &stats);
  EXPECT_EQ(paths.size(), 4u);  // every identity distinct
}

TEST(PathExtractorTest, DominanceKeepsHeaviestFanout) {
  // One inverter drives a heavy fanout (three identical loads), another
  // identical inverter drives one: dominance keeps the heavy one.
  Netlist nl("fanout");
  const NetId in1 = nl.add_net("in1"), in2 = nl.add_net("in2");
  const NetId a = nl.add_net("a"), b = nl.add_net("b");
  const LabelId n1 = nl.add_label("N1"), p1 = nl.add_label("P1");
  const LabelId nl2 = nl.add_label("N2"), pl2 = nl.add_label("P2");
  nl.add_inverter("heavy", in1, a, n1, p1);
  nl.add_inverter("light", in2, b, n1, p1);
  // Loads on a: three identical inverters; on b: one.
  const NetId o1 = nl.add_net("o1"), o2 = nl.add_net("o2");
  const NetId o3 = nl.add_net("o3"), o4 = nl.add_net("o4");
  nl.add_inverter("l1", a, o1, nl2, pl2);
  nl.add_inverter("l2", a, o2, nl2, pl2);
  nl.add_inverter("l3", a, o3, nl2, pl2);
  nl.add_inverter("l4", b, o4, nl2, pl2);
  nl.add_input(in1);
  nl.add_input(in2);
  for (NetId o : {o1, o2, o3, o4}) nl.add_output(o, 10.0);
  nl.finalize();
  PathExtractor ex(nl);
  PathStats stats;
  const auto paths = ex.extract({}, &stats);
  EXPECT_EQ(stats.after_dominance, 2u);  // 2 polarities, one class each
  for (const auto& p : paths) EXPECT_EQ(p.steps.front().fanout, 3);
}

TEST(PathExtractorTest, DominoPathsClassifiedByPhase) {
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  spec.params["bits"] = 1;
  const auto nl = test::generate("mux", "domino_unsplit", spec);
  PathExtractor ex(nl);
  const auto paths = ex.extract({});
  bool saw_eval = false, saw_pre = false;
  for (const auto& p : paths) {
    if (p.phase == netlist::Phase::kEvaluate) saw_eval = true;
    if (p.phase == netlist::Phase::kPrecharge) saw_pre = true;
    if (p.phase == netlist::Phase::kEvaluate) {
      EXPECT_GE(p.domino_stages(), 1);
    }
  }
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(saw_pre);
}

TEST(PathExtractorTest, EdgePathCountAtLeastTopological) {
  core::MacroSpec spec;
  spec.type = "incrementor";
  spec.n = 8;
  const auto nl = test::generate("incrementor", "ks_prefix", spec);
  PathExtractor ex(nl);
  const double topo = ex.count_topological_paths();
  const double edges = ex.count_edge_paths(netlist::Phase::kEvaluate);
  EXPECT_GT(topo, 8.0);
  EXPECT_GE(edges, topo);  // two polarities per topological path (static)
}

TEST(PathExtractorTest, PruningStagesMonotoneNonIncreasing) {
  for (const char* type : {"incrementor", "decoder", "zero_detect"}) {
    core::MacroSpec spec;
    spec.type = type;
    spec.n = std::string(type) == "decoder" ? 4 : 13;
    const char* topo = std::string(type) == "decoder"
                           ? "predecode"
                           : (std::string(type) == "incrementor"
                                  ? "ks_prefix"
                                  : "static_tree");
    const auto nl = test::generate(type, topo, spec);
    PathExtractor ex(nl);
    PathStats stats;
    ex.extract({}, &stats);
    EXPECT_GE(stats.after_regularity, stats.after_precedence) << type;
    EXPECT_GE(stats.after_precedence, stats.after_dominance) << type;
    EXPECT_GE(stats.raw_edge_paths,
              static_cast<double>(stats.after_regularity))
        << type;
  }
}

TEST(PathExtractorTest, AdderProblemSizeReduction) {
  // The §5.2 experiment at a reduced width to keep the test fast: the
  // pruned constraint set must be orders of magnitude below the raw count.
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 32;
  const auto nl = test::generate("adder", "domino_cla", spec);
  PathExtractor ex(nl);
  PathStats stats;
  const auto paths = ex.extract({}, &stats);
  EXPECT_GT(stats.raw_topological, 10000.0);
  EXPECT_LT(static_cast<double>(paths.size()),
            stats.raw_topological / 50.0);
}

TEST(PathExtractorTest, Sec52CountsOnTheDominoAdderArePinned) {
  // The §5.2 table on the domino adder, per prune setting: every stage
  // count is pinned, so a refactor of extraction cannot move one unseen.
  struct Row {
    int bits;
    bool regularity, precedence, dominance;
    double raw_topological, raw_edge;
    size_t after_regularity, after_precedence, after_dominance;
  };
  const Row rows[] = {
      {32, true, true, true, 36512, 28566, 6886, 1405, 273},
      {32, true, false, true, 36512, 28566, 6886, 6886, 5980},
      {32, true, true, false, 36512, 28566, 6886, 1405, 1405},
      {32, false, true, true, 36512, 28566, 28566, 28566, 28566},
      {64, true, true, true, 154748, 121126, 31066, 3293, 273},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(testing::Message()
                 << row.bits << " bits, regularity " << row.regularity
                 << ", precedence " << row.precedence << ", dominance "
                 << row.dominance);
    core::MacroSpec spec;
    spec.type = "adder";
    spec.n = row.bits;
    const auto nl = test::generate("adder", "domino_cla", spec);
    PruneOptions opt;
    opt.regularity = row.regularity;
    opt.precedence = row.precedence;
    opt.dominance = row.dominance;
    PathStats stats;
    const auto paths = PathExtractor(nl).extract(opt, &stats);
    EXPECT_EQ(stats.raw_topological, row.raw_topological);
    EXPECT_EQ(stats.raw_edge_paths, row.raw_edge);
    EXPECT_EQ(stats.after_regularity, row.after_regularity);
    EXPECT_EQ(stats.after_precedence, row.after_precedence);
    EXPECT_EQ(stats.after_dominance, row.after_dominance);
    EXPECT_EQ(stats.final_paths, row.after_dominance);
    EXPECT_EQ(paths.size(), row.after_dominance);
  }
}

TEST(PathExtractorTest, RegularityCountIsThePathCountWithoutTheOtherPrunes) {
  // after_regularity counts the unpruned class universe, which node-level
  // precedence pruning never stores: it must equal the path count of an
  // extraction with precedence and dominance off.
  struct Case {
    const char* type;
    const char* topology;
    int n;
    int bits;
  };
  const Case cases[] = {{"adder", "domino_cla", 32, 0},
                        {"incrementor", "ks_prefix", 13, 0},
                        {"incrementor", "ks_prefix", 27, 0},
                        {"mux", "domino_split", 16, 0},
                        {"mux", "strong_pass", 8, 8},
                        {"zero_detect", "static_tree", 16, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.type << "/" << c.topology << "/"
                                    << c.n);
    core::MacroSpec spec;
    spec.type = c.type;
    spec.n = c.n;
    if (c.bits > 0) spec.params["bits"] = c.bits;
    const auto nl = test::generate(c.type, c.topology, spec);
    PathExtractor ex(nl);
    PathStats stats;
    ex.extract({}, &stats);
    PruneOptions regularity_only;
    regularity_only.precedence = false;
    regularity_only.dominance = false;
    EXPECT_EQ(stats.after_regularity, ex.extract(regularity_only).size());
  }
}

TEST(PathExtractorTest, RepresentativesEndAtOutputs) {
  core::MacroSpec spec;
  spec.type = "comparator";
  spec.n = 16;
  const auto nl = test::generate("comparator", "xorsum2_nor4", spec);
  std::vector<bool> is_out(nl.net_count(), false);
  for (const auto& p : nl.outputs()) is_out[static_cast<size_t>(p.net)] = true;
  PathExtractor ex(nl);
  for (const auto& p : ex.extract({})) {
    EXPECT_TRUE(is_out[static_cast<size_t>(p.end())]);
    EXPECT_FALSE(p.steps.empty());
  }
}

TEST(PathExtractorTest, ExpiredDeadlineThrowsTimeout) {
  core::MacroSpec spec;
  spec.type = "adder";
  spec.n = 16;
  const auto nl = test::generate("adder", "domino_cla", spec);
  const util::Deadline expired = util::Deadline::from_ms(0);
  PruneOptions opt;
  opt.deadline = &expired;
  PathExtractor ex(nl);
  EXPECT_THROW(ex.extract(opt), util::TimeoutError);
}

}  // namespace
}  // namespace smart::timing
