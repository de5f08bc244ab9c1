#pragma once

/// \file paths.h
/// Topological path extraction and complexity reduction (paper §5.2).
/// A combinational macro can have an enormous number of pin-to-pin paths
/// (the paper's 64-bit dynamic adder: >32,000). SMART reduces the set used
/// for constraint generation with three techniques:
///   * regularity   — identically-labeled structures produce identical
///                    constraints; one representative path per equivalence
///                    class suffices,
///   * precedence   — input pins of a gate are statically classified
///                    fast/slow (by stack position); fast-pin paths are
///                    dropped when an equivalent slow-pin path exists,
///   * dominance    — among identical nodes driving different fanout, the
///                    heaviest-loaded representative dominates.
/// The extractor computes suffix equivalence classes bottom-up (memoized on
/// (net, edge)), so regularity is exploited *during* extraction rather than
/// after a full enumeration.

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "util/deadline.h"

namespace smart::timing {

/// One arc traversal within a path, with its transition edges and the
/// static pin/fanout attributes used by the pruning passes.
struct PathStep {
  netlist::Arc arc;
  bool in_rise = false;
  bool out_rise = false;
  int pin_depth = 0;   ///< structural depth of the pin in the stack (0 = top)
  int comp_depth = 0;  ///< deepest series stack of the component
  int fanout = 0;      ///< arcs leaving the destination net
};

/// A source-to-sink timing path in one phase.
struct Path {
  netlist::NetId start = -1;
  bool start_rise = false;
  double start_arrival = 0.0;  ///< arrival at the source (from the port)
  double start_slope = -1.0;   ///< input slope (< 0 => technology default)
  netlist::Phase phase = netlist::Phase::kEvaluate;
  std::vector<PathStep> steps;

  netlist::NetId end() const { return steps.back().arc.to; }
  /// Number of domino stages crossed (for per-stage deadlines / OTB).
  int domino_stages() const;
};

struct PruneOptions {
  bool regularity = true;
  bool precedence = true;
  bool dominance = true;
  /// Optional wall-clock budget, polled before each phase, every few dozen
  /// nodes of the suffix-class build and before each pruning stage. Expiry
  /// throws util::TimeoutError, which the sizer maps to
  /// FailureReason::kTimeout. Non-owning; may be nullptr.
  const util::Deadline* deadline = nullptr;
};

/// Problem-size statistics; reproduces the paper's §5.2 numbers.
struct PathStats {
  double raw_topological = 0.0;  ///< DP-counted net paths (no edges)
  double raw_edge_paths = 0.0;   ///< DP-counted edge-annotated paths
  size_t after_regularity = 0;
  size_t after_precedence = 0;
  size_t after_dominance = 0;
  /// Paths actually returned (== last enabled pruning stage).
  size_t final_paths = 0;
};

/// Extracts representative timing paths of a finalized netlist.
class PathExtractor {
 public:
  explicit PathExtractor(const netlist::Netlist& nl) : nl_(&nl) {}

  /// Extracts evaluate- and precharge-phase paths from every primary input
  /// and clock source to every output port, applying the enabled prunes.
  /// The §5.2 statistics are computed only when `stats` is given or
  /// telemetry is on (for its gauges): they cost the two DP counts and a
  /// count-only pass over the unpruned class universe.
  std::vector<Path> extract(const PruneOptions& opt = {},
                            PathStats* stats = nullptr) const;

  /// DP count of source-to-output net paths (the "exhaustive timing
  /// analysis" number), evaluate phase, ignoring transition edges.
  double count_topological_paths() const;

  /// DP count of edge-annotated paths in a phase.
  double count_edge_paths(netlist::Phase phase) const;

 private:
  const netlist::Netlist* nl_;
};

}  // namespace smart::timing
