#pragma once

/// \file load_view.h
/// The compiled load structure of a finalized netlist: which size labels
/// load which net, the series device path of every arc transition, and the
/// net topological order. All of it is fixed once Netlist::finalize() has
/// run, so a netlist compiles it once, on the first call of
/// Netlist::load_view(), and every reader of load structure (the reference
/// timer, the baseline sizer, the power estimator, the sizer's pin caps,
/// device statistics and the posynomial cap and cost models) reads these
/// flat tables instead of re-walking transistor stacks on every call.
///
/// The view holds structure only. What can change after finalize() is read
/// live from the netlist by each reader: label widths and fixed labels,
/// route capacitance (set_extra_wire) and port loads (mutable_outputs).

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/stack.h"

namespace smart::netlist {

class Netlist;
struct Arc;
enum class Phase;
using CompId = int;

/// Scaled reference to a size label: width = scale * sizing[label].
struct WidthRef {
  LabelId label = -1;
  double scale = 1.0;
};

/// Resistance class of a device on a conduction path: an NMOS or PMOS
/// device, or a CMOS pass gate (N and P in parallel, sharing one label).
enum class DeviceKind : uint8_t { kNmos, kPmos, kPass };

/// One device of a series conduction path.
struct PathDevice {
  LabelId label = -1;
  DeviceKind kind = DeviceKind::kNmos;
};

class LoadView {
 public:
  /// Compiles the view of a finalized netlist.
  explicit LoadView(const Netlist& nl);

  /// The devices one component hangs on one net: gate references
  /// refs[gate, diff), then diffusion references refs[diff, end).
  struct Load {
    CompId comp = -1;
    uint32_t gate = 0;
    uint32_t diff = 0;
    uint32_t end = 0;
  };

  /// One Load per component touching net `n` (its output, its inputs and
  /// its clock), in ascending component order. A net nothing touches has
  /// none.
  std::span<const Load> loads_on(NetId n) const {
    const auto i = static_cast<size_t>(n);
    return {loads_.data() + net_begin_[i], net_begin_[i + 1] - net_begin_[i]};
  }
  std::span<const WidthRef> gate_refs(const Load& l) const {
    return {refs_.data() + l.gate, l.diff - l.gate};
  }
  std::span<const WidthRef> diffusion_refs(const Load& l) const {
    return {refs_.data() + l.diff, l.end - l.diff};
  }

  /// Every device of component `c`, for area and power accounting.
  std::span<const WidthRef> devices_of(CompId c) const {
    const auto i = static_cast<size_t>(c);
    return {devices_.data() + device_begin_[i],
            device_begin_[i + 1] - device_begin_[i]};
  }
  /// Size labels of the pull-down leaves of a static or domino gate, in
  /// stack (DFS) order; empty for pass gates and tri-states.
  std::span<const LabelId> leaves_of(CompId c) const {
    const auto i = static_cast<size_t>(c);
    return {leaves_.data() + leaf_begin_[i],
            leaf_begin_[i + 1] - leaf_begin_[i]};
  }
  /// Longest series chain of a static or domino gate's pull-down network
  /// (0 for other kinds).
  int pulldown_depth(CompId c) const {
    return depths_[static_cast<size_t>(c)].first;
  }
  /// Longest series chain of a static gate's pull-up, the dual of its
  /// pull-down (0 for other kinds).
  int pullup_depth(CompId c) const {
    return depths_[static_cast<size_t>(c)].second;
  }

  /// The series path one transition of `arc` charges or discharges its
  /// output through, output side first: the pull-up or pull-down path
  /// through the arc's pin for static gates, the pass device, the tri-state
  /// 2-stack, and for domino gates the evaluate path (plus the foot) or,
  /// in precharge, the precharge device. `arc` must come from this
  /// netlist's arcs().
  std::span<const PathDevice> arc_path(const Arc& arc, bool out_rising,
                                       Phase phase) const;

  /// Nets in topological order over the arcs (Kahn's algorithm, sources in
  /// net order).
  const std::vector<NetId>& topo_order() const { return topo_; }
  bool has_domino() const { return has_domino_; }

 private:
  std::vector<uint32_t> net_begin_;  // by net, + 1
  std::vector<Load> loads_;
  std::vector<WidthRef> refs_;
  std::vector<uint32_t> device_begin_;  // by component, + 1
  std::vector<WidthRef> devices_;
  std::vector<uint32_t> leaf_begin_;  // by component, + 1
  std::vector<LabelId> leaves_;
  std::vector<std::pair<int, int>> depths_;  // by component
  /// Arc a's path for slot s (0: falling / evaluate, 1: rising /
  /// precharge) is path_[path_begin_[2a + s], path_begin_[2a + s + 1]).
  std::vector<uint32_t> path_begin_;
  std::vector<PathDevice> path_;
  std::vector<NetId> topo_;
  bool has_domino_ = false;
};

}  // namespace smart::netlist
