#pragma once

/// \file netlist.h
/// Transistor-level macro schematic as stored in the SMART design database
/// (paper §4): components built from series/parallel device networks whose
/// widths are *size labels* — shared optimization variables expressing the
/// layout regularity a designer plans into the schematic. Supports the
/// circuit families the paper's macros use: static CMOS, pass-gate,
/// tri-state, and domino (footed D1 / unfooted D2).
///
/// A netlist is built, then finalize()d, after which its structure is
/// fixed. Readers that need its load structure (which widths load which
/// net, the device path of an arc) read the compiled LoadView of
/// load_view.h, which the netlist builds once on first use; label widths,
/// route capacitance and port loads stay editable and are read live.

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "netlist/load_view.h"
#include "netlist/stack.h"

namespace smart::netlist {

using CompId = int;

enum class NetKind { kSignal, kClock };

struct Net {
  std::string name;
  NetKind kind = NetKind::kSignal;
  /// Extra route capacitance on this net beyond the default local-wire
  /// estimate (fF) — how an instantiation site models a long interconnect
  /// (paper Fig 2(d): tri-states win "when the input signals travel over
  /// long inter-connects").
  double extra_wire_ff = 0.0;
};

/// A shared transistor width variable. Several devices labeled identically
/// are forced to the same width (regularity, paper §4/§5.2). A designer can
/// lock a label to a fixed width (paper §2: manual control for noise).
struct SizeLabel {
  std::string name;
  double w_min = 0.3;
  double w_max = 200.0;
  bool fixed = false;
  double fixed_width = 0.0;
};

/// Width assignment, indexed by LabelId (um).
using Sizing = std::vector<double>;

// ---------- component kinds ----------

/// Static CMOS gate: NMOS pull-down network (leaf labels are per-leaf NMOS
/// labels), pull-up is the structural dual with all PMOS sharing pmos_label.
struct StaticGate {
  Stack pulldown;
  LabelId pmos_label = -1;
};

/// CMOS transmission gate with a local select inverter (paper Fig 2(a)-(c)):
/// NMOS and PMOS pass devices share one label ("both devices of the same
/// size"); the select inverter is a fixed relation of that label.
struct TransGate {
  NetId data = -1;
  NetId sel = -1;
  LabelId label = -1;
  /// Width of the internal select inverter relative to the pass label.
  static constexpr double kLocalInvRatio = 0.5;
};

/// Tri-state inverter (paper Fig 2(d)): data drives the inner pair, enable
/// gates the outer pair; the enable complement comes from an internal
/// inverter at a fixed relation of the device labels.
struct Tristate {
  NetId data = -1;
  NetId en = -1;
  LabelId nmos_label = -1;  ///< N1: both NMOS devices
  LabelId pmos_label = -1;  ///< P1: both PMOS devices
  static constexpr double kLocalInvRatio = 0.5;
};

/// Domino dynamic node (paper Fig 2(e)-(f)): precharge PMOS (P1), NMOS
/// data/select network, optional clocked evaluate foot (N2; absent => D2
/// unfooted stage), plus a weak keeper. The high-skew output inverter is a
/// separate StaticGate reading the dynamic node.
struct DominoGate {
  Stack pulldown;
  LabelId precharge_label = -1;
  LabelId evaluate_label = -1;  ///< -1 => unfooted (D2)
  NetId clk = -1;
  double keeper_ratio = 0.1;  ///< keeper PMOS width / precharge width
};

/// One schematic element driving a single output net.
struct Component {
  std::string name;
  NetId out = -1;
  std::variant<StaticGate, TransGate, Tristate, DominoGate> impl;

  const StaticGate* as_static() const { return std::get_if<StaticGate>(&impl); }
  const TransGate* as_transgate() const { return std::get_if<TransGate>(&impl); }
  const Tristate* as_tristate() const { return std::get_if<Tristate>(&impl); }
  const DominoGate* as_domino() const { return std::get_if<DominoGate>(&impl); }
};

// ---------- ports ----------

struct InputPort {
  NetId net = -1;
  double arrival_ps = 0.0;  ///< signal arrival at the macro boundary
  double slope_ps = -1.0;   ///< input slope; < 0 => technology default
};

struct OutputPort {
  NetId net = -1;
  double load_ff = 10.0;  ///< external load the macro must drive
};

// ---------- timing arcs ----------

/// Classification of a pin-to-output arc; drives how many and which timing
/// constraints are generated (paper §5.3).
enum class ArcKind {
  kStaticData,      ///< static gate input -> inverted output
  kPassData,        ///< pass gate data -> output (non-inverting)
  kPassControl,     ///< pass gate select -> output (4 constraints)
  kTristateData,    ///< tri-state data -> inverted output
  kTristateEnable,  ///< tri-state enable -> output
  kDominoEval,      ///< domino data -> dynamic node (evaluate, falls)
  kDominoClkEval,   ///< clock -> dynamic node via evaluate foot
  kDominoPrecharge  ///< clock -> dynamic node (precharge, rises)
};

struct Arc {
  NetId from = -1;
  NetId to = -1;
  CompId comp = -1;
  ArcKind kind = ArcKind::kStaticData;
  int index = -1;  ///< position in Netlist::arcs()
};

/// Operating phase of the circuit: normal evaluation vs domino precharge.
enum class Phase { kEvaluate, kPrecharge };

/// One active transition pair on an arc: input edge -> output edge.
struct EdgeMap {
  bool in_rise;
  bool out_rise;
};

/// Active transitions for an arc kind in a phase (paper §5.3): static arcs
/// invert, pass data arcs do not, control turn-on enables both output
/// transitions (two paths, four constraints), domino evaluates fall and, in
/// the precharge phase, unfooted (D2) stages wait for their inputs to reset.
void arc_edge_maps(ArcKind kind, Phase phase, bool domino_footed,
                   std::vector<EdgeMap>& out);

// ---------- the netlist ----------

/// Aggregate device statistics at a given sizing.
struct DeviceStats {
  int device_count = 0;
  double total_width = 0.0;       ///< sum of all device widths (um)
  double clock_gate_width = 0.0;  ///< width gated by clock nets (um)
};

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- nets ---
  NetId add_net(const std::string& name, NetKind kind = NetKind::kSignal);
  size_t net_count() const { return nets_.size(); }
  const Net& net(NetId id) const { return nets_.at(static_cast<size_t>(id)); }
  /// Finds a net by name; -1 if absent.
  NetId find_net(const std::string& name) const;
  /// Renames a net (e.g. to give a macro's output port a stable name).
  void rename_net(NetId id, const std::string& name) {
    nets_.at(static_cast<size_t>(id)).name = name;
  }
  /// Adds route capacitance to a net (long interconnect at this site).
  void set_extra_wire(NetId id, double extra_ff) {
    nets_.at(static_cast<size_t>(id)).extra_wire_ff = extra_ff;
  }

  // --- size labels ---
  LabelId add_label(const std::string& name, double w_min = 0.3,
                    double w_max = 200.0);
  void fix_label(LabelId id, double width);
  size_t label_count() const { return labels_.size(); }
  const SizeLabel& label(LabelId id) const {
    return labels_.at(static_cast<size_t>(id));
  }
  const std::vector<SizeLabel>& labels() const { return labels_; }

  // --- components ---
  CompId add_component(std::string name, NetId out,
                       std::variant<StaticGate, TransGate, Tristate,
                                    DominoGate> impl);
  /// Convenience: inverter (single-leaf static gate).
  CompId add_inverter(const std::string& name, NetId in, NetId out,
                      LabelId nmos, LabelId pmos);
  size_t comp_count() const { return comps_.size(); }
  const Component& comp(CompId id) const {
    return comps_.at(static_cast<size_t>(id));
  }
  const std::vector<Component>& comps() const { return comps_; }

  // --- ports ---
  void add_input(NetId net, double arrival_ps = 0.0, double slope_ps = -1.0);
  void add_output(NetId net, double load_ff = 10.0);
  const std::vector<InputPort>& inputs() const { return inputs_; }
  const std::vector<OutputPort>& outputs() const { return outputs_; }
  std::vector<InputPort>& mutable_inputs() { return inputs_; }
  std::vector<OutputPort>& mutable_outputs() { return outputs_; }

  // --- structure queries (valid after finalize()) ---
  /// Checks structural rules, builds net indexes and the arc list.
  /// Must be called after construction and before the queries below.
  void finalize();
  bool finalized() const { return finalized_; }
  const std::vector<CompId>& drivers_of(NetId net) const;
  const std::vector<Arc>& arcs() const;
  /// Arcs grouped by destination net.
  const std::vector<Arc>& arcs_into(NetId net) const;
  /// Arcs grouped by source net.
  const std::vector<Arc>& arcs_from(NetId net) const;

  // --- accounting ---
  /// The compiled load structure (load_view.h): which labels load which
  /// net, every arc transition's device path, the topological order. Built
  /// on the first call after finalize(), once even when threads race to
  /// it, and shared by copies of this netlist (its structure cannot change
  /// after finalize()).
  const LoadView& load_view() const;

  DeviceStats device_stats(const Sizing& sizing) const;

  /// Resolves a width reference list to a numeric width (um), summing the
  /// references in order from 0.0.
  double resolve_width(std::span<const WidthRef> refs,
                       const Sizing& sizing) const;
  /// Width of one label under a sizing, honoring fixed labels.
  double label_width(LabelId id, const Sizing& sizing) const;

  /// A sizing with every label at its minimum width.
  Sizing min_sizing() const;

 private:
  void build_arcs();
  void validate() const;

  std::string name_;
  std::vector<Net> nets_;
  std::vector<SizeLabel> labels_;
  std::vector<Component> comps_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;

  bool finalized_ = false;
  std::vector<std::vector<CompId>> drivers_;   // by net
  std::vector<Arc> arcs_;
  std::vector<std::vector<Arc>> arcs_into_;    // by net
  std::vector<std::vector<Arc>> arcs_from_;    // by net

  /// Holder of the lazily built load view. Copying it shares the built
  /// view (never the lock); readers after the first take no lock. Moves
  /// are noexcept so that containers move netlists instead of copying.
  class ViewSlot {
   public:
    ViewSlot() = default;
    ViewSlot(const ViewSlot& other) : view_(other.shared()) {
      ready_.store(view_.get());
    }
    ViewSlot(ViewSlot&& other) noexcept : view_(std::move(other.view_)) {
      ready_.store(view_.get());
      other.ready_.store(nullptr);
    }
    ViewSlot& operator=(const ViewSlot& other);
    ViewSlot& operator=(ViewSlot&& other) noexcept;
    const LoadView& get(const Netlist& nl) const;

   private:
    std::shared_ptr<const LoadView> shared() const;

    mutable std::mutex mu_;
    mutable std::shared_ptr<const LoadView> view_;
    mutable std::atomic<const LoadView*> ready_{nullptr};
  };
  ViewSlot view_;
};

/// arc_edge_maps for an arc of `nl`: a domino arc is footed iff its gate
/// has an evaluate (foot) device.
void arc_edge_maps(const Netlist& nl, const Arc& arc, Phase phase,
                   std::vector<EdgeMap>& out);

}  // namespace smart::netlist
