#pragma once

/// \file block.h
/// Synthetic functional blocks for the paper's block-level experiments
/// (§6.4 and Table 2). A block is a set of datapath macro instances plus
/// random static ("control") logic, mixed to a target transistor count and
/// macro share. SMART is applied to the macros only — the §6.4 protocol —
/// and savings are reported at block level. See DESIGN.md for why this
/// substitutes for the paper's proprietary microprocessor blocks: the
/// block-level numbers are driven by the macro content fraction, which the
/// builder controls.

#include <string>
#include <vector>

#include "core/database.h"
#include "core/experiment.h"
#include "netlist/netlist.h"
#include "util/rng.h"

namespace smart::blocks {

/// One macro instantiation request inside a block.
struct MacroRequest {
  std::string type;
  std::string topology;
  core::MacroSpec spec;
};

struct BlockSpec {
  std::string name = "block";
  std::vector<MacroRequest> macros;
  /// Devices of random static logic to add around the macros.
  int filler_devices = 1000;
  uint64_t seed = 1;
};

/// A built block: generated macro netlists plus the filler netlist.
struct Block {
  std::string name;
  std::vector<netlist::Netlist> macros;
  netlist::Netlist filler{"filler"};
};

/// Generates random static logic (NAND/NOR/INV layers) with roughly the
/// requested device count. Every gate gets its own labels — control logic
/// has none of the datapath's regularity.
netlist::Netlist random_logic(const std::string& name, int target_devices,
                              util::Rng& rng);

/// Builds a block from a spec using a macro database.
Block build_block(const BlockSpec& spec, const core::MacroDatabase& db);

/// Aggregate block metrics at a given per-piece sizing.
struct BlockReport {
  int devices = 0;
  double total_width_um = 0.0;
  double macro_width_um = 0.0;   ///< portion in macros
  double total_power_mw = 0.0;
  double macro_power_mw = 0.0;
  double worst_macro_delay_ps = 0.0;
};

/// Result of applying SMART to the macros of a baseline-sized block.
struct BlockExperiment {
  BlockReport before;  ///< everything baseline-sized
  BlockReport after;   ///< macros SMART-sized at iso-delay, filler untouched
  int macros_converged = 0;
  int macros_total = 0;

  double width_saving() const {
    return 1.0 - after.total_width_um / before.total_width_um;
  }
  double power_saving() const {
    return 1.0 - after.total_power_mw / before.total_power_mw;
  }
};

/// Runs the §6.4 protocol on a block: baseline-size everything, then
/// replace each macro with its SMART iso-delay solution.
BlockExperiment run_block_experiment(const Block& block,
                                     const tech::Tech& tech,
                                     const models::ModelLibrary& lib,
                                     const core::IsoDelayOptions& opt = {});

/// A realistic execution-unit bypass slice composed from database macros
/// at the transistor level, flattened into one netlist so it sizes as one
/// GP: an encoded 2:1 operand mux, `bits` wide, feeds operand A of a static
/// CLA adder whose sum drives a static zero-detect. Operand B, cin and the
/// select are primary inputs; the sum bits and cout (12 fF) and the zero
/// flag (8 fF) are outputs.
netlist::Netlist bypass_slice(const core::MacroDatabase& db, int bits);

}  // namespace smart::blocks
