#pragma once

/// \file spice_export.h
/// SPICE subcircuit export of a sized macro — the hand-off format between
/// a macro generator and the rest of a custom design flow (schematic
/// import, extraction, simulation). Devices come from the flattener; the
/// technology supplies the drawn channel length.

#include <string>

#include "netlist/flatten.h"

namespace smart::netlist {

struct SpiceOptions {
  double length_um = 0.18;      ///< drawn channel length
  std::string nmos_model = "nch";
  std::string pmos_model = "pch";
};

/// Renders a sized macro as a .subckt (ports = macro inputs, outputs and
/// clock, plus vdd!/gnd!) under a comment header with device/width
/// statistics.
std::string to_spice(const Netlist& nl, const Sizing& sizing,
                     const SpiceOptions& options = {});

}  // namespace smart::netlist
