#include "netlist/spice_export.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"
#include "util/strfmt.h"

namespace smart::netlist {

namespace {

/// SPICE node names may not contain spaces; macro net names are already
/// clean, but be defensive about anything a user netlist might carry.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& ch : out)
    if (ch == ' ' || ch == '\t') ch = '_';
  return out;
}

}  // namespace

std::string to_spice(const Netlist& nl, const Sizing& sizing,
                     const SpiceOptions& options) {
  const FlatNetlist flat = flatten(nl, sizing);
  std::ostringstream out;

  const auto stats = nl.device_stats(sizing);
  out << "* " << nl.name() << " - generated by SMART\n";
  out << util::strfmt("* devices: %zu, total width: %.2f um\n",
                      flat.devices.size(), flat.total_width());
  out << util::strfmt("* clock gate width: %.2f um\n",
                      stats.clock_gate_width);

  // Ports: inputs, outputs, clock nets, then supplies.
  std::vector<int> ports;
  for (const auto& p : nl.inputs()) ports.push_back(static_cast<int>(p.net));
  for (const auto& p : nl.outputs()) ports.push_back(static_cast<int>(p.net));
  for (size_t n = 0; n < nl.net_count(); ++n)
    if (nl.net(static_cast<NetId>(n)).kind == NetKind::kClock)
      ports.push_back(static_cast<int>(n));
  ports.erase(std::unique(ports.begin(), ports.end()), ports.end());

  out << ".subckt " << sanitize(nl.name());
  for (int p : ports)
    out << " " << sanitize(flat.node_names[static_cast<size_t>(p)]);
  out << " vdd! gnd!\n";

  for (const auto& d : flat.devices) {
    // M<name> drain gate source bulk model w=.. l=..
    out << util::strfmt(
        "M%s %s %s %s %s %s w=%.3fu l=%.3fu\n", sanitize(d.name).c_str(),
        sanitize(flat.node_names[static_cast<size_t>(d.drain)]).c_str(),
        sanitize(flat.node_names[static_cast<size_t>(d.gate)]).c_str(),
        sanitize(flat.node_names[static_cast<size_t>(d.source)]).c_str(),
        d.is_pmos ? "vdd!" : "gnd!",
        (d.is_pmos ? options.pmos_model : options.nmos_model).c_str(),
        d.width_um, options.length_um);
  }
  out << ".ends " << sanitize(nl.name()) << "\n";
  return out.str();
}

}  // namespace smart::netlist
