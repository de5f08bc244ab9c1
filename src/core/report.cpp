#include "core/report.h"

#include <map>
#include <sstream>

#include "timing/paths.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace smart::core {

std::string describe_solution(const netlist::Netlist& nl,
                              const SizerResult& result,
                              const tech::Tech& tech) {
  std::ostringstream out;
  out << "macro " << nl.name() << " — " << result.message << "\n";
  out << util::strfmt(
      "  delay %.1f ps, precharge %.1f ps, total width %.1f um, clock "
      "width %.1f um\n",
      result.measured_delay_ps, result.measured_precharge_ps,
      result.total_width_um, result.clock_width_um);
  // The raw count is a property of the netlist; a result that extracted
  // no paths (the baseline rung) reports none.
  const double raw_paths =
      result.path_count > 0
          ? timing::PathExtractor(nl).count_topological_paths()
          : 0.0;
  out << util::strfmt(
      "  %d respec iterations, %zu constraints from %zu paths (raw %.0f)\n",
      result.respec_iterations, result.constraint_count, result.path_count,
      raw_paths);

  if (!result.sizing.empty()) {
    // Device count per label, for width context.
    std::map<netlist::LabelId, int> devices_per_label;
    for (size_t c = 0; c < nl.comp_count(); ++c)
      for (const auto& ref :
           nl.load_view().devices_of(static_cast<netlist::CompId>(c)))
        devices_per_label[ref.label]++;

    util::Table table({"label", "width (um)", "devices", "fixed"});
    for (size_t i = 0; i < nl.label_count(); ++i) {
      const auto id = static_cast<netlist::LabelId>(i);
      const auto& label = nl.label(id);
      table.add_row({label.name,
                     util::strfmt("%.2f", nl.label_width(id, result.sizing)),
                     util::strfmt("%d", devices_per_label[id]),
                     label.fixed ? "yes" : ""});
    }
    out << table.render();
  }

  if (!result.binding_constraints.empty()) {
    out << "  binding:";
    size_t shown = 0;
    for (const auto& tag : result.binding_constraints) {
      if (shown++ == 8) {
        out << util::strfmt(" ... (+%zu more)",
                            result.binding_constraints.size() - 8);
        break;
      }
      out << " " << tag;
    }
    out << "\n";
  }

  power::PowerEstimator estimator(tech);
  if (!result.sizing.empty()) {
    const auto p = estimator.estimate(nl, result.sizing);
    out << util::strfmt("  power %.3f mW (clock %.3f mW) @ %.1f GHz\n",
                        p.total_mw, p.clock_mw, tech.clock_ghz);
  }
  return out.str();
}

}  // namespace smart::core
