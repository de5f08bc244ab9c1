// Topology selection map: which mux implementation the advisor recommends
// across the (fan-in, load) plane, for area and for power. This is the
// advisory value proposition in one table — the paper's §4 guidance
// ("tri-state … when the load to be driven is very large", split domino
// "better … when the size of the mux is large") should emerge from the
// optimizer rather than be hard-coded.

#include "common.h"

#include "core/advisor.h"

using namespace smart;

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  core::DesignAdvisor advisor(bench::database(), bench::tech(),
                              bench::library());
  const std::vector<int> fanins = {2, 4, 8, 16};
  const std::vector<double> loads = {8.0, 40.0, 160.0};

  // An aggressive site: 30% faster than the hand-sized pass-gate mux would
  // naturally run. Feasibility, not just cost, now differentiates the
  // topologies (the paper's selection guidance is about exactly these
  // pressured sites).
  for (const auto cost : {core::CostMetric::kTotalWidth,
                          core::CostMetric::kPower}) {
    util::Table table({"fan-in \\ load", "8 fF", "40 fF", "160 fF"});
    for (int n : fanins) {
      std::vector<std::string> row = {util::strfmt("%d:1", n)};
      for (double load : loads) {
        core::AdvisorRequest request;
        request.spec.type = "mux";
        request.spec.n = n;
        request.spec.params["bits"] = 8;
        request.spec.load_ff = load;
        request.cost = cost;
        // Derive the pressured spec from the first topology's baseline.
        const auto probe = advisor.advise(request);
        request.delay_spec_ps = probe.derived_delay_spec_ps * 0.70;
        const auto advice = advisor.advise(request);
        const auto* best = advice.best();
        row.push_back(best != nullptr && best->meets_spec ? best->topology
                                                          : "(none)");
      }
      table.add_row(row);
    }
    std::printf("%s", table.render(util::strfmt(
        "Mux topology recommended by the advisor (%s cost, 8-bit datapath, "
        "spec = 0.70x hand-design delay)",
        cost == core::CostMetric::kTotalWidth ? "area" : "power")).c_str());
    std::printf("\n");
  }
  bench::paper_note(
      "The paper's selection guidance emerges from optimization rather than "
      "rules: at relaxed specs the pass-gate mux wins everywhere (lightest "
      "structure); under the 30% speed-up pressure shown here the dynamic "
      "topologies take over — \"CPU designers heavily employ pass, dynamic "
      "logic in order to meet performance goals\" (§1) — and the "
      "partitioned domino replaces the un-split mux as fan-in grows, "
      "exactly the §4 Fig 2(f) recommendation. Cells marked (none) are "
      "infeasible for every topology at that spec.");
  return 0;
}
