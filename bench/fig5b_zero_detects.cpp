// Figure 5(b): normalized total transistor width, original vs SMART, for
// the paper's zero-detect instances (6, 8, 8, 16, 16, 22, 32, 63 bit).

#include "common.h"

using namespace smart;

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  struct Row {
    const char* name;
    int bits;
    double load;
    int arity;
  };
  // The duplicated widths in the paper are distinct design instances; we
  // vary loading and tree arity the way different instantiation sites do.
  const std::vector<Row> rows = {
      {"6bit", 6, 12.0, 4},  {"8bit", 8, 12.0, 4},  {"8bit", 8, 30.0, 2},
      {"16bit", 16, 12.0, 4}, {"16bit", 16, 30.0, 2}, {"22bit", 22, 12.0, 4},
      {"32bit", 32, 12.0, 4}, {"63bit", 63, 12.0, 4},
  };

  util::Table table({"circuit", "original", "SMART", "width saving",
                     "delay orig (ps)", "delay SMART (ps)"});
  for (const auto& row : rows) {
    core::MacroSpec spec;
    spec.type = "zero_detect";
    spec.n = row.bits;
    spec.load_ff = row.load;
    spec.params["arity"] = row.arity;
    const auto nl = bench::generate("zero_detect", "static_tree", spec);
    const auto cmp = bench::iso(nl);
    if (!cmp.ok) {
      table.add_row({row.name, "1.00", "n/a", cmp.smart.message, "", ""});
      continue;
    }
    table.add_row({row.name, "1.00",
                   bench::num(cmp.smart.total_width_um /
                              cmp.baseline.total_width_um),
                   bench::pct(cmp.width_saving()),
                   bench::num(cmp.baseline.measured_delay_ps, 1),
                   bench::num(cmp.smart.measured_delay_ps, 1)});
  }
  std::printf("%s", table.render(
      "Figure 5(b) - Zero detects: normalized total transistor width "
      "(original = 1.0), iso-delay").c_str());
  bench::paper_note(
      "Fig 5(b) shows SMART bars around 0.5-0.9 of the original across "
      "6..63-bit zero-detects.");
  return 0;
}
