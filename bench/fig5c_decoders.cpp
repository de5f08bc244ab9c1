// Figure 5(c): normalized total transistor width, original vs SMART, for
// the paper's decoder instances (3:8 x2, 4:16 x3, 6:64 x2, 7:128).

#include "common.h"

using namespace smart;

int main(int argc, char** argv) {
  bench::MetricsExport metrics(argc, argv);
  struct Row {
    const char* name;
    int n;
    double load;
  };
  const std::vector<Row> rows = {
      {"3to8", 3, 10.0},  {"3to8", 3, 25.0},  {"4to16", 4, 10.0},
      {"4to16", 4, 18.0}, {"4to16", 4, 30.0}, {"6to64", 6, 10.0},
      {"6to64", 6, 20.0}, {"7to128", 7, 10.0},
  };

  util::Table table({"circuit", "original", "SMART", "width saving",
                     "delay orig (ps)", "delay SMART (ps)"});
  for (const auto& row : rows) {
    core::MacroSpec spec;
    spec.type = "decoder";
    spec.n = row.n;
    spec.load_ff = row.load;
    const auto nl = bench::generate("decoder", "predecode", spec);
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
      "Figure 5(c) - Decoders: normalized total transistor width "
      "(original = 1.0), iso-delay").c_str());
  bench::paper_note(
      "Fig 5(c) shows SMART bars around 0.5-0.9 of the original across "
      "3:8 .. 7:128 decoders.");
  return 0;
}
