#include "refsim/critical_path.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/strfmt.h"
#include "util/table.h"

namespace smart::refsim {

using netlist::Arc;
using netlist::EdgeMap;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sizing;

CriticalPath critical_path(const Netlist& nl, const Sizing& sizing,
                           const tech::Tech& tech) {
  const RcTimer timer(tech);
  const auto report = timer.analyze(nl, sizing);
  const auto caps = timer.all_net_caps(nl, sizing);

  // Find the latest-arriving output transition.
  CriticalPath path;
  double worst = -1e300;
  bool worst_rise = false;
  for (const auto& ot : report.outputs) {
    if (ot.arr_rise > worst) {
      worst = ot.arr_rise;
      path.end = ot.net;
      worst_rise = true;
    }
    if (ot.arr_fall > worst) {
      worst = ot.arr_fall;
      path.end = ot.net;
      worst_rise = false;
    }
  }
  SMART_CHECK(path.end >= 0 && worst > -1e299,
              "no output transition to trace");
  path.arrival_ps = worst;

  // Walk backwards: at each net/edge, find the incoming arc transition
  // whose source arrival + edge delay reproduces this arrival.
  NetId net = path.end;
  bool rise = worst_rise;
  std::vector<CriticalStep> reversed;
  std::vector<EdgeMap> maps;
  for (int guard = 0; guard < 10000; ++guard) {
    const auto& nt = report.nets[static_cast<size_t>(net)];
    const double arrival = rise ? nt.arr_rise : nt.arr_fall;
    const Arc* best_arc = nullptr;
    EdgeMap best_map{false, false};
    double best_err = 1e-3;
    EdgeDelay best_ed;
    for (const Arc& a : nl.arcs_into(net)) {
      netlist::arc_edge_maps(nl, a, netlist::Phase::kEvaluate, maps);
      for (const EdgeMap& em : maps) {
        if (em.out_rise != rise) continue;
        const auto& src = report.nets[static_cast<size_t>(a.from)];
        const double t_in = em.in_rise ? src.arr_rise : src.arr_fall;
        if (t_in < -1e299) continue;
        const double s_in = em.in_rise ? src.slope_rise : src.slope_fall;
        const EdgeDelay ed = timer.arc_delay_with_cap(
            nl, sizing, a, em.out_rise, s_in, netlist::Phase::kEvaluate,
            caps[static_cast<size_t>(a.to)]);
        const double err = std::fabs(t_in + ed.delay_ps - arrival);
        if (err < best_err) {
          best_err = err;
          best_arc = &a;
          best_map = em;
          best_ed = ed;
        }
      }
    }
    if (best_arc == nullptr) break;  // reached a primary input / clock
    CriticalStep step;
    step.arc = *best_arc;
    step.in_rise = best_map.in_rise;
    step.out_rise = best_map.out_rise;
    step.arrival_ps = arrival;
    step.delay_ps = best_ed.delay_ps;
    step.slope_ps = best_ed.out_slope_ps;
    step.cap_ff = caps[static_cast<size_t>(best_arc->to)];
    reversed.push_back(step);
    net = best_arc->from;
    rise = best_map.in_rise;
  }
  path.start = net;
  path.start_rise = rise;
  path.steps.assign(reversed.rbegin(), reversed.rend());
  return path;
}

std::string describe_critical_path(const Netlist& nl,
                                   const CriticalPath& path) {
  std::ostringstream out;
  out << util::strfmt("critical path: %s (%s) -> %s, %.1f ps, %zu stages\n",
                      nl.net(path.start).name.c_str(),
                      path.start_rise ? "rise" : "fall",
                      nl.net(path.end).name.c_str(), path.arrival_ps,
                      path.steps.size());
  util::Table table({"through", "to net", "edge", "delay (ps)",
                     "arrival (ps)", "slope (ps)", "load (fF)"});
  for (const auto& s : path.steps) {
    table.add_row({nl.comp(s.arc.comp).name, nl.net(s.arc.to).name,
                   s.out_rise ? "r" : "f",
                   util::strfmt("%.1f", s.delay_ps),
                   util::strfmt("%.1f", s.arrival_ps),
                   util::strfmt("%.1f", s.slope_ps),
                   util::strfmt("%.1f", s.cap_ff)});
  }
  out << table.render();
  return out.str();
}

}  // namespace smart::refsim
