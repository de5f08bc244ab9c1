#include "refsim/slack.h"

#include <algorithm>
#include <limits>
#include <ranges>

#include "util/check.h"

namespace smart::refsim {

using netlist::Arc;
using netlist::EdgeMap;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sizing;

SlackReport compute_slack(const Netlist& nl, const Sizing& sizing,
                          const tech::Tech& tech, double required_ps,
                          const std::vector<double>& per_output) {
  SMART_CHECK(nl.finalized(), "netlist must be finalized");
  SMART_CHECK(per_output.empty() || per_output.size() == nl.outputs().size(),
              "per-output deadline list must match the output port count");
  const RcTimer timer(tech);
  const auto report = timer.analyze(nl, sizing);
  const auto caps = timer.all_net_caps(nl, sizing);
  const size_t n_nets = nl.net_count();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Required times per (net, edge), initialized at the output ports.
  std::vector<double> req_rise(n_nets, kInf), req_fall(n_nets, kInf);
  for (size_t oi = 0; oi < nl.outputs().size(); ++oi) {
    const auto net = static_cast<size_t>(nl.outputs()[oi].net);
    double deadline = required_ps;
    if (!per_output.empty() && per_output[oi] > 0.0)
      deadline = per_output[oi];
    req_rise[net] = std::min(req_rise[net], deadline);
    req_fall[net] = std::min(req_fall[net], deadline);
  }

  std::vector<EdgeMap> maps;
  // Reverse topological order of nets.
  for (const NetId n : std::views::reverse(nl.load_view().topo_order())) {
    for (const Arc& a : nl.arcs_from(n)) {
      netlist::arc_edge_maps(nl, a, netlist::Phase::kEvaluate, maps);
      for (const EdgeMap& em : maps) {
        const double req_out = em.out_rise
                                   ? req_rise[static_cast<size_t>(a.to)]
                                   : req_fall[static_cast<size_t>(a.to)];
        if (req_out == kInf) continue;
        const auto& src = report.nets[static_cast<size_t>(a.from)];
        const double s_in = em.in_rise ? src.slope_rise : src.slope_fall;
        const auto ed = timer.arc_delay_with_cap(
            nl, sizing, a, em.out_rise, s_in, netlist::Phase::kEvaluate,
            caps[static_cast<size_t>(a.to)]);
        double& req_in = em.in_rise ? req_rise[static_cast<size_t>(a.from)]
                                    : req_fall[static_cast<size_t>(a.from)];
        req_in = std::min(req_in, req_out - ed.delay_ps);
      }
    }
  }

  SlackReport slack;
  slack.slack_rise.assign(n_nets, kInf);
  slack.slack_fall.assign(n_nets, kInf);
  slack.worst_slack = kInf;
  for (size_t n = 0; n < n_nets; ++n) {
    const auto& nt = report.nets[n];
    if (nt.arr_rise > -1e299 && req_rise[n] < kInf)
      slack.slack_rise[n] = req_rise[n] - nt.arr_rise;
    if (nt.arr_fall > -1e299 && req_fall[n] < kInf)
      slack.slack_fall[n] = req_fall[n] - nt.arr_fall;
    for (bool rise : {true, false}) {
      const double s = rise ? slack.slack_rise[n] : slack.slack_fall[n];
      if (s < slack.worst_slack) {
        slack.worst_slack = s;
        slack.worst_net = static_cast<NetId>(n);
        slack.worst_is_rise = rise;
      }
    }
  }
  if (slack.worst_slack == kInf) slack.worst_slack = 0.0;
  return slack;
}

}  // namespace smart::refsim
