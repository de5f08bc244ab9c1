#pragma once

/// \file helpers.h
/// Shared test fixtures and utilities for the SMART test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/database.h"
#include "gp/solver.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "netlist/netlist.h"
#include "refsim/logic_sim.h"
#include "util/strfmt.h"

namespace smart::test {

/// Builds a chain of `n` inverters (in -> out) with one label pair per
/// stage; a convenient tiny macro for sizer/refsim tests.
inline netlist::Netlist inverter_chain(int n, double load_ff = 20.0) {
  netlist::Netlist nl(util::strfmt("chain%d", n));
  netlist::NetId prev = nl.add_net("in");
  nl.add_input(prev);
  for (int i = 0; i < n; ++i) {
    const auto nn = nl.add_label(util::strfmt("N%d", i));
    const auto pp = nl.add_label(util::strfmt("P%d", i));
    const netlist::NetId next = nl.add_net(util::strfmt("n%d", i));
    nl.add_inverter(util::strfmt("inv%d", i), prev, next, nn, pp);
    prev = next;
  }
  nl.add_output(prev, load_ff);
  nl.finalize();
  return nl;
}

/// A generated macro plus its logic simulator.
struct SimMacro {
  netlist::Netlist nl;
  refsim::LogicSim sim;

  explicit SimMacro(netlist::Netlist n)
      : nl(std::move(n)), sim(nl) {}
};

inline netlist::Netlist generate(const std::string& type,
                                 const std::string& topo,
                                 core::MacroSpec spec) {
  const auto* entry = macros::builtin_database().find(type, topo);
  if (entry == nullptr)
    throw std::runtime_error("unknown topology " + type + "/" + topo);
  return entry->generate(spec);
}

/// Sets a named input in a logic-sim input map; fails the test on a bad
/// name via exception.
inline void set_input(const netlist::Netlist& nl,
                      std::map<netlist::NetId, bool>& in,
                      const std::string& name, bool value) {
  const netlist::NetId id = nl.find_net(name);
  if (id < 0) throw std::runtime_error("no net named " + name);
  in[id] = value;
}

inline refsim::Logic net_value(const netlist::Netlist& nl,
                               const std::vector<refsim::Logic>& state,
                               const std::string& name) {
  const netlist::NetId id = nl.find_net(name);
  if (id < 0) throw std::runtime_error("no net named " + name);
  return state.at(static_cast<size_t>(id));
}

/// Checks a solve's working-set certificate (gp/solver.h): the working set
/// is ascending, every constraint it omits has lhs <= 0.95 and dual 0, and
/// every binding constraint is in it.
inline void expect_working_set_certificate(const gp::GpResult& r) {
  const auto& ws = r.diag.working_set;
  ASSERT_TRUE(std::is_sorted(ws.begin(), ws.end()));
  std::vector<bool> in_ws(r.diag.constraints.size(), false);
  for (size_t j : ws) in_ws.at(j) = true;
  for (size_t j = 0; j < in_ws.size(); ++j) {
    if (in_ws[j]) continue;
    const auto& c = r.diag.constraints[j];
    EXPECT_LE(c.lhs, 0.95) << "constraint " << j;
    EXPECT_EQ(c.dual, 0.0) << "constraint " << j;
  }
  for (size_t j : r.diag.binding_set)
    EXPECT_TRUE(in_ws.at(j)) << "constraint " << j;
}

/// `got` is `want` constraint by constraint, bit for bit: the same tags,
/// origins, terms and row offsets, and the same classes, path map and
/// objective.
inline void expect_same_problem(const core::GeneratedProblem& got,
                                const core::GeneratedProblem& want) {
  const auto& gc = got.problem->constraints();
  const auto& wc = want.problem->constraints();
  ASSERT_EQ(gc.size(), wc.size());
  ASSERT_EQ(got.origins.size(), gc.size());
  ASSERT_EQ(want.origins.size(), wc.size());
  for (size_t j = 0; j < gc.size(); ++j) {
    EXPECT_EQ(gc[j].tag, wc[j].tag) << j;
    EXPECT_EQ(got.origins[j].kind, want.origins[j].kind) << gc[j].tag;
    EXPECT_EQ(got.origins[j].cls, want.origins[j].cls) << gc[j].tag;
    EXPECT_EQ(got.origins[j].stage, want.origins[j].stage) << gc[j].tag;
    ASSERT_EQ(gc[j].lhs.num_terms(), wc[j].lhs.num_terms()) << gc[j].tag;
    for (size_t k = 0; k < gc[j].lhs.num_terms(); ++k) {
      const auto& a = gc[j].lhs.terms()[k];
      const auto& b = wc[j].lhs.terms()[k];
      EXPECT_TRUE(a.factors() == b.factors()) << gc[j].tag << " term " << k;
      EXPECT_EQ(a.coeff(), b.coeff()) << gc[j].tag << " term " << k;
    }
    EXPECT_EQ(got.problem->offset(j), want.problem->offset(j)) << gc[j].tag;
  }
  EXPECT_EQ(got.path_constraint, want.path_constraint);
  EXPECT_EQ(got.path_specs, want.path_specs);
  ASSERT_EQ(got.path_classes.size(), want.path_classes.size());
  for (size_t c = 0; c < got.path_classes.size(); ++c) {
    EXPECT_EQ(got.path_classes[c].paths, want.path_classes[c].paths) << c;
    EXPECT_EQ(got.path_classes[c].spec, want.path_classes[c].spec) << c;
  }
  ASSERT_EQ(got.static_classes.size(), want.static_classes.size());
  for (size_t c = 0; c < got.static_classes.size(); ++c)
    EXPECT_EQ(got.static_classes[c].members, want.static_classes[c].members);
  const auto& go = got.problem->objective();
  const auto& wo = want.problem->objective();
  ASSERT_EQ(go.num_terms(), wo.num_terms());
  for (size_t k = 0; k < go.num_terms(); ++k)
    EXPECT_EQ(go.terms()[k].coeff(), wo.terms()[k].coeff()) << k;
}

/// Uniform sizing helper.
inline netlist::Sizing uniform_sizing(const netlist::Netlist& nl, double w) {
  return netlist::Sizing(nl.label_count(), w);
}

}  // namespace smart::test
