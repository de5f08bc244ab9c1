#pragma once

/// \file problem.h
/// Geometric program IR: minimize a posynomial objective subject to
/// posynomial <= 1 constraints plus variable box bounds. This is exactly the
/// form SMART's constraint generator emits (paper §5: "These constraints are
/// posynomial... This makes the optimization problem a Geometric Program").
/// A row is lhs(x) * exp(offset) <= 1: a timing row keeps its delay in ps
/// and -log(limit) as its offset, so a new spec writes one number per row.
/// Rows and the objective are checked and compiled once, when added.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "posy/posynomial.h"
#include "posy/variable.h"
#include "util/status.h"

namespace smart::gp {

/// A row compiled to the log domain, y = log x, flat per row:
///   F(y) = offset + log sum_k exp(logc_k + a_k . y)
/// Term k's factors are factors[ends[k - 1], ends[k]) (from 0 for k = 0).
struct LogPosy {
  std::vector<double> logc;    ///< per term
  std::vector<uint32_t> ends;  ///< per term
  /// (index into support, exponent) of every term's factors.
  std::vector<std::pair<uint32_t, double>> factors;
  std::vector<uint32_t> support;  ///< global var ids, ascending
  double offset = 0.0;
};

/// One constraint row, lhs(x) * exp(offset) <= 1, with a human-readable tag
/// for diagnosing which timing/slope/noise requirement is binding.
struct Constraint {
  posy::Posynomial lhs;
  std::string tag;
};

/// A geometric program over the variables of a VarTable.
class GpProblem {
 public:
  /// The table must outlive the problem; its box bounds become constraints
  /// handled natively by the solver.
  explicit GpProblem(const posy::VarTable& vars) : vars_(&vars) {}

  const posy::VarTable& vars() const { return *vars_; }

  /// Sets, checks and compiles the objective (a nonzero posynomial).
  void set_objective(posy::Posynomial objective);
  const posy::Posynomial& objective() const { return objective_; }

  /// Adds lhs <= 1 as a row with offset 0, unless lhs is zero or a
  /// constant <= 1, which holds everywhere and is dropped.
  void add_constraint(posy::Posynomial lhs, std::string tag);

  /// Adds lhs <= rhs where rhs is a monomial: normalized to lhs/rhs <= 1.
  void add_le(const posy::Posynomial& lhs, const posy::Monomial& rhs,
              std::string tag);

  /// Adds the row lhs * exp(offset) <= 1 for a nonzero lhs, checks and
  /// compiles it, and returns its index. Malformed data is recorded in
  /// status(), not thrown.
  size_t add_row(posy::Posynomial lhs, std::string tag, double offset);

  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Row j's log offset; set_offset moves the row's limit in place (e.g.
  /// -log(limit) for a row whose lhs is a delay).
  double offset(size_t j) const { return compiled_.at(j).offset; }
  void set_offset(size_t j, double offset);
  /// exp(offset(j)): row j's value at x is constraints()[j].lhs.eval(x)
  /// times this. Every reader of a row's value applies it.
  double scale(size_t j) const { return std::exp(offset(j)); }

  /// The rows compiled, aligned with constraints().
  const std::vector<LogPosy>& compiled() const { return compiled_; }
  /// The objective compiled, shifted for conditioning (set_objective).
  const LogPosy& compiled_objective() const { return compiled_objective_; }

  /// Ok, or the first malformed data found in the objective or a row when
  /// it was added.
  const util::Status& status() const { return status_; }

 private:
  const posy::VarTable* vars_;
  posy::Posynomial objective_;
  LogPosy compiled_objective_;
  std::vector<Constraint> constraints_;
  std::vector<LogPosy> compiled_;
  util::Status status_;
};

}  // namespace smart::gp
