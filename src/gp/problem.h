#pragma once

/// \file problem.h
/// Geometric program IR: minimize a posynomial objective subject to
/// posynomial <= 1 constraints plus variable box bounds. This is exactly the
/// form SMART's constraint generator emits (paper §5: "These constraints are
/// posynomial... This makes the optimization problem a Geometric Program").

#include <string>
#include <vector>

#include "posy/posynomial.h"
#include "posy/variable.h"

namespace smart::gp {

/// One normalized constraint lhs(x) <= 1, with a human-readable tag for
/// diagnosing which timing/slope/noise requirement is binding.
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

  /// Sets the objective (must be a nonzero posynomial).
  void set_objective(posy::Posynomial objective);
  const posy::Posynomial& objective() const { return objective_; }

  /// Adds lhs <= 1. Constant constraints are checked immediately: trivially
  /// true ones are dropped, violated ones throw (infeasible by construction).
  void add_constraint(posy::Posynomial lhs, std::string tag);

  /// Adds lhs <= rhs where rhs is a monomial: normalized to lhs/rhs <= 1.
  void add_le(const posy::Posynomial& lhs, const posy::Monomial& rhs,
              std::string tag);

  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// Multiplies constraint `index`'s lhs by `factor` > 0 in place, e.g.
  /// s0/s1 to turn lhs/s0 <= 1 into lhs/s1 <= 1.
  void scale_constraint(size_t index, double factor) {
    constraints_.at(index).lhs *= factor;
  }

 private:
  const posy::VarTable* vars_;
  posy::Posynomial objective_;
  std::vector<Constraint> constraints_;
};

}  // namespace smart::gp
