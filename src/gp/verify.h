#pragma once

/// \file verify.h
/// GP well-formedness verifier: static analysis of a geometric program
/// before any numerics run. Catches what would otherwise fail a solve
/// numerically or time out in phase I:
///
///   * GPV100 — malformed shell (no variables, objective not set)
///   * GPV101 — degenerate monomials (non-finite / non-positive
///              coefficients, non-finite exponents)
///   * GPV102 — certificate of unboundedness: a variable the objective
///              decreases in monotonically that no constraint bounds from
///              above (every exponent of the variable in the
///              objective+constraint exponent matrix is negative)
///   * GPV103 — unused variables
///   * GPV104 — constraints infeasible everywhere in the variable box
///              (interval lower bound of the row at its offset exceeds
///              1; subsumes constant rows above 1)
///   * GPV105 — empty or non-positive variable boxes
///
/// Used by the sizer as a cheap pre-solve gate; also reachable through
/// `smart_cli lint`.

#include <functional>
#include <string>

#include "gp/problem.h"
#include "lint/diagnostics.h"
#include "util/status.h"

namespace smart::gp {

/// Runs every GPV rule; findings are counted into the `lint.findings.*`
/// telemetry counters when telemetry is enabled. Never throws. `name` is
/// the report's macro field (e.g. the netlist the problem was built from).
/// `note`, when set, is called with a constraint's index for every finding
/// on that constraint, and its text is appended to the finding's message
/// (e.g. which merged paths or arcs the constraint stands for).
lint::Report verify_problem(
    const GpProblem& problem, const lint::Options& options = {},
    const std::string& name = "gp",
    const std::function<std::string(size_t)>& note = {});

/// Collapses a verification report into the pipeline failure taxonomy:
/// Ok when the report has no errors; otherwise kNumericalError for
/// non-finite data, kInfeasible for box-infeasible constraints, and
/// kInvalidInput for the rest, with the first error's message as detail.
util::Status verify_status(const lint::Report& report);

}  // namespace smart::gp
