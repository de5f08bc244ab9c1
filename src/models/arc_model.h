#pragma once

/// \file arc_model.h
/// Posynomial delay/slope models for component timing arcs (paper §5.1).
/// The model templates mirror the Elmore RC structure of the reference
/// timer: delay = a_int + a_rc * RCsum(W) + a_slope * s_in, where RCsum is a
/// posynomial in the size-label variables (terms C_load/W, W_i/W_j, ...).
/// Coefficients come from a ModelLibrary calibrated against the reference
/// timer by the fitter. Deliberately simpler than the reference timer
/// (linear slope term, no keeper contention): "These timing models need not
/// be exact, since they are only used within the inner optimization loop."

#include <vector>

#include "netlist/netlist.h"
#include "posy/posynomial.h"
#include "posy/variable.h"
#include "tech/tech.h"

namespace smart::models {

/// Model class of a timing arc; each class has its own fitted coefficients.
enum class ArcClass {
  kStatic = 0,
  kPassData,
  kPassControl,
  kTristateData,
  kTristateEnable,
  kDominoFooted,    ///< D1 evaluate (clocked foot in the stack)
  kDominoUnfooted,  ///< D2 evaluate
  kDominoClkEval,   ///< clock-to-output through the foot
  kDominoPrecharge,
  kCount
};

/// Classifies an arc of a netlist into its model class. Phase matters for
/// domino data arcs: in the precharge phase they behave as precharge RC.
ArcClass classify_arc(const netlist::Netlist& nl, const netlist::Arc& arc,
                      netlist::Phase phase = netlist::Phase::kEvaluate);

/// Fitted coefficients of one model class.
/// delay = a_int + a_rc * RC + a_slope * f(s_in)
/// slope = b_int + b_rc * RC + b_slope * s_in
/// where f is the saturating slope transform when saturating_slope is set
/// (possible because the constraint generator evaluates models at constant
/// slope budgets) and identity otherwise — the lower-accuracy variant used
/// by the model-accuracy ablation (paper §5.1: "Better model accuracy
/// leads to faster convergence").
struct ModelCoeffs {
  double a_int = 0.0;
  double a_rc = 0.69;
  double a_slope = 0.2;
  double b_int = 0.0;
  double b_rc = 2.2;
  double b_slope = 0.1;
  bool saturating_slope = false;
};

/// Coefficient sets per arc class. Obtain a calibrated instance from
/// models::calibrate() (fitter.h); default-constructed values are the
/// analytic RC constants and work, just with larger sizing-loop mismatch.
class ModelLibrary {
 public:
  const ModelCoeffs& coeffs(ArcClass c) const {
    return coeffs_[static_cast<size_t>(c)];
  }
  void set_coeffs(ArcClass c, const ModelCoeffs& m) {
    coeffs_[static_cast<size_t>(c)] = m;
  }

 private:
  ModelCoeffs coeffs_[static_cast<size_t>(ArcClass::kCount)];
};

/// Width of each size label as a monomial: an optimization variable for
/// free labels, a constant for designer-fixed labels.
using LabelVarMap = std::vector<posy::Monomial>;

/// Builds the label -> monomial map, creating one variable per free label in
/// `vars` (named after the label, with the label's box bounds).
LabelVarMap make_label_vars(const netlist::Netlist& nl,
                            posy::VarTable& vars);

/// Total capacitance on a net as a posynomial of the size variables:
/// gate + diffusion + wire + external port load (fF).
posy::Posynomial net_cap_posy(const netlist::Netlist& nl, netlist::NetId n,
                              const LabelVarMap& labels,
                              const tech::Tech& tech);

/// Capacitance posynomials of every net at once, bit-identical to calling
/// net_cap_posy per net. One scatter pass over the components collects each
/// net's width refs (instead of every net scanning every component), then
/// the per-net posynomials build — O(total pins) rather than
/// O(nets * components).
std::vector<posy::Posynomial> net_cap_posy_all(const netlist::Netlist& nl,
                                               const LabelVarMap& labels,
                                               const tech::Tech& tech);

/// The Elmore RC sum of an arc as a posynomial (kOhm * fF = ps units):
/// R_path * C_out + internal stack-node terms. `c_out` is the destination
/// net capacitance (posynomial, typically from net_cap_posy). In the
/// precharge phase, unfooted-domino data arcs charge through the precharge
/// device (the reset ripple), not the pull-down stack.
posy::Posynomial arc_rc_posy(const netlist::Netlist& nl,
                             const netlist::Arc& arc, bool out_rising,
                             const posy::Posynomial& c_out,
                             const LabelVarMap& labels,
                             const tech::Tech& tech,
                             netlist::Phase phase = netlist::Phase::kEvaluate);

/// Delay and output-slope posynomials of one arc transition.
struct ArcPosy {
  posy::Posynomial delay;
  posy::Posynomial out_slope;
};

/// Evaluates the model templates for an arc: picks the class coefficients
/// and composes them with arc_rc_posy. `in_slope` is a posynomial (usually
/// a constant slope budget; see core::ConstraintGenerator).
ArcPosy arc_model_posy(const netlist::Netlist& nl, const netlist::Arc& arc,
                       bool out_rising, const posy::Posynomial& in_slope,
                       const posy::Posynomial& c_out,
                       const LabelVarMap& labels, const ModelLibrary& lib,
                       const tech::Tech& tech,
                       netlist::Phase phase = netlist::Phase::kEvaluate);

/// Output-slope posynomial only, bit-identical to arc_model_posy(...)
/// .out_slope but without composing the delay model. The slope-constraint
/// generator evaluates every arc transition and discards the delay, so
/// skipping the delay composition roughly halves its model cost. The
/// fault-injection sites and coefficient guards of the full build are kept
/// so chaos-test firing sequences and failure behavior are unchanged.
posy::Posynomial arc_out_slope_posy(
    const netlist::Netlist& nl, const netlist::Arc& arc, bool out_rising,
    const posy::Posynomial& in_slope, const posy::Posynomial& c_out,
    const LabelVarMap& labels, const ModelLibrary& lib,
    const tech::Tech& tech, netlist::Phase phase = netlist::Phase::kEvaluate);

}  // namespace smart::models
