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

/// net_cap_posy of every net. Both read each net's width refs from the
/// netlist's load view, so a net costs O(its pins), not O(components).
std::vector<posy::Posynomial> net_cap_posy_all(const netlist::Netlist& nl,
                                               const LabelVarMap& labels,
                                               const tech::Tech& tech);

/// One series device of an RC path: its on-resistance per um of width
/// (kOhm*um) and the size label whose width it has.
struct RcDevice {
  double r = 0.0;
  netlist::LabelId label = -1;
};

/// The series path an arc transition charges or discharges its output
/// through, from the output node down to the supply, written into `out`.
/// With the destination capacitance it is everything arc_rc_posy reads, so
/// equal paths into equal loads give bit-identical RC posynomials. In the
/// precharge phase, unfooted-domino data arcs charge through the precharge
/// device (the reset ripple), not the pull-down stack.
void arc_rc_path(const netlist::Netlist& nl, const netlist::Arc& arc,
                 bool out_rising, const tech::Tech& tech,
                 std::vector<RcDevice>& out,
                 netlist::Phase phase = netlist::Phase::kEvaluate);

/// The Elmore RC sum of a series path into `c_out` (kOhm * fF = ps units):
/// R_path * C_out + internal stack-node terms.
posy::Posynomial rc_path_posy(const std::vector<RcDevice>& path,
                              const posy::Posynomial& c_out,
                              const LabelVarMap& labels,
                              const tech::Tech& tech);

/// The Elmore RC sum of an arc as a posynomial: rc_path_posy over
/// arc_rc_path. `c_out` is the destination net capacitance (posynomial,
/// typically from net_cap_posy).
posy::Posynomial arc_rc_posy(const netlist::Netlist& nl,
                             const netlist::Arc& arc, bool out_rising,
                             const posy::Posynomial& c_out,
                             const LabelVarMap& labels,
                             const tech::Tech& tech,
                             netlist::Phase phase = netlist::Phase::kEvaluate);

/// The class coefficients of an arc, read through the model-coefficient
/// fault sites (chaos tests corrupt them there: a perturbation models a
/// bad fit, NaN a poisoned library). Each call is one hit of each site.
ModelCoeffs arc_coeffs(const netlist::Netlist& nl, const netlist::Arc& arc,
                       const ModelLibrary& lib,
                       netlist::Phase phase = netlist::Phase::kEvaluate);

/// Delay and output-slope posynomials of one arc transition.
struct ArcPosy {
  posy::Posynomial delay;
  posy::Posynomial out_slope;
};

/// The model templates composed from coefficients and an RC sum. `in_slope`
/// is a posynomial (usually a constant slope budget; see
/// core::generate_problem).
ArcPosy model_posy(const ModelCoeffs& m, const posy::Posynomial& rc,
                   const posy::Posynomial& in_slope, const tech::Tech& tech);

/// The output-slope template alone, bit-identical to model_posy(...)
/// .out_slope: slope bounds discard the delay, so they skip composing it.
/// Invalid delay coefficients fail here as they would in the delay.
posy::Posynomial out_slope_posy(const ModelCoeffs& m,
                                const posy::Posynomial& rc,
                                const posy::Posynomial& in_slope);

/// Evaluates the model templates for an arc: model_posy over arc_coeffs
/// and arc_rc_posy.
ArcPosy arc_model_posy(const netlist::Netlist& nl, const netlist::Arc& arc,
                       bool out_rising, const posy::Posynomial& in_slope,
                       const posy::Posynomial& c_out,
                       const LabelVarMap& labels, const ModelLibrary& lib,
                       const tech::Tech& tech,
                       netlist::Phase phase = netlist::Phase::kEvaluate);

}  // namespace smart::models
