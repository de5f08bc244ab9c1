#pragma once

/// \file fitter.h
/// Model calibration (paper Fig 3, "Model building for sizing"): per arc
/// class, builds a small archetype circuit, sweeps widths / loads / input
/// slopes, measures pin-to-pin delay and output slope with the reference
/// timer, and fits the posynomial template coefficients by non-negative
/// least squares (coefficients must stay positive to remain posynomial).

#include "models/arc_model.h"

namespace smart::models {

/// Fit quality per arc class (relative RMS errors vs the reference timer).
struct ClassFit {
  int samples = 0;
  double delay_rms_rel = 0.0;
  double slope_rms_rel = 0.0;
};

struct FitReport {
  ClassFit per_class[static_cast<size_t>(ArcClass::kCount)];
};

struct FitOptions {
  /// Fit the delay slope term in the saturating-transform basis (exact for
  /// the reference timer). Disabling it gives the lower-accuracy linear
  /// basis, which only ModelsTest.SaturatingBasisBeatsLinearBasis builds.
  bool saturating_slope_basis = true;
};

/// Calibrates a ModelLibrary against the reference timer for a technology.
/// Deterministic; takes a few milliseconds.
ModelLibrary calibrate(const tech::Tech& tech, FitReport* report = nullptr,
                       const FitOptions& options = {});

/// Returns a process-wide library calibrated for default_tech().
const ModelLibrary& default_library();

}  // namespace smart::models
