#pragma once

/// \file vecmath.h
/// Batched elementwise math for hot numeric loops. The GP solver's
/// log-sum-exp evaluations spend most of their cycles in std::exp, and its
/// barrier terms in std::log; these
/// helpers expose that work as flat loops the compiler can vectorize
/// against libmvec (glibc's SIMD libm) where available, with a plain
/// scalar build everywhere else. Vectorized exp and log may differ from
/// scalar std::exp and std::log by a few ulp — far below the solver's convergence tolerance —
/// and a given binary always evaluates deterministically.

#include <cstddef>

namespace smart::util {

/// out[k] = exp(z[k] - shift) for k in [0, n); returns sum_k out[k].
/// In-place use (out == z) is allowed.
double exp_shifted(const double* z, double shift, double* out, size_t n);

/// Returns sum_k exp(z[k] - shift) without materializing the terms.
double sum_exp_shifted(const double* z, double shift, size_t n);

/// Returns sum_k log(x[k]) for k in [0, n); every x[k] must be positive
/// and finite.
double sum_log(const double* x, size_t n);

}  // namespace smart::util
