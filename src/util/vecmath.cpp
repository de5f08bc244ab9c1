#include "util/vecmath.h"

#include <cmath>

// On GNU/x86-64 this translation unit is compiled with
// -ffast-math -fopenmp-simd (scoped to this file only — see
// src/util/CMakeLists.txt) so the exp and log calls below vectorize against
// libmvec. SMART_VECMATH_CLONES additionally emits an AVX2 clone next to
// the baseline SSE one, dispatched once at load time via ifunc.

#if defined(SMART_VECMATH_CLONES)
#define SMART_VECMATH_TARGETS __attribute__((target_clones("avx2", "default")))
#else
#define SMART_VECMATH_TARGETS
#endif

namespace smart::util {

SMART_VECMATH_TARGETS
double exp_shifted(const double* z, double shift, double* out, size_t n) {
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double e = std::exp(z[k] - shift);
    out[k] = e;
    acc += e;
  }
  return acc;
}

SMART_VECMATH_TARGETS
double sum_exp_shifted(const double* z, double shift, size_t n) {
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) acc += std::exp(z[k] - shift);
  return acc;
}

SMART_VECMATH_TARGETS
double sum_log(const double* x, size_t n) {
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) acc += std::log(x[k]);
  return acc;
}

}  // namespace smart::util
