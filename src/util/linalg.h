#pragma once

/// \file linalg.h
/// Small dense linear algebra: vectors as std::vector<double>, a row-major
/// Matrix, Cholesky solves (with adaptive diagonal regularization for the
/// GP solver's Newton systems), and a non-negative least squares routine
/// used by the posynomial model fitter.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace smart::util {

using Vec = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Sets every entry to v (buffer-reuse helper for iterative assemblies).
  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// A += alpha * x * x^T (symmetric rank-1 update; requires square A).
  void add_outer(const Vec& x, double alpha);

  /// Returns A * x.
  Vec mul(const Vec& x) const;

  /// Returns A^T * x.
  Vec mul_transpose(const Vec& x) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- vector helpers ----

double dot(const Vec& a, const Vec& b);
double norm2(const Vec& a);
double norm_inf(const Vec& a);
/// y += alpha * x
void axpy(double alpha, const Vec& x, Vec& y);

/// Solves the symmetric positive (semi)definite system A x = b via Cholesky,
/// reading only A's lower triangle. If factorization fails, retries with
/// growing diagonal regularization (A + lambda I). The factor goes into
/// `work` and the solution into `x`; both keep their storage between calls,
/// so a caller that reuses them allocates nothing. Throws util::Error if
/// the system cannot be solved even with heavy regularization.
void cholesky_solve(const Matrix& a, const Vec& b, Matrix& work, Vec& x);

/// Non-negative least squares: minimizes |A x - b|^2 subject to x >= 0,
/// via Lawson-Hanson active-set iteration. Suitable for the small systems
/// (< 16 unknowns) of the model fitter.
Vec nnls(const Matrix& a, const Vec& b, int max_iter = 200);

}  // namespace smart::util
