#include "util/linalg.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace smart::util {

void Matrix::add_outer(const Vec& x, double alpha) {
  SMART_CHECK(rows_ == cols_ && x.size() == rows_,
              "add_outer requires square matrix matching vector size");
  for (size_t i = 0; i < rows_; ++i) {
    const double xi = alpha * x[i];
    if (xi == 0.0) continue;
    double* row = &data_[i * cols_];
    for (size_t j = 0; j < cols_; ++j) row[j] += xi * x[j];
  }
}

Vec Matrix::mul(const Vec& x) const {
  SMART_CHECK(x.size() == cols_, "matrix-vector size mismatch");
  Vec y(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    double acc = 0.0;
    for (size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
  return y;
}

Vec Matrix::mul_transpose(const Vec& x) const {
  SMART_CHECK(x.size() == rows_, "matrix-transpose-vector size mismatch");
  Vec y(cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (size_t j = 0; j < cols_; ++j) y[j] += row[j] * xi;
  }
  return y;
}

double dot(const Vec& a, const Vec& b) {
  SMART_CHECK(a.size() == b.size(), "dot size mismatch");
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

double norm_inf(const Vec& a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::fabs(v));
  return m;
}

void axpy(double alpha, const Vec& x, Vec& y) {
  SMART_CHECK(x.size() == y.size(), "axpy size mismatch");
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vec scaled(const Vec& x, double alpha) {
  Vec y(x);
  for (double& v : y) v *= alpha;
  return y;
}

namespace {

/// In-place Cholesky factorization A = L L^T storing L in the lower
/// triangle. Returns false if a non-positive pivot is encountered.
bool cholesky_factor(Matrix& a) {
  const size_t n = a.rows();
  for (size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / ljj;
    }
  }
  return true;
}

Vec cholesky_back_substitute(const Matrix& l, const Vec& b) {
  const size_t n = l.rows();
  Vec y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  Vec x(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

}  // namespace

Vec cholesky_solve(Matrix a, Vec b) {
  SMART_CHECK(a.rows() == a.cols() && a.rows() == b.size(),
              "cholesky_solve dimension mismatch");
  const size_t n = a.rows();
  double max_diag = 0.0;
  for (size_t i = 0; i < n; ++i) max_diag = std::max(max_diag, a(i, i));
  if (max_diag <= 0.0) max_diag = 1.0;

  double lambda = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix work = a;
    if (lambda > 0.0) {
      for (size_t i = 0; i < n; ++i) work(i, i) += lambda;
    }
    if (cholesky_factor(work)) {
      return cholesky_back_substitute(work, b);
    }
    lambda = (lambda == 0.0) ? 1e-10 * max_diag : lambda * 100.0;
  }
  SMART_FAIL("cholesky_solve: matrix not positive definite even after "
             "heavy regularization");
}

Vec nnls(const Matrix& a, const Vec& b, int max_iter) {
  const size_t n = a.cols();
  SMART_CHECK(a.rows() == b.size(), "nnls dimension mismatch");

  std::vector<bool> passive(n, false);
  Vec x(n, 0.0);

  // Solve the least-squares subproblem restricted to the passive set via
  // normal equations (fine at fitter scale).
  auto solve_passive = [&](const std::vector<bool>& set) -> Vec {
    std::vector<size_t> idx;
    for (size_t j = 0; j < n; ++j)
      if (set[j]) idx.push_back(j);
    if (idx.empty()) return Vec(n, 0.0);
    const size_t m = idx.size();
    Matrix ata(m, m, 0.0);
    Vec atb(m, 0.0);
    for (size_t r = 0; r < a.rows(); ++r) {
      for (size_t p = 0; p < m; ++p) {
        const double arp = a(r, idx[p]);
        if (arp == 0.0) continue;
        atb[p] += arp * b[r];
        for (size_t q = 0; q < m; ++q) ata(p, q) += arp * a(r, idx[q]);
      }
    }
    for (size_t p = 0; p < m; ++p) ata(p, p) += 1e-12;
    Vec z = cholesky_solve(ata, atb);
    Vec full(n, 0.0);
    for (size_t p = 0; p < m; ++p) full[idx[p]] = z[p];
    return full;
  };

  for (int iter = 0; iter < max_iter; ++iter) {
    // Gradient of 0.5|Ax-b|^2 is A^T(Ax - b); w = -grad.
    Vec resid = a.mul(x);
    axpy(-1.0, b, resid);
    Vec w = a.mul_transpose(resid);
    for (double& v : w) v = -v;

    int best = -1;
    double best_w = 1e-10;
    for (size_t j = 0; j < n; ++j) {
      if (!passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = static_cast<int>(j);
      }
    }
    if (best < 0) break;  // KKT satisfied
    passive[static_cast<size_t>(best)] = true;

    Vec z = solve_passive(passive);
    // Inner loop: if the unconstrained passive solution goes negative, step
    // only to the boundary and drop the blocking variables.
    while (true) {
      double alpha = 1.0;
      bool clipped = false;
      for (size_t j = 0; j < n; ++j) {
        if (passive[j] && z[j] <= 0.0) {
          const double denom = x[j] - z[j];
          if (denom > 0.0) alpha = std::min(alpha, x[j] / denom);
          clipped = true;
        }
      }
      if (!clipped) {
        x = z;
        break;
      }
      for (size_t j = 0; j < n; ++j) {
        if (passive[j]) x[j] += alpha * (z[j] - x[j]);
        if (passive[j] && x[j] <= 1e-14) {
          x[j] = 0.0;
          passive[j] = false;
        }
      }
      z = solve_passive(passive);
    }
  }
  for (double& v : x)
    if (v < 0.0) v = 0.0;
  return x;
}

}  // namespace smart::util
