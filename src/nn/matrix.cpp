#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"

namespace deepcat::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::row_vector(std::span<const double> values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::col_vector(std::span<const double> values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

namespace {
void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix ") + op +
                                ": shape mismatch");
  }
}
}  // namespace

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Cache-blocked: both the source row walk and the destination column
  // walk stay inside one 32x32 tile (8 KiB working set) at a time.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows_; r0 += kTile) {
    const std::size_t r_end = std::min(rows_, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols_; c0 += kTile) {
      const std::size_t c_end = std::min(cols_, c0 + kTile);
      for (std::size_t r = r0; r < r_end; ++r) {
        const double* src = data_.data() + r * cols_;
        for (std::size_t c = c0; c < c_end; ++c) {
          t.data_[c * rows_ + r] = src[c];
        }
      }
    }
  }
  return t;
}

double Matrix::norm() const noexcept {
  return std::sqrt(common::simd::sum_squares(data_.data(), data_.size()));
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  Matrix c(a.rows(), b.cols());
  common::simd::gemm_nn(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  }
  Matrix c(a.cols(), b.cols());
  common::simd::gemm_tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  }
  Matrix c(a.rows(), b.rows());
  common::simd::gemm_nt(a.rows(), b.rows(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

void matmul_bias_act(const Matrix& x, const Matrix& w, const Matrix& bias,
                     Activation act, Matrix& out) {
  out.resize(x.rows(), w.cols());
  matmul_bias_act_rows(x, w, bias, act, out, 0, x.rows());
}

void matmul_bias_act_rows(const Matrix& x, const Matrix& w,
                          const Matrix& bias, Activation act, Matrix& out,
                          std::size_t r0, std::size_t r1) {
  if (x.cols() != w.rows()) {
    throw std::invalid_argument("matmul_bias_act: inner dimension mismatch");
  }
  if (bias.rows() != 1 || bias.cols() != w.cols()) {
    throw std::invalid_argument("matmul_bias_act: bias shape mismatch");
  }
  if (out.rows() != x.rows() || out.cols() != w.cols() || r0 > r1 ||
      r1 > x.rows()) {
    throw std::invalid_argument("matmul_bias_act: output rows mismatch");
  }
  // Seed every output row with the bias so the GEMM accumulates on top of
  // it — the broadcast costs one streaming write instead of a second pass.
  for (std::size_t r = r0; r < r1; ++r) {
    std::copy(bias.row(0).begin(), bias.row(0).end(), out.row(r).begin());
  }
  double* rows = out.data() + r0 * out.cols();
  common::simd::gemm_nn(r1 - r0, w.cols(), x.cols(),
                        x.data() + r0 * x.cols(), x.cols(), w.data(),
                        w.cols(), rows, out.cols());
  apply_activation(rows, (r1 - r0) * out.cols(), act);
}

void apply_activation(double* y, std::size_t n, Activation act) noexcept {
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      common::simd::relu(y, n);
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(y[i]);
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) y[i] = 1.0 / (1.0 + std::exp(-y[i]));
      break;
  }
}

void apply_activation(Matrix& y, Activation act) noexcept {
  apply_activation(y.data(), y.size(), act);
}

void apply_activation_grad(double* grad, const double* y, std::size_t n,
                           Activation act) noexcept {
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      common::simd::relu_mask(grad, y, n);
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) grad[i] *= 1.0 - y[i] * y[i];
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) grad[i] *= y[i] * (1.0 - y[i]);
      break;
  }
}

void apply_activation_grad(Matrix& grad, const Matrix& y,
                           Activation act) noexcept {
  apply_activation_grad(grad.data(), y.data(), grad.size(), act);
}

}  // namespace deepcat::nn
