#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/simd.hpp"

namespace deepcat::nn {

template <typename T>
BasicMatrix<T>::BasicMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, T{0}) {}

template <typename T>
BasicMatrix<T>::BasicMatrix(std::size_t rows, std::size_t cols, T value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

template <typename T>
BasicMatrix<T>::BasicMatrix(
    std::initializer_list<std::initializer_list<T>> rows) {
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

template <typename T>
BasicMatrix<T> BasicMatrix<T>::row_vector(std::span<const T> values) {
  BasicMatrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::col_vector(std::span<const T> values) {
  BasicMatrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data_.begin());
  return m;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::identity(std::size_t n) {
  BasicMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
  return m;
}

template <typename T>
void BasicMatrix<T>::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

namespace {
template <typename T>
void require_same_shape(const BasicMatrix<T>& a, const BasicMatrix<T>& b,
                        const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix ") + op +
                                ": shape mismatch");
  }
}
}  // namespace

template <typename T>
BasicMatrix<T>& BasicMatrix<T>::operator+=(const BasicMatrix& other) {
  require_same_shape(*this, other, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

template <typename T>
BasicMatrix<T>& BasicMatrix<T>::operator-=(const BasicMatrix& other) {
  require_same_shape(*this, other, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

template <typename T>
BasicMatrix<T>& BasicMatrix<T>::operator*=(T scalar) noexcept {
  for (T& x : data_) x *= scalar;
  return *this;
}

template <typename T>
BasicMatrix<T> BasicMatrix<T>::transposed() const {
  BasicMatrix t(cols_, rows_);
  // Cache-blocked: both the source row walk and the destination column
  // walk stay inside one 32x32 tile at a time.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows_; r0 += kTile) {
    const std::size_t r_end = std::min(rows_, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols_; c0 += kTile) {
      const std::size_t c_end = std::min(cols_, c0 + kTile);
      for (std::size_t r = r0; r < r_end; ++r) {
        const T* src = data_.data() + r * cols_;
        for (std::size_t c = c0; c < c_end; ++c) {
          t.data_[c * rows_ + r] = src[c];
        }
      }
    }
  }
  return t;
}

template <typename T>
double BasicMatrix<T>::norm() const noexcept {
  double sq = 0.0;
  for (const T x : data_) sq += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(sq);
}

template class BasicMatrix<double>;
template class BasicMatrix<float>;

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  Tensor c(a.rows(), b.cols());
  common::simd::gemm_nn(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  }
  Tensor c(a.cols(), b.cols());
  common::simd::gemm_tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  }
  Tensor c(a.rows(), b.rows());
  common::simd::gemm_nt(a.rows(), b.rows(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), c.data(), c.cols());
  return c;
}

void matmul_bias_act(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Activation act, Tensor& out) {
  out.resize(x.rows(), w.cols());
  matmul_bias_act_rows(x, w, bias, act, out, 0, x.rows());
}

void matmul_bias_act_rows(const Tensor& x, const Tensor& w,
                          const Tensor& bias, Activation act, Tensor& out,
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
  // The GEMM's tiles start from the bias row and store through the ReLU,
  // so a ReLU layer writes its output once; tanh and sigmoid run over the
  // stored rows.
  float* rows = out.data() + r0 * out.cols();
  const bool relu = act == Activation::kRelu;
  common::simd::gemm_nn(r1 - r0, w.cols(), x.cols(),
                        x.data() + r0 * x.cols(), x.cols(), w.data(),
                        w.cols(), rows, out.cols(),
                        {.bias = bias.data(), .relu = relu});
  if (!relu) apply_activation(rows, (r1 - r0) * out.cols(), act);
}

void apply_activation(float* y, std::size_t n, Activation act) noexcept {
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
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = 1.0f / (1.0f + std::exp(-y[i]));
      }
      break;
  }
}

void apply_activation(Tensor& y, Activation act) noexcept {
  apply_activation(y.data(), y.size(), act);
}

void apply_activation_grad(float* grad, const float* y, std::size_t n,
                           Activation act) noexcept {
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      common::simd::relu_mask(grad, y, n);
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) grad[i] *= 1.0f - y[i] * y[i];
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) grad[i] *= y[i] * (1.0f - y[i]);
      break;
  }
}

void apply_activation_grad(Tensor& grad, const Tensor& y,
                           Activation act) noexcept {
  apply_activation_grad(grad.data(), y.data(), grad.size(), act);
}

}  // namespace deepcat::nn
