// Row-major dense matrix of doubles: the numeric workhorse under the NN
// library and the Gaussian-process regressor. BLAS-free by design (offline
// build); the GEMM entry points dispatch to the register-blocked AVX2+FMA
// micro-kernels in common/simd.hpp (scalar fallback always available), so
// the actor/critic updates run as fast as the host allows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

namespace deepcat::nn {

/// Gives every Matrix buffer 64-byte alignment (one cache line, one AVX-512
/// vector). Rows whose stride is a multiple of 8 doubles then never split a
/// cache line; on an AVX-512 Xeon that halves gemm_nn time at the 64x128
/// layer shapes against malloc's 16-byte alignment. Alignment changes no
/// result: no kernel peels or reorders by address.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAllocator() = default;
  template <typename U>
  explicit CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  friend bool operator==(const CacheAlignedAllocator&,
                         const CacheAlignedAllocator&) noexcept {
    return true;
  }
};

class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);
  /// Filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);
  /// From nested initializer list; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// 1 x n row vector view of a span.
  static Matrix row_vector(std::span<const double> values);
  /// n x 1 column vector.
  static Matrix col_vector(std::span<const double> values);
  /// n x n identity.
  static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<double> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

  /// Mutable/const view of one row.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  void fill(double value) noexcept;
  /// All +0.0; inline so the constant fill compiles to memset.
  void set_zero() noexcept { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Reshapes to rows x cols, reusing the allocation once it is large
  /// enough. Element values are unspecified afterwards: callers overwrite
  /// or fill them. This is what lets layer buffers be reused across calls.
  void resize(std::size_t rows, std::size_t cols);

  /// In-place element-wise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] double norm() const noexcept;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, CacheAlignedAllocator<double>> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, double s);
[[nodiscard]] Matrix operator*(double s, Matrix a);

/// C = A * B (register-blocked, SIMD-dispatched). Dimension mismatch throws.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B without materializing A^T.
[[nodiscard]] Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T without materializing B^T.
[[nodiscard]] Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Element-wise nonlinearity applied in a GEMM epilogue / activation layer.
enum class Activation { kNone, kRelu, kTanh, kSigmoid };

/// Fused dense-layer forward: out = act(x * w + bias), written into `out`
/// (resized to x.rows() x w.cols(), storage reused). The bias row
/// (1 x w.cols()) seeds the accumulators, so no intermediate x*w or
/// bias-broadcast matrix is ever materialized. `out` must not alias x.
void matmul_bias_act(const Matrix& x, const Matrix& w, const Matrix& bias,
                     Activation act, Matrix& out);
/// Rows [r0, r1) of matmul_bias_act into the same rows of `out`, which must
/// already be x.rows() x w.cols(); other rows are left alone, so disjoint
/// ranges can run side by side. matmul_bias_act is the range [0, x.rows()).
void matmul_bias_act_rows(const Matrix& x, const Matrix& w,
                          const Matrix& bias, Activation act, Matrix& out,
                          std::size_t r0, std::size_t r1);

/// y = act(y) element-wise, in place, over the n elements at `y`.
void apply_activation(double* y, std::size_t n, Activation act) noexcept;
void apply_activation(Matrix& y, Activation act) noexcept;

/// grad *= act'(y) element-wise, where `y` is the activation OUTPUT (all
/// supported activations have output-expressible derivatives), over the n
/// elements at `grad` and `y`.
void apply_activation_grad(double* grad, const double* y, std::size_t n,
                           Activation act) noexcept;
void apply_activation_grad(Matrix& grad, const Matrix& y,
                           Activation act) noexcept;

}  // namespace deepcat::nn
