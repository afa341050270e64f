// Row-major dense matrix: one implementation, two element types. The
// networks and their optimizers hold nn::Tensor (float32, PyTorch's default
// dtype, which the paper's actor and critics ran in); the Gaussian-process
// regressor keeps nn::Matrix (double). BLAS-free by design (offline build);
// the GEMM entry points take Tensors and dispatch to the register-blocked
// AVX2+FMA / AVX-512 micro-kernels in common/simd.hpp (scalar fallback
// always available), so the actor/critic updates run as fast as the host
// allows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

namespace deepcat::nn {

/// Gives every matrix buffer 64-byte alignment (one cache line, one AVX-512
/// vector). Rows whose stride is a multiple of 16 floats then never split a
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

template <typename T>
class BasicMatrix {
 public:
  using value_type = T;

  BasicMatrix() = default;
  /// Zero-initialized rows x cols matrix.
  BasicMatrix(std::size_t rows, std::size_t cols);
  /// Filled with `value`.
  BasicMatrix(std::size_t rows, std::size_t cols, T value);
  /// From nested initializer list; all rows must have equal length.
  BasicMatrix(std::initializer_list<std::initializer_list<T>> rows);

  /// 1 x n row vector view of a span.
  static BasicMatrix row_vector(std::span<const T> values);
  /// n x 1 column vector.
  static BasicMatrix col_vector(std::span<const T> values);
  /// n x n identity.
  static BasicMatrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] T operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::span<T> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const T> flat() const noexcept { return data_; }

  /// Mutable/const view of one row.
  [[nodiscard]] std::span<T> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  void fill(T value) noexcept { std::fill(data_.begin(), data_.end(), value); }
  /// All +0.0; inline so the constant fill compiles to memset.
  void set_zero() noexcept { std::fill(data_.begin(), data_.end(), T{0}); }

  /// Reshapes to rows x cols, reusing the allocation once it is large
  /// enough. Element values are unspecified afterwards: callers overwrite
  /// or fill them. This is what lets layer buffers be reused across calls.
  void resize(std::size_t rows, std::size_t cols);

  /// In-place element-wise operations.
  BasicMatrix& operator+=(const BasicMatrix& other);
  BasicMatrix& operator-=(const BasicMatrix& other);
  BasicMatrix& operator*=(T scalar) noexcept;

  [[nodiscard]] BasicMatrix transposed() const;

  /// Frobenius norm, accumulated in double.
  [[nodiscard]] double norm() const noexcept;

  friend bool operator==(const BasicMatrix&, const BasicMatrix&) = default;

  friend BasicMatrix operator+(BasicMatrix a, const BasicMatrix& b) {
    return a += b;
  }
  friend BasicMatrix operator-(BasicMatrix a, const BasicMatrix& b) {
    return a -= b;
  }
  friend BasicMatrix operator*(BasicMatrix a, T s) { return a *= s; }
  friend BasicMatrix operator*(T s, BasicMatrix a) { return a *= s; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T, CacheAlignedAllocator<T>> data_;
};

extern template class BasicMatrix<double>;
extern template class BasicMatrix<float>;

/// The Gaussian-process regressor's matrices.
using Matrix = BasicMatrix<double>;
/// The networks' parameters, gradients, activations and Adam moments.
using Tensor = BasicMatrix<float>;

/// C = A * B (register-blocked, SIMD-dispatched). Dimension mismatch throws.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T * B without materializing A^T.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A * B^T without materializing B^T.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Element-wise nonlinearity applied in a GEMM epilogue / activation layer.
enum class Activation { kNone, kRelu, kTanh, kSigmoid };

/// Fused dense-layer forward: out = act(x * w + bias), written into `out`
/// (resized to x.rows() x w.cols(), storage reused). The bias row
/// (1 x w.cols()) seeds the GEMM's accumulators and a ReLU is applied as
/// they are stored, so no intermediate x*w or bias-broadcast matrix is ever
/// materialized and a ReLU layer's output is written once. `out` must not
/// alias x.
void matmul_bias_act(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Activation act, Tensor& out);
/// Rows [r0, r1) of matmul_bias_act into the same rows of `out`, which must
/// already be x.rows() x w.cols(); other rows are left alone, so disjoint
/// ranges can run side by side. matmul_bias_act is the range [0, x.rows()).
void matmul_bias_act_rows(const Tensor& x, const Tensor& w,
                          const Tensor& bias, Activation act, Tensor& out,
                          std::size_t r0, std::size_t r1);

/// y = act(y) element-wise, in place, over the n elements at `y`.
void apply_activation(float* y, std::size_t n, Activation act) noexcept;
void apply_activation(Tensor& y, Activation act) noexcept;

/// grad *= act'(y) element-wise, where `y` is the activation OUTPUT (all
/// supported activations have output-expressible derivatives), over the n
/// elements at `grad` and `y`.
void apply_activation_grad(float* grad, const float* y, std::size_t n,
                           Activation act) noexcept;
void apply_activation_grad(Tensor& grad, const Tensor& y,
                           Activation act) noexcept;

}  // namespace deepcat::nn
