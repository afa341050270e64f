// The dense layer: y = act(x W + b), with the element-wise activation fused
// into the forward pass. Batches are row-major: x is (batch x features).
// A layer owns two buffers, sized on first use and reused by every call
// after: its output y (the backward pass reads act' from it in place) and
// dL/dz, the gradient at its pre-activation. Mlp chains layers through
// these buffers, so a train step allocates nothing once warm. Its parameter
// gradients are sized on first use too, so a layer that never trains (a
// target network's) never holds them. Each pass also comes as a row-range
// piece that writes only its own rows of a buffer sized beforehand, so two
// ranges can run side by side; the whole call is the one range over every
// row.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace deepcat::nn {

/// Where split passes cut: batch and weight rows at multiples of the GEMM
/// kernels' row block, flat tensors at multiples of the widest vector (16
/// floats), so every element takes the kernel path it takes in one whole
/// call.
inline constexpr std::size_t kSplitRows = 4;
inline constexpr std::size_t kSplitLanes = 16;

/// One named parameter tensor paired with its gradient accumulator.
struct Param {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Fully connected layer: y = act(x W + b), W is (in x out), b is (1 x out).
class Linear {
 public:
  enum class Init { kKaiming, kXavier, kSmallUniform };

  Linear(std::size_t in_features, std::size_t out_features, common::Rng& rng,
         Init init = Init::kKaiming, Activation act = Activation::kNone);
  /// Takes given weights (in x out) and bias (1 x out) as they are; throws
  /// std::invalid_argument on mismatched shapes.
  Linear(Tensor weights, Tensor bias, Activation act);

  /// y = act(x W + b) into the layer's output buffer (bias-seeded GEMM
  /// storing through a ReLU; tanh or sigmoid in place after it). The
  /// reference stays valid until the next forward() on this layer.
  const Tensor& forward(const Tensor& x);
  /// Sizes the output buffer for a `rows`-row batch.
  void size_output(std::size_t rows);
  /// Rows [r0, r1) of forward(x), into an output buffer already sized by
  /// size_output(x.rows()).
  void forward_rows(const Tensor& x, std::size_t r0, std::size_t r1);
  /// forward(x) into the caller's `y` (resized to x.rows() x out): the
  /// same kernel call, reading nothing of the layer but W, b and act.
  void forward_into(const Tensor& x, Tensor& y) const;

  /// The dL/dz buffer. A caller stores dL/dy here (batch x out) and
  /// mask_grad() turns it into dL/dz in place.
  [[nodiscard]] Tensor& grad() noexcept { return dz_; }
  /// grad() *= act'(y), from the output of the last forward(). Throws if
  /// grad() does not have that output's shape.
  void mask_grad();
  /// Rows [r0, r1) of mask_grad().
  void mask_grad_rows(std::size_t r0, std::size_t r1);
  /// gw += x^T dz and gb += column sums of dz, accumulated in place; `x` is
  /// the input of the last forward(). Sizes gw and gb first (size_grads()).
  void accumulate_param_grads(const Tensor& x);
  /// The weight rows [w0, w1) of accumulate_param_grads(x): gw rows +=
  /// (columns w0..w1 of x)^T dz. Like accumulate_bias_grad(), it needs the
  /// gradients sized beforehand and throws std::logic_error otherwise.
  void accumulate_weight_grads(const Tensor& x, std::size_t w0,
                               std::size_t w1);
  /// The bias part of accumulate_param_grads(): gb += each row of dz, in
  /// row order.
  void accumulate_bias_grad();
  /// Sizes gw and gb on first use, zero-filled; a no-op once they are.
  void size_grads();
  /// dx = dz W^T, overwriting `dx` (resized to batch x in).
  void input_grad(Tensor& dx) const;
  /// Rows [r0, r1) of input_grad(dx), into a `dx` already batch x in.
  void input_grad_rows(Tensor& dx, std::size_t r0, std::size_t r1) const;

  /// The gradient of each is empty until size_grads() or zero_grad().
  std::vector<Param> params();
  /// Zeroes gw and gb, sizing them on first use.
  void zero_grad();

  [[nodiscard]] std::size_t in_features() const noexcept { return w_.rows(); }
  [[nodiscard]] std::size_t out_features() const noexcept { return w_.cols(); }
  [[nodiscard]] const Tensor& output() const noexcept { return y_; }
  [[nodiscard]] const Tensor& weights() const noexcept { return w_; }
  [[nodiscard]] Tensor& weights() noexcept { return w_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }
  [[nodiscard]] Tensor& bias() noexcept { return b_; }

 private:
  [[nodiscard]] bool grads_sized() const noexcept {
    return gw_.rows() == w_.rows() && gw_.cols() == w_.cols();
  }

  Tensor w_, b_, gw_, gb_;
  Activation act_;
  Tensor y_, dz_;
};

}  // namespace deepcat::nn
