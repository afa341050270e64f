// Multi-layer perceptron container plus the target-network utilities
// (soft updates, hard copies) that DDPG/TD3 need.
#pragma once

#include <iosfwd>
#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"

namespace deepcat::common {
class Partner;
}  // namespace deepcat::common

namespace deepcat::nn {

/// Output squashing applied after the last Linear layer.
enum class OutputActivation { kNone, kTanh, kSigmoid };

/// Sequential stack of dense layers with convenience builders for the DRL
/// nets. Forward and backward run through the layers' own reused buffers.
///
/// The passes that take a common::Partner split their work across it: the
/// batch rows (forward, input_grad), the weight rows and batch rows of
/// each layer (backward) or each tensor's elements (soft_update_from),
/// cut where Partner::range() with kSplitRows / kSplitLanes cuts. Every
/// buffer is sized before the fork, the parts write disjoint rows or
/// elements with the per-element arithmetic of the whole call, so the
/// result is bit-identical to it. The form without a partner is the
/// one-part case: the same kernel calls as one whole-batch pass.
class Mlp {
 public:
  Mlp() = default;

  /// Builds Linear+ReLU hidden layers and a final Linear (small-uniform
  /// init) carrying the optional squashing. `dims` = {in, h1, ..., out};
  /// needs >= 2 entries.
  Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
      OutputActivation out_act = OutputActivation::kNone);

  /// The same stack over given parameter tensors, in params() order (w, b
  /// per layer), with zeroed gradients and no random draws. Throws
  /// std::invalid_argument unless they chain as a stack.
  Mlp(std::vector<Matrix> params, OutputActivation out_act);

  /// Forward through the stack; returns the last layer's output buffer,
  /// valid until the next forward() on this net.
  const Matrix& forward(const Matrix& x);
  /// forward(x) split by batch rows: one fork carries each part's rows
  /// through every layer.
  const Matrix& forward(const Matrix& x, common::Partner& partner);
  /// forward(x) for a one-row x through a net it only reads: each layer's
  /// output row goes to the caller's `rows` (one per layer, resized to
  /// 1 x out) instead of the layer's buffer; returns the last. Each layer
  /// makes the kernel call forward() makes on a one-row batch, so the row
  /// is forward(x)'s bit for bit, and callers that each own their `rows`
  /// can run it on one net side by side.
  const Matrix& forward_row(const Matrix& x, std::vector<Matrix>& rows) const;

  /// Backward from dL/dy for the batch of the last forward(x), which `x`
  /// must be: accumulates every parameter gradient (sized first, zeroed,
  /// if this net has never trained). dL/dx is not formed — no caller that
  /// trains this net reads it.
  void backward(const Matrix& x, const Matrix& grad_out);
  /// backward() with one fork per layer: the weight gradient split by
  /// weight rows, the input gradient (and the layer below's activation
  /// mask) by batch rows. The output layer's mask runs before the forks.
  void backward(const Matrix& x, const Matrix& grad_out,
                common::Partner& partner);

  /// dL/dx for the batch of the last forward(), leaving every parameter
  /// gradient untouched. Valid until the next input_grad().
  const Matrix& input_grad(const Matrix& grad_out);
  /// input_grad() split by batch rows: one fork carries each part's rows
  /// down every layer.
  const Matrix& input_grad(const Matrix& grad_out, common::Partner& partner);

  void zero_grad();
  [[nodiscard]] std::vector<Param> params();
  /// Copies of the parameter tensors, in params() order.
  [[nodiscard]] std::vector<Matrix> param_values() const;


  /// this = tau * src + (1 - tau) * this, parameter-wise. Shapes must match.
  void soft_update_from(Mlp& src, double tau);
  /// soft_update_from() split by elements within each tensor.
  void soft_update_from(Mlp& src, double tau, common::Partner& partner);
  /// this = src (hard copy of parameters).
  void copy_params_from(Mlp& src);

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t num_parameters();

  /// Writes/reads parameters as a flat text stream (shape-checked on load).
  void save(std::ostream& os);
  void load(std::istream& is);

  /// Number of dense layers (each carries its activation).
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }

 private:
  /// Seeds the last layer's dL/dz buffer with `grad_out`.
  void seed_output_grad(const Matrix& grad_out);

  std::vector<Linear> layers_;
  Matrix dx_;  // input_grad() result
};

/// Mean-squared-error loss over a batch: L = mean((pred - target)^2).
/// Returns the loss and writes dL/dpred into `grad`.
[[nodiscard]] double mse_loss(const Matrix& pred, const Matrix& target,
                              Matrix& grad);

}  // namespace deepcat::nn
