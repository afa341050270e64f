// Adam optimizer (Kingma & Ba, 2015) over a set of Param handles.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace deepcat::common {
class Partner;
}  // namespace deepcat::common

namespace deepcat::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  /// Optional global gradient-norm clip; 0 disables clipping.
  double grad_clip = 0.0;
};

class Adam {
 public:
  /// Binds to the given parameters; the Param pointers must outlive the
  /// optimizer (they point into the network's layers).
  explicit Adam(std::vector<Param> params, AdamConfig config = {});
  /// Binds as above but resumes from the given moments (one Tensor per
  /// parameter, binding order) and step counter instead of zeroed ones.
  /// Shapes must match the parameters (throws std::runtime_error).
  Adam(std::vector<Param> params, AdamConfig config, std::vector<Tensor> m,
       std::vector<Tensor> v, std::size_t step_count);

  /// Not copyable: a copy would keep stepping the source network's tensors
  /// (its Param pointers), so a copied agent would silently never learn.
  /// Moves keep the pointers, which stay valid when the networks they point
  /// into move along with the optimizer (Mlp layers live on the heap).
  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;
  Adam(Adam&&) noexcept = default;
  Adam& operator=(Adam&&) noexcept = default;

  /// Applies one update using the gradients currently accumulated in the
  /// bound parameters, then leaves gradients untouched (call zero_grad on
  /// the network afterwards / before the next backward). Throws
  /// std::logic_error, changing nothing, if a parameter's gradient was never
  /// sized (its layer has not run backward or zero_grad). With grad_clip
  /// set, the gradients are first scaled by min(1, grad_clip / ||g||),
  /// ||g||^2 being one dispatched float simd::dot per tensor, summed in
  /// double in binding order. The hyperparameters, bias corrections and
  /// clip scale are computed in double and narrowed once to the float
  /// kernel's arguments.
  void step();
  /// step() with each tensor's elements split across `partner` at a
  /// multiple of kSplitLanes; the clip scale is computed once, before the
  /// fork. Bit-identical to step().
  void step(common::Partner& partner);

  [[nodiscard]] const AdamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t step_count() const noexcept { return t_; }

  /// First/second moment estimates (float, like the parameters), one
  /// Tensor per bound parameter tensor, in binding order. Exposed so an
  /// agent's snapshot() can copy them out (the resuming constructor builds
  /// them back in): dropping the moments makes a restored agent fine-tune
  /// differently from one that was never copied.
  [[nodiscard]] const std::vector<Tensor>& first_moments() const noexcept {
    return m_;
  }
  [[nodiscard]] const std::vector<Tensor>& second_moments() const noexcept {
    return v_;
  }

 private:
  std::vector<Param> params_;
  std::vector<Tensor> m_, v_;
  AdamConfig config_;
  std::size_t t_ = 0;
};

}  // namespace deepcat::nn
