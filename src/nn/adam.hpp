// Adam optimizer (Kingma & Ba, 2015) over a set of Param handles.
#pragma once

#include <iosfwd>
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
  /// Binds as above but resumes from the given moments (one Matrix per
  /// parameter, binding order) and step counter instead of zeroed ones.
  /// Shapes must match the parameters (throws std::runtime_error).
  Adam(std::vector<Param> params, AdamConfig config, std::vector<Matrix> m,
       std::vector<Matrix> v, std::size_t step_count);

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
  /// ||g||^2 being one dispatched simd::dot per tensor summed in binding
  /// order.
  void step();
  /// step() with each tensor's elements split across `partner` at a
  /// multiple of kSplitLanes; the clip scale is computed once, before the
  /// fork. Bit-identical to step().
  void step(common::Partner& partner);

  [[nodiscard]] const AdamConfig& config() const noexcept { return config_; }
  void set_lr(double lr) noexcept { config_.lr = lr; }
  [[nodiscard]] std::size_t step_count() const noexcept { return t_; }

  /// First/second moment estimates, one Matrix per bound parameter tensor,
  /// in binding order. Exposed (with restore_state) so checkpoints can
  /// round-trip the optimizer: dropping the moments makes a reloaded agent
  /// fine-tune differently from a never-saved one.
  [[nodiscard]] const std::vector<Matrix>& first_moments() const noexcept {
    return m_;
  }
  [[nodiscard]] const std::vector<Matrix>& second_moments() const noexcept {
    return v_;
  }

  /// Overwrites the moment vectors and step counter. Shapes must match the
  /// bound parameters exactly (throws std::runtime_error otherwise).
  void restore_state(const std::vector<Matrix>& m, const std::vector<Matrix>& v,
                     std::size_t step_count);

  /// Writes/reads the optimizer state (step counter + both moment vectors)
  /// as a flat text stream, shape-checked on load, same style as Mlp.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  /// Throws unless `m` and `v` each hold one tensor per bound parameter,
  /// shaped like it.
  void check_moments(const std::vector<Matrix>& m,
                     const std::vector<Matrix>& v) const;

  std::vector<Param> params_;
  std::vector<Matrix> m_, v_;
  AdamConfig config_;
  std::size_t t_ = 0;
};

}  // namespace deepcat::nn
