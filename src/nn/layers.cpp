#include "nn/layers.hpp"

#include <stdexcept>
#include <utility>

#include "common/simd.hpp"
#include "nn/init.hpp"

namespace deepcat::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               common::Rng& rng, Init init, Activation act)
    : w_(in_features, out_features),
      b_(1, out_features),
      gw_(in_features, out_features),
      gb_(1, out_features),
      act_(act) {
  switch (init) {
    case Init::kKaiming: kaiming_uniform(w_, rng); break;
    case Init::kXavier: xavier_uniform(w_, rng); break;
    case Init::kSmallUniform: uniform_init(w_, rng, 3e-3); break;
  }
}

Linear::Linear(Matrix weights, Matrix bias, Activation act)
    : w_(std::move(weights)),
      b_(std::move(bias)),
      gw_(w_.rows(), w_.cols()),
      gb_(b_.rows(), b_.cols()),
      act_(act) {
  if (b_.rows() != 1 || b_.cols() != w_.cols()) {
    throw std::invalid_argument("Linear: bias must be 1 x out of the weights");
  }
}

const Matrix& Linear::forward(const Matrix& x) {
  matmul_bias_act(x, w_, b_, act_, y_);
  return y_;
}

void Linear::mask_grad() {
  if (dz_.rows() != y_.rows() || dz_.cols() != y_.cols()) {
    throw std::invalid_argument("Linear: gradient/output shape mismatch");
  }
  apply_activation_grad(dz_, y_, act_);
}

void Linear::accumulate_param_grads(const Matrix& x) {
  if (x.rows() != dz_.rows() || x.cols() != in_features()) {
    throw std::invalid_argument("Linear: backward input shape mismatch");
  }
  // Straight into gw_: the GEMM accumulates on top of C, and from zeroed
  // gradients that is the same chain a separate product would produce.
  common::simd::gemm_tn(in_features(), out_features(), x.rows(), x.data(),
                        x.cols(), dz_.data(), dz_.cols(), gw_.data(),
                        gw_.cols());
  // gb += each row in order; axpy with alpha 1 is an exact add per element.
  for (std::size_t r = 0; r < dz_.rows(); ++r) {
    common::simd::axpy(1.0, dz_.data() + r * dz_.cols(), gb_.data(),
                       gb_.cols());
  }
}

void Linear::input_grad(Matrix& dx) const {
  dx.resize(dz_.rows(), in_features());
  dx.set_zero();
  common::simd::gemm_nt(dz_.rows(), in_features(), out_features(),
                        dz_.data(), dz_.cols(), w_.data(), w_.cols(),
                        dx.data(), dx.cols());
}

std::vector<Param> Linear::params() {
  return {{"w", &w_, &gw_}, {"b", &b_, &gb_}};
}

void Linear::zero_grad() {
  gw_.set_zero();
  gb_.set_zero();
}

}  // namespace deepcat::nn
