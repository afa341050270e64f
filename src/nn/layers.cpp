#include "nn/layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/simd.hpp"
#include "nn/init.hpp"

namespace deepcat::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               common::Rng& rng, Init init, Activation act)
    : w_(in_features, out_features), b_(1, out_features), act_(act) {
  switch (init) {
    case Init::kKaiming: kaiming_uniform(w_, rng); break;
    case Init::kXavier: xavier_uniform(w_, rng); break;
    case Init::kSmallUniform: uniform_init(w_, rng, 3e-3); break;
  }
}

Linear::Linear(Tensor weights, Tensor bias, Activation act)
    : w_(std::move(weights)), b_(std::move(bias)), act_(act) {
  if (b_.rows() != 1 || b_.cols() != w_.cols()) {
    throw std::invalid_argument("Linear: bias must be 1 x out of the weights");
  }
}

namespace {

void check_rows(std::size_t r0, std::size_t r1, std::size_t rows) {
  if (r0 > r1 || r1 > rows) {
    throw std::invalid_argument("Linear: row range out of bounds");
  }
}

}  // namespace

const Tensor& Linear::forward(const Tensor& x) {
  size_output(x.rows());
  forward_rows(x, 0, x.rows());
  return y_;
}

void Linear::size_output(std::size_t rows) { y_.resize(rows, out_features()); }

void Linear::forward_rows(const Tensor& x, std::size_t r0, std::size_t r1) {
  matmul_bias_act_rows(x, w_, b_, act_, y_, r0, r1);
}

void Linear::forward_into(const Tensor& x, Tensor& y) const {
  y.resize(x.rows(), out_features());
  matmul_bias_act_rows(x, w_, b_, act_, y, 0, x.rows());
}

void Linear::mask_grad() { mask_grad_rows(0, dz_.rows()); }

void Linear::mask_grad_rows(std::size_t r0, std::size_t r1) {
  if (dz_.rows() != y_.rows() || dz_.cols() != y_.cols()) {
    throw std::invalid_argument("Linear: gradient/output shape mismatch");
  }
  check_rows(r0, r1, dz_.rows());
  const std::size_t offset = r0 * dz_.cols();
  apply_activation_grad(dz_.data() + offset, y_.data() + offset,
                        (r1 - r0) * dz_.cols(), act_);
}

void Linear::accumulate_param_grads(const Tensor& x) {
  size_grads();
  accumulate_weight_grads(x, 0, in_features());
  accumulate_bias_grad();
}

void Linear::accumulate_weight_grads(const Tensor& x, std::size_t w0,
                                     std::size_t w1) {
  if (x.rows() != dz_.rows() || x.cols() != in_features()) {
    throw std::invalid_argument("Linear: backward input shape mismatch");
  }
  check_rows(w0, w1, in_features());
  if (!grads_sized()) throw std::logic_error("Linear: gradients not sized");
  // Straight into gw_: the GEMM accumulates on top of C, and from zeroed
  // gradients that is the same chain a separate product would produce.
  common::simd::gemm_tn(w1 - w0, out_features(), x.rows(), x.data() + w0,
                        x.cols(), dz_.data(), dz_.cols(),
                        gw_.data() + w0 * gw_.cols(), gw_.cols());
}

void Linear::accumulate_bias_grad() {
  if (!grads_sized()) throw std::logic_error("Linear: gradients not sized");
  common::simd::add_column_sums(gb_.data(), dz_.data(), dz_.rows(),
                                gb_.cols(), dz_.cols());
}

void Linear::input_grad(Tensor& dx) const {
  dx.resize(dz_.rows(), in_features());
  input_grad_rows(dx, 0, dz_.rows());
}

void Linear::input_grad_rows(Tensor& dx, std::size_t r0,
                             std::size_t r1) const {
  if (dx.rows() != dz_.rows() || dx.cols() != in_features()) {
    throw std::invalid_argument("Linear: input gradient shape mismatch");
  }
  check_rows(r0, r1, dz_.rows());
  float* rows = dx.data() + r0 * dx.cols();
  std::fill(rows, rows + (r1 - r0) * dx.cols(), 0.0f);
  common::simd::gemm_nt(r1 - r0, in_features(), out_features(),
                        dz_.data() + r0 * dz_.cols(), dz_.cols(), w_.data(),
                        w_.cols(), rows, dx.cols());
}

std::vector<Param> Linear::params() {
  return {{"w", &w_, &gw_}, {"b", &b_, &gb_}};
}

void Linear::size_grads() {
  if (grads_sized()) return;
  gw_ = Tensor(w_.rows(), w_.cols());
  gb_ = Tensor(b_.rows(), b_.cols());
}

void Linear::zero_grad() {
  if (!grads_sized()) return size_grads();  // zero-filled
  gw_.set_zero();
  gb_.set_zero();
}

}  // namespace deepcat::nn
