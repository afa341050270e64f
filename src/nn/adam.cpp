#include "nn/adam.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace deepcat::nn {

Adam::Adam(std::vector<Param> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->rows(), p.value->cols());
    v_.emplace_back(p.value->rows(), p.value->cols());
  }
}

Adam::Adam(std::vector<Param> params, AdamConfig config, std::vector<Tensor> m,
           std::vector<Tensor> v, std::size_t step_count)
    : params_(std::move(params)),
      m_(std::move(m)),
      v_(std::move(v)),
      config_(config),
      t_(step_count) {
  if (m_.size() != params_.size() || v_.size() != params_.size()) {
    throw std::runtime_error("Adam: moment tensor count mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Tensor& p = *params_[i].value;
    if (m_[i].rows() != p.rows() || m_[i].cols() != p.cols() ||
        v_[i].rows() != p.rows() || v_[i].cols() != p.cols()) {
      throw std::runtime_error("Adam: moment shape mismatch");
    }
  }
}

void Adam::step() {
  common::Partner serial;
  step(serial);
}

void Adam::step(common::Partner& partner) {
  for (const Param& p : params_) {
    if (p.grad->size() != p.value->size()) {
      throw std::logic_error("Adam: no gradient computed for " + p.name);
    }
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  double scale = 1.0;
  if (config_.grad_clip > 0.0) {
    double sq = 0.0;
    for (const Param& p : params_) {
      sq += static_cast<double>(common::simd::dot(
          p.grad->data(), p.grad->data(), p.grad->size()));
    }
    const double norm = std::sqrt(sq);
    if (norm > config_.grad_clip) scale = config_.grad_clip / norm;
  }
  const auto f = [](double x) { return static_cast<float>(x); };
  partner.each_part([&](std::size_t part) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const auto e = partner.range(part, params_[i].value->size(), kSplitLanes);
      common::simd::adam_update(
          params_[i].value->data() + e.begin, params_[i].grad->data() + e.begin,
          m_[i].data() + e.begin, v_[i].data() + e.begin, e.end - e.begin,
          f(scale), f(config_.beta1), f(config_.beta2), f(bc1), f(bc2),
          f(config_.lr), f(config_.eps));
    }
  });
}

}  // namespace deepcat::nn
