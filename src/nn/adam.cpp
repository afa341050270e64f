#include "nn/adam.hpp"

#include <cmath>
#include <istream>
#include <ostream>
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

Adam::Adam(std::vector<Param> params, AdamConfig config, std::vector<Matrix> m,
           std::vector<Matrix> v, std::size_t step_count)
    : params_(std::move(params)), config_(config), t_(step_count) {
  check_moments(m, v);
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::check_moments(const std::vector<Matrix>& m,
                         const std::vector<Matrix>& v) const {
  if (m.size() != params_.size() || v.size() != params_.size()) {
    throw std::runtime_error("Adam: moment tensor count mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Matrix& p = *params_[i].value;
    if (m[i].rows() != p.rows() || m[i].cols() != p.cols() ||
        v[i].rows() != p.rows() || v[i].cols() != p.cols()) {
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
      sq += common::simd::dot(p.grad->data(), p.grad->data(), p.grad->size());
    }
    const double norm = std::sqrt(sq);
    if (norm > config_.grad_clip) scale = config_.grad_clip / norm;
  }
  partner.each_part([&](std::size_t part) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const auto e = partner.range(part, params_[i].value->size(), kSplitLanes);
      common::simd::adam_update(
          params_[i].value->data() + e.begin, params_[i].grad->data() + e.begin,
          m_[i].data() + e.begin, v_[i].data() + e.begin, e.end - e.begin,
          scale, config_.beta1, config_.beta2, bc1, bc2, config_.lr,
          config_.eps);
    }
  });
}

void Adam::restore_state(const std::vector<Matrix>& m,
                         const std::vector<Matrix>& v,
                         std::size_t step_count) {
  check_moments(m, v);
  m_ = m;
  v_ = v;
  t_ = step_count;
}

void Adam::save(std::ostream& os) const {
  os << t_ << ' ' << m_.size() << '\n';
  os.precision(17);
  for (std::size_t i = 0; i < m_.size(); ++i) {
    os << m_[i].rows() << ' ' << m_[i].cols() << '\n';
    for (double x : m_[i].flat()) os << x << ' ';
    os << '\n';
    for (double x : v_[i].flat()) os << x << ' ';
    os << '\n';
  }
}

void Adam::load(std::istream& is) {
  std::size_t t = 0, count = 0;
  is >> t >> count;
  if (count != m_.size()) {
    throw std::runtime_error("Adam::load: moment tensor count mismatch");
  }
  for (std::size_t i = 0; i < m_.size(); ++i) {
    std::size_t r = 0, c = 0;
    is >> r >> c;
    if (r != m_[i].rows() || c != m_[i].cols()) {
      throw std::runtime_error("Adam::load: shape mismatch");
    }
    for (double& x : m_[i].flat()) is >> x;
    for (double& x : v_[i].flat()) is >> x;
  }
  if (!is) throw std::runtime_error("Adam::load: truncated stream");
  t_ = t;
}

}  // namespace deepcat::nn
