#include "nn/mlp.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"

namespace deepcat::nn {

namespace {

Activation activation_of(OutputActivation out_act) {
  switch (out_act) {
    case OutputActivation::kNone: break;
    case OutputActivation::kTanh: return Activation::kTanh;
    case OutputActivation::kSigmoid: return Activation::kSigmoid;
  }
  return Activation::kNone;
}

}  // namespace

Mlp::Mlp(const std::vector<std::size_t>& dims, common::Rng& rng,
         OutputActivation out_act) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output dims");
  }
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool last = i + 2 == dims.size();
    layers_.emplace_back(
        dims[i], dims[i + 1], rng,
        last ? Linear::Init::kSmallUniform : Linear::Init::kKaiming,
        last ? activation_of(out_act) : Activation::kRelu);
  }
}

Mlp::Mlp(std::vector<Matrix> params, OutputActivation out_act) {
  if (params.empty() || params.size() % 2 != 0) {
    throw std::invalid_argument("Mlp: need a (w, b) pair per layer");
  }
  layers_.reserve(params.size() / 2);
  for (std::size_t i = 0; i < params.size(); i += 2) {
    if (!layers_.empty() &&
        params[i].rows() != layers_.back().out_features()) {
      throw std::invalid_argument("Mlp: layer inputs do not chain");
    }
    const bool last = i + 2 == params.size();
    layers_.emplace_back(std::move(params[i]), std::move(params[i + 1]),
                         last ? activation_of(out_act) : Activation::kRelu);
  }
}

const Matrix& Mlp::forward(const Matrix& x) {
  common::Partner serial;
  return forward(x, serial);
}

const Matrix& Mlp::forward(const Matrix& x, common::Partner& partner) {
  for (auto& layer : layers_) layer.size_output(x.rows());
  partner.each_part([&](std::size_t part) {
    const auto rows = partner.range(part, x.rows(), kSplitRows);
    const Matrix* in = &x;
    for (auto& layer : layers_) {
      layer.forward_rows(*in, rows.begin, rows.end);
      in = &layer.output();
    }
  });
  return layers_.back().output();
}

const Matrix& Mlp::forward_row(const Matrix& x,
                               std::vector<Matrix>& rows) const {
  if (x.rows() != 1) throw std::invalid_argument("Mlp: forward_row takes one row");
  rows.resize(layers_.size());
  const Matrix* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].forward_row(*in, rows[i]);
    in = &rows[i];
  }
  return rows.back();
}

void Mlp::seed_output_grad(const Matrix& grad_out) {
  const Matrix& y = layers_.back().output();
  if (grad_out.rows() != y.rows() || grad_out.cols() != y.cols()) {
    throw std::invalid_argument("Mlp: output gradient shape mismatch");
  }
  layers_.back().grad() = grad_out;
}

void Mlp::backward(const Matrix& x, const Matrix& grad_out) {
  common::Partner serial;
  backward(x, grad_out, serial);
}

void Mlp::backward(const Matrix& x, const Matrix& grad_out,
                   common::Partner& partner) {
  seed_output_grad(grad_out);
  layers_.back().mask_grad();
  for (auto& layer : layers_) layer.size_grads();
  const std::size_t batch = grad_out.rows();
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Linear& layer = layers_[i];
    const Matrix& in = i == 0 ? x : layers_[i - 1].output();
    Linear* below = i == 0 ? nullptr : &layers_[i - 1];
    if (below != nullptr) below->grad().resize(batch, below->out_features());
    partner.each_part([&](std::size_t part) {
      const auto w = partner.range(part, layer.in_features(), kSplitRows);
      layer.accumulate_weight_grads(in, w.begin, w.end);
      if (part == 0) layer.accumulate_bias_grad();
      if (below == nullptr) return;
      const auto rows = partner.range(part, batch, kSplitRows);
      layer.input_grad_rows(below->grad(), rows.begin, rows.end);
      below->mask_grad_rows(rows.begin, rows.end);
    });
  }
}

const Matrix& Mlp::input_grad(const Matrix& grad_out) {
  common::Partner serial;
  return input_grad(grad_out, serial);
}

const Matrix& Mlp::input_grad(const Matrix& grad_out,
                              common::Partner& partner) {
  seed_output_grad(grad_out);
  const std::size_t batch = grad_out.rows();
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    layers_[i].grad().resize(batch, layers_[i].out_features());
  }
  dx_.resize(batch, layers_.front().in_features());
  partner.each_part([&](std::size_t part) {
    const auto rows = partner.range(part, batch, kSplitRows);
    for (std::size_t i = layers_.size(); i-- > 0;) {
      layers_[i].mask_grad_rows(rows.begin, rows.end);
      layers_[i].input_grad_rows(i == 0 ? dx_ : layers_[i - 1].grad(),
                                 rows.begin, rows.end);
    }
  });
  return dx_;
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

std::vector<Param> Mlp::params() {
  std::vector<Param> all;
  all.reserve(2 * layers_.size());
  for (auto& layer : layers_) {
    for (auto& p : layer.params()) all.push_back(p);
  }
  return all;
}

std::vector<Matrix> Mlp::param_values() const {
  // Linear::params() binds (w, b) per layer; keep that order.
  std::vector<Matrix> all;
  all.reserve(2 * layers_.size());
  for (const auto& layer : layers_) {
    all.push_back(layer.weights());
    all.push_back(layer.bias());
  }
  return all;
}

void Mlp::soft_update_from(Mlp& src, double tau) {
  common::Partner serial;
  soft_update_from(src, tau, serial);
}

void Mlp::soft_update_from(Mlp& src, double tau, common::Partner& partner) {
  auto dst_params = params();
  auto src_params = src.params();
  if (dst_params.size() != src_params.size()) {
    throw std::invalid_argument("soft_update_from: layer structure mismatch");
  }
  for (std::size_t i = 0; i < dst_params.size(); ++i) {
    const Matrix& d = *dst_params[i].value;
    const Matrix& s = *src_params[i].value;
    if (d.rows() != s.rows() || d.cols() != s.cols()) {
      throw std::invalid_argument("soft_update_from: shape mismatch");
    }
  }
  partner.each_part([&](std::size_t part) {
    for (std::size_t i = 0; i < dst_params.size(); ++i) {
      double* d = dst_params[i].value->data();
      const double* s = src_params[i].value->data();
      const auto elems =
          partner.range(part, dst_params[i].value->size(), kSplitLanes);
      for (std::size_t k = elems.begin; k < elems.end; ++k) {
        d[k] = tau * s[k] + (1.0 - tau) * d[k];
      }
    }
  });
}

void Mlp::copy_params_from(Mlp& src) { soft_update_from(src, 1.0); }

std::size_t Mlp::num_parameters() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

void Mlp::save(std::ostream& os) {
  auto ps = params();
  os << ps.size() << '\n';
  os.precision(17);
  for (const auto& p : ps) {
    os << p.value->rows() << ' ' << p.value->cols() << '\n';
    for (double v : p.value->flat()) os << v << ' ';
    os << '\n';
  }
}

void Mlp::load(std::istream& is) {
  auto ps = params();
  std::size_t count = 0;
  is >> count;
  if (count != ps.size()) {
    throw std::runtime_error("Mlp::load: parameter tensor count mismatch");
  }
  for (auto& p : ps) {
    std::size_t r = 0, c = 0;
    is >> r >> c;
    if (r != p.value->rows() || c != p.value->cols()) {
      throw std::runtime_error("Mlp::load: shape mismatch");
    }
    for (double& v : p.value->flat()) is >> v;
  }
  if (!is) throw std::runtime_error("Mlp::load: truncated stream");
}

double mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols()) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  grad = Matrix(pred.rows(), pred.cols());
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double diff = pred.flat()[i] - target.flat()[i];
    loss += diff * diff;
    grad.flat()[i] = 2.0 * diff * inv_n;
  }
  return loss * inv_n;
}

}  // namespace deepcat::nn
