#include "rl/agent_util.hpp"

#include <algorithm>
#include <stdexcept>

namespace deepcat::rl {

namespace {
template <typename Selector>
void pack(std::span<const Transition* const> batch, Selector select,
          nn::Tensor& out) {
  if (batch.empty()) throw std::invalid_argument("pack: empty batch");
  const std::size_t cols = select(*batch.front()).size();
  out.resize(batch.size(), cols);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    const auto& v = select(*batch[r]);
    if (v.size() != cols) {
      throw std::invalid_argument("pack: ragged transition vectors");
    }
    std::transform(v.begin(), v.end(), out.row(r).begin(),
                   [](double x) { return static_cast<float>(x); });
  }
}
}  // namespace

void states_of(std::span<const Transition* const> batch, nn::Tensor& out) {
  pack(batch, [](const Transition& t) -> const std::vector<double>& {
    return t.state;
  }, out);
}

void actions_of(std::span<const Transition* const> batch, nn::Tensor& out) {
  pack(batch, [](const Transition& t) -> const std::vector<double>& {
    return t.action;
  }, out);
}

void next_states_of(std::span<const Transition* const> batch,
                    nn::Tensor& out) {
  pack(batch, [](const Transition& t) -> const std::vector<double>& {
    return t.next_state;
  }, out);
}

void rewards_of(std::span<const Transition* const> batch, nn::Matrix& out) {
  out.resize(batch.size(), 1);
  for (std::size_t r = 0; r < batch.size(); ++r) out(r, 0) = batch[r]->reward;
}

void dones_of(std::span<const Transition* const> batch, nn::Matrix& out) {
  out.resize(batch.size(), 1);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    out(r, 0) = batch[r]->done ? 1.0 : 0.0;
  }
}

void concat_cols(const nn::Tensor& a, const nn::Tensor& b, nn::Tensor& out) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("concat_cols: row mismatch");
  }
  out.resize(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto dst = out.row(r);
    std::copy(a.row(r).begin(), a.row(r).end(), dst.begin());
    std::copy(b.row(r).begin(), b.row(r).end(),
              dst.begin() + static_cast<std::ptrdiff_t>(a.cols()));
  }
}

void right_cols(const nn::Tensor& m, std::size_t cols, nn::Tensor& out) {
  if (cols > m.cols()) throw std::invalid_argument("right_cols: too wide");
  out.resize(m.rows(), cols);
  const std::size_t offset = m.cols() - cols;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto src = m.row(r);
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(offset), src.end(),
              out.row(r).begin());
  }
}

void state_action_rows(std::span<const double> s,
                       std::span<const double> actions, std::size_t rows,
                       nn::Tensor& out) {
  if (rows == 0 || actions.size() % rows != 0) {
    throw std::invalid_argument("state_action_rows: actions/rows mismatch");
  }
  const std::size_t dim = actions.size() / rows;
  out.resize(rows, s.size() + dim);
  const auto narrow = [](double x) { return static_cast<float>(x); };
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = out.data() + r * out.cols();
    const auto a = actions.subspan(r * dim, dim);
    std::transform(s.begin(), s.end(), row, narrow);
    std::transform(a.begin(), a.end(), row + s.size(), narrow);
  }
}

void state_action_row(std::span<const double> s, std::span<const double> a,
                      nn::Tensor& out) {
  state_action_rows(s, a, 1, out);
}

std::vector<double> to_doubles(std::span<const float> values) {
  std::vector<double> out(values.size());
  std::transform(values.begin(), values.end(), out.begin(),
                 [](float x) { return static_cast<double>(x); });
  return out;
}

void StepBuffers::pack(std::span<const Transition* const> batch) {
  states_of(batch, s);
  actions_of(batch, a);
  rewards_of(batch, r);
  next_states_of(batch, s_next);
  dones_of(batch, done);
}

}  // namespace deepcat::rl
