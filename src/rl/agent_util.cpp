#include "rl/agent_util.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace deepcat::rl {

namespace {

std::string shape(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

[[noreturn]] void refuse(const std::string& what) {
  throw AgentLayoutError("agent snapshot: " + what);
}

/// Refuses `tensors` unless they have the shapes of the params() of a
/// network with layer `widths`: (in x out) per weight, (1 x out) per bias.
void check_tensors(const std::vector<nn::Tensor>& tensors,
                   const std::vector<std::size_t>& widths,
                   const std::string& where) {
  const std::size_t want = 2 * (widths.size() - 1);
  if (tensors.size() != want) {
    refuse(where + " holds " + std::to_string(tensors.size()) +
           " tensors, the agent's " + std::to_string(want));
  }
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t rows = i % 2 == 0 ? widths[i / 2] : 1;
    const std::size_t cols = widths[i / 2 + 1];
    if (tensors[i].rows() != rows || tensors[i].cols() != cols) {
      refuse(where + " tensor " + std::to_string(i) + " is " +
             shape(tensors[i].rows(), tensors[i].cols()) +
             ", the agent's is " + shape(rows, cols));
    }
  }
}

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

void AgentLayout::check(const AgentSnapshot& s) const {
  if (s.state_dim != state_dim || s.action_dim != action_dim) {
    refuse("dims " + shape(s.state_dim, s.action_dim) +
           " (state x action), the agent's are " +
           shape(state_dim, action_dim));
  }
  if (s.networks.size() != networks.size() ||
      s.optimizers.size() != optimizers.size()) {
    refuse(std::to_string(s.networks.size()) + " networks and " +
           std::to_string(s.optimizers.size()) + " optimizers, the agent has " +
           std::to_string(networks.size()) + " and " +
           std::to_string(optimizers.size()));
  }
  for (std::size_t n = 0; n < networks.size(); ++n) {
    check_tensors(s.networks[n], networks[n].widths,
                  std::string("network '") + networks[n].name + "'");
  }
  for (std::size_t o = 0; o < optimizers.size(); ++o) {
    const auto& widths = networks[optimizers[o].network].widths;
    const std::string where = std::string("optimizer '") + optimizers[o].name;
    check_tensors(s.optimizers[o].first_moments, widths,
                  where + "' first moments");
    check_tensors(s.optimizers[o].second_moments, widths,
                  where + "' second moments");
  }
}

std::vector<std::size_t> layer_widths(std::size_t in,
                                      const std::vector<std::size_t>& hidden,
                                      std::size_t out) {
  std::vector<std::size_t> widths{in};
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  widths.push_back(out);
  return widths;
}

nn::Adam resume_adam(nn::Mlp& net, const nn::AdamConfig& config,
                     AgentSnapshot::OptimizerState& state) {
  return nn::Adam(net.params(), config, std::move(state.first_moments),
                  std::move(state.second_moments), state.step_count);
}

AgentSnapshot::OptimizerState state_of(const nn::Adam& opt) {
  return {opt.first_moments(), opt.second_moments(), opt.step_count()};
}

void StepBuffers::pack(std::span<const Transition* const> batch) {
  states_of(batch, s);
  actions_of(batch, a);
  rewards_of(batch, r);
  next_states_of(batch, s_next);
  dones_of(batch, done);
}

}  // namespace deepcat::rl
