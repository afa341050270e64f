#include "rl/ddpg.hpp"

#include <stdexcept>

#include "common/math_util.hpp"

namespace deepcat::rl {

namespace {

std::vector<std::size_t> net_dims(std::size_t in,
                                  const std::vector<std::size_t>& hidden,
                                  std::size_t out) {
  std::vector<std::size_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

void validate(const DdpgConfig& c) {
  if (c.state_dim == 0 || c.action_dim == 0) {
    throw std::invalid_argument("DdpgConfig: zero state/action dim");
  }
  if (c.batch_size == 0) throw std::invalid_argument("DdpgConfig: batch 0");
}

}  // namespace

DdpgAgent::DdpgAgent(DdpgConfig config, common::Rng& rng)
    : config_((validate(config), config)),
      actor_(net_dims(config_.state_dim, config_.hidden, config_.action_dim),
             rng, nn::OutputActivation::kSigmoid),
      actor_target_(actor_),
      critic_(net_dims(config_.state_dim + config_.action_dim, config_.hidden,
                       1),
              rng, nn::OutputActivation::kNone),
      critic_target_(critic_),
      actor_opt_(actor_.params(),
                 {.lr = config_.actor_lr, .grad_clip = config_.grad_clip}),
      critic_opt_(critic_.params(),
                  {.lr = config_.critic_lr, .grad_clip = config_.grad_clip}) {}

std::vector<double> DdpgAgent::act(std::span<const double> state) {
  if (state.size() != config_.state_dim) {
    throw std::invalid_argument("DdpgAgent::act: state dim mismatch");
  }
  state_action_row(state, {}, row_in_);
  const nn::Matrix& y = actor_.forward_row(row_in_, rows_);
  return {y.flat().begin(), y.flat().end()};
}

std::vector<double> DdpgAgent::act_noisy(std::span<const double> state,
                                         double sigma, common::Rng& rng) {
  auto action = act(state);
  for (double& a : action) {
    a = common::clamp(a + rng.normal(0.0, sigma), 0.0, 1.0);
  }
  return action;
}

double DdpgAgent::q_value(std::span<const double> state,
                          std::span<const double> action) {
  state_action_row(state, action, row_in_);
  return critic_.forward_row(row_in_, rows_)(0, 0);
}

DdpgTrainStats DdpgAgent::train_step(ReplayBuffer& buffer, common::Rng& rng) {
  const SampledBatch batch = buffer.sample(config_.batch_size, rng);
  const auto m = batch.size();
  StepBuffers& b = buf_;
  b.pack(batch.transitions);

  // y = r + gamma * Q'(s', mu'(s')) — no smoothing, single critic: this is
  // precisely the overestimation-prone target TD3 was designed to fix.
  concat_cols(b.s_next, actor_target_.forward(b.s_next), b.target_in);
  const nn::Matrix& q_next = critic_target_.forward(b.target_in);
  b.y.resize(m, 1);
  for (std::size_t i = 0; i < m; ++i) {
    b.y(i, 0) = b.r(i, 0) + config_.gamma * (1.0 - b.done(i, 0)) * q_next(i, 0);
  }

  DdpgTrainStats stats;
  std::vector<double> td_errors(m);

  critic_.zero_grad();
  concat_cols(b.s, b.a, b.sa);
  const nn::Matrix& pred = critic_.forward(b.sa);
  b.grad.resize(m, 1);
  double loss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double diff = pred(i, 0) - b.y(i, 0);
    const double w = batch.weights[i];
    loss += w * diff * diff;
    b.grad(i, 0) = 2.0 * w * diff / static_cast<double>(m);
    td_errors[i] = diff;
  }
  critic_.backward(b.sa, b.grad);
  critic_opt_.step();
  stats.critic_loss = loss / static_cast<double>(m);
  buffer.update_priorities(batch.ids, td_errors);

  // Actor ascent on Q(s, mu(s)); the critic only forms dQ/d(input).
  actor_.zero_grad();
  concat_cols(b.s, actor_.forward(b.s), b.pi_in);
  const nn::Matrix& q = critic_.forward(b.pi_in);
  double q_mean = 0.0;
  for (std::size_t i = 0; i < m; ++i) q_mean += q(i, 0);
  stats.actor_loss = -q_mean / static_cast<double>(m);

  b.dq.resize(m, 1);
  b.dq.fill(-1.0 / static_cast<double>(m));
  right_cols(critic_.input_grad(b.dq), config_.action_dim, b.d_action);
  actor_.backward(b.s, b.d_action);
  actor_opt_.step();

  actor_target_.soft_update_from(actor_, config_.tau);
  critic_target_.soft_update_from(critic_, config_.tau);
  ++steps_;
  return stats;
}

void DdpgAgent::save(std::ostream& os) {
  actor_.save(os);
  actor_target_.save(os);
  critic_.save(os);
  critic_target_.save(os);
}

void DdpgAgent::load(std::istream& is) {
  actor_.load(is);
  actor_target_.load(is);
  critic_.load(is);
  critic_target_.load(is);
}

}  // namespace deepcat::rl
