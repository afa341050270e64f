#include "rl/ddpg.hpp"

#include <stdexcept>
#include <utility>

#include "common/math_util.hpp"

namespace deepcat::rl {

namespace {

AgentLayout layout(const DdpgConfig& c) {
  const auto actor = layer_widths(c.state_dim, c.hidden, c.action_dim);
  const auto critic = layer_widths(c.state_dim + c.action_dim, c.hidden, 1);
  return {.state_dim = c.state_dim,
          .action_dim = c.action_dim,
          .networks = {{"actor", actor}, {"actor_target", actor},
                       {"critic", critic}, {"critic_target", critic}},
          .optimizers = {{"actor_opt", 0}, {"critic_opt", 2}}};
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
      actor_(layout(config_).networks[0].widths, rng,
             nn::OutputActivation::kSigmoid),
      actor_target_(actor_),
      critic_(layout(config_).networks[2].widths, rng,
              nn::OutputActivation::kNone),
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
  return to_doubles(actor_.forward_row(row_in_, rows_).flat());
}

std::vector<double> DdpgAgent::act_noisy(std::span<const double> state,
                                         double sigma, common::Rng& rng) {
  auto action = act(state);
  std::vector<double> noise(action.size());
  rng.normals(noise.data(), noise.size(), 0.0, sigma);
  for (std::size_t j = 0; j < action.size(); ++j) {
    action[j] = common::clamp(action[j] + noise[j], 0.0, 1.0);
  }
  return action;
}

double DdpgAgent::q_value(std::span<const double> state,
                          std::span<const double> action) {
  state_action_row(state, action, row_in_);
  return static_cast<double>(critic_.forward_row(row_in_, rows_)(0, 0));
}

DdpgTrainStats DdpgAgent::train_step(ReplayBuffer& buffer, common::Rng& rng) {
  const SampledBatch batch = buffer.sample(config_.batch_size, rng);
  const auto m = batch.size();
  StepBuffers& b = buf_;
  b.pack(batch.transitions);

  // y = r + gamma * Q'(s', mu'(s')) — no smoothing, single critic: this is
  // precisely the overestimation-prone target TD3 was designed to fix.
  concat_cols(b.s_next, actor_target_.forward(b.s_next), b.target_in);
  const nn::Tensor& q_next = critic_target_.forward(b.target_in);
  b.y.resize(m, 1);
  for (std::size_t i = 0; i < m; ++i) {
    b.y(i, 0) = b.r(i, 0) + config_.gamma * (1.0 - b.done(i, 0)) *
                                static_cast<double>(q_next(i, 0));
  }

  DdpgTrainStats stats;
  std::vector<double> td_errors(m);

  critic_.zero_grad();
  concat_cols(b.s, b.a, b.sa);
  const nn::Tensor& pred = critic_.forward(b.sa);
  b.grad.resize(m, 1);
  double loss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double diff = static_cast<double>(pred(i, 0)) - b.y(i, 0);
    const double w = batch.weights[i];
    loss += w * diff * diff;
    b.grad(i, 0) = static_cast<float>(2.0 * w * diff / static_cast<double>(m));
    td_errors[i] = diff;
  }
  critic_.backward(b.sa, b.grad);
  critic_opt_.step();
  stats.critic_loss = loss / static_cast<double>(m);
  buffer.update_priorities(batch.ids, td_errors);

  // Actor ascent on Q(s, mu(s)); the critic only forms dQ/d(input).
  actor_.zero_grad();
  concat_cols(b.s, actor_.forward(b.s), b.pi_in);
  const nn::Tensor& q = critic_.forward(b.pi_in);
  double q_mean = 0.0;
  for (std::size_t i = 0; i < m; ++i) q_mean += static_cast<double>(q(i, 0));
  stats.actor_loss = -q_mean / static_cast<double>(m);

  b.dq.resize(m, 1);
  b.dq.fill(static_cast<float>(-1.0 / static_cast<double>(m)));
  right_cols(critic_.input_grad(b.dq), config_.action_dim, b.d_action);
  actor_.backward(b.s, b.d_action);
  actor_opt_.step();

  actor_target_.soft_update_from(actor_, config_.tau);
  critic_target_.soft_update_from(critic_, config_.tau);
  ++steps_;
  return stats;
}

AgentSnapshot DdpgAgent::snapshot() const {
  AgentSnapshot s;
  s.state_dim = config_.state_dim;
  s.action_dim = config_.action_dim;
  s.train_steps = steps_;
  for (const nn::Mlp* net : {&actor_, &actor_target_, &critic_,
                             &critic_target_}) {
    s.networks.push_back(net->param_values());
  }
  s.optimizers.push_back(state_of(actor_opt_));
  s.optimizers.push_back(state_of(critic_opt_));
  return s;
}

void DdpgAgent::restore(AgentSnapshot s) {
  layout(config_).check(s);
  auto& n = s.networks;
  actor_ = nn::Mlp(std::move(n[0]), nn::OutputActivation::kSigmoid);
  actor_target_ = nn::Mlp(std::move(n[1]), nn::OutputActivation::kSigmoid);
  critic_ = nn::Mlp(std::move(n[2]), nn::OutputActivation::kNone);
  critic_target_ = nn::Mlp(std::move(n[3]), nn::OutputActivation::kNone);
  actor_opt_ = resume_adam(actor_, actor_opt_.config(), s.optimizers[0]);
  critic_opt_ = resume_adam(critic_, critic_opt_.config(), s.optimizers[1]);
  steps_ = s.train_steps;
}

}  // namespace deepcat::rl
