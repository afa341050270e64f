#include "rl/td3.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/math_util.hpp"
#include "common/thread_pool.hpp"

namespace deepcat::rl {

namespace {

std::vector<std::size_t> actor_dims(const Td3Config& c) {
  return layer_widths(c.state_dim, c.hidden, c.action_dim);
}

std::vector<std::size_t> critic_dims(const Td3Config& c) {
  return layer_widths(c.state_dim + c.action_dim, c.hidden, 1);
}

nn::Mlp make_actor(const Td3Config& c, common::Rng& rng) {
  return nn::Mlp(actor_dims(c), rng, nn::OutputActivation::kSigmoid);
}

nn::Mlp make_critic(const Td3Config& c, common::Rng& rng) {
  return nn::Mlp(critic_dims(c), rng, nn::OutputActivation::kNone);
}

nn::AdamConfig actor_adam(const Td3Config& c) {
  return {.lr = c.actor_lr, .grad_clip = c.grad_clip};
}

nn::AdamConfig critic_adam(const Td3Config& c) {
  return {.lr = c.critic_lr, .grad_clip = c.grad_clip};
}

/// The networks and optimizers in snapshot order (Td3Agent::networks() and
/// optimizers()).
constexpr std::array<const char*, 6> kNetworks{
    "actor",   "actor_target",   "critic1",
    "critic2", "critic1_target", "critic2_target"};
constexpr std::array<const char*, 3> kOptimizers{"actor_opt", "critic1_opt",
                                                 "critic2_opt"};

void validate(const Td3Config& c) {
  if (c.state_dim == 0 || c.action_dim == 0) {
    throw std::invalid_argument("Td3Config: zero state/action dim");
  }
  if (c.batch_size == 0) throw std::invalid_argument("Td3Config: batch 0");
  if (c.policy_delay == 0) {
    throw std::invalid_argument("Td3Config: policy_delay 0");
  }
  if (c.gamma < 0.0 || c.gamma > 1.0) {
    throw std::invalid_argument("Td3Config: gamma out of range");
  }
}

std::string layout_of(const Td3Config& c) {
  std::string out = std::to_string(c.state_dim) + "->[";
  for (std::size_t i = 0; i < c.hidden.size(); ++i) {
    out += (i == 0 ? "" : ",") + std::to_string(c.hidden[i]);
  }
  return out + "]->" + std::to_string(c.action_dim);
}

/// Throws AgentLayoutError unless an agent built from `c` has networks of
/// the same shapes as `frozen`'s.
void check_layout(const Td3Config& c, const Td3Config& frozen) {
  if (c.state_dim != frozen.state_dim || c.action_dim != frozen.action_dim ||
      c.hidden != frozen.hidden) {
    throw AgentLayoutError("Td3Agent: clone layout " + layout_of(c) +
                           " differs from the frozen agent's " +
                           layout_of(frozen));
  }
}

}  // namespace

Td3Agent::Td3Agent(Td3Config config, common::Rng& rng)
    : config_((validate(config), config)),
      actor_(make_actor(config_, rng)),
      actor_target_(actor_),
      critic1_(make_critic(config_, rng)),
      critic2_(make_critic(config_, rng)),
      critic1_target_(critic1_),
      critic2_target_(critic2_),
      actor_opt_(actor_.params(), actor_adam(config_)),
      critic1_opt_(critic1_.params(), critic_adam(config_)),
      critic2_opt_(critic2_.params(), critic_adam(config_)) {
  bind_obs();
}

// The networks stay empty and the optimizers bound to nothing until thaw()
// or restore(); until then act and twin_q read the frozen source's.
Td3Agent::Td3Agent(Td3Config config, const Td3Agent& frozen)
    : config_((validate(config), check_layout(config, frozen.config_), config)),
      actor_opt_({}, actor_adam(config_)),
      critic1_opt_({}, critic_adam(config_)),
      critic2_opt_({}, critic_adam(config_)),
      steps_(frozen.steps_),
      // A clone of an untrained clone still equals the first source.
      frozen_(frozen.frozen_ != nullptr ? frozen.frozen_ : &frozen) {
  bind_obs();
}

Td3Agent::Td3Agent(Td3Config config, AgentSnapshot s)
    : config_((validate(config), layout(config).check(s), config)),
      actor_(std::move(s.networks[0]), nn::OutputActivation::kSigmoid),
      actor_target_(std::move(s.networks[1]), nn::OutputActivation::kSigmoid),
      critic1_(std::move(s.networks[2]), nn::OutputActivation::kNone),
      critic2_(std::move(s.networks[3]), nn::OutputActivation::kNone),
      critic1_target_(std::move(s.networks[4]), nn::OutputActivation::kNone),
      critic2_target_(std::move(s.networks[5]), nn::OutputActivation::kNone),
      actor_opt_(resume_adam(actor_, actor_adam(config_), s.optimizers[0])),
      critic1_opt_(
          resume_adam(critic1_, critic_adam(config_), s.optimizers[1])),
      critic2_opt_(
          resume_adam(critic2_, critic_adam(config_), s.optimizers[2])),
      steps_(s.train_steps) {
  bind_obs();
}

void Td3Agent::thaw() {
  if (frozen_ != nullptr) restore(frozen_->snapshot());
}

void Td3Agent::bind_obs() {
  if (config_.obs.metrics != nullptr) {
    obs_train_steps_ = &config_.obs.metrics->counter("rl.train_steps");
    obs_critic1_loss_ = &config_.obs.metrics->gauge("rl.critic1_loss");
    obs_critic2_loss_ = &config_.obs.metrics->gauge("rl.critic2_loss");
    obs_actor_loss_ = &config_.obs.metrics->gauge("rl.actor_loss");
    // How often the helper took a branch is the scheduler's call.
    obs_forks_shared_ = &config_.obs.metrics->counter(
        "rl.forks_shared", /*deterministic=*/false);
  }
}

std::vector<double> Td3Agent::act(std::span<const double> state) {
  if (state.size() != config_.state_dim) {
    throw std::invalid_argument("Td3Agent::act: state dim mismatch");
  }
  state_action_row(state, {}, row_in_);
  return to_doubles(held().actor_.forward_row(row_in_, rows_).flat());
}

std::vector<double> Td3Agent::act_noisy(std::span<const double> state,
                                        double sigma, common::Rng& rng) {
  auto action = act(state);
  std::vector<double> noise(action.size());
  rng.normals(noise.data(), noise.size(), 0.0, sigma);
  for (std::size_t j = 0; j < action.size(); ++j) {
    action[j] = common::clamp(action[j] + noise[j], 0.0, 1.0);
  }
  return action;
}

std::pair<double, double> Td3Agent::twin_q(std::span<const double> state,
                                           std::span<const double> action) {
  state_action_row(state, action, row_in_);
  const Td3Agent& from = held();
  const float q1 = from.critic1_.forward_row(row_in_, rows_)(0, 0);
  const float q2 = from.critic2_.forward_row(row_in_, rows_)(0, 0);
  return {static_cast<double>(q1), static_cast<double>(q2)};
}

double Td3Agent::min_q(std::span<const double> state,
                       std::span<const double> action) {
  const auto [q1, q2] = twin_q(state, action);
  return std::min(q1, q2);
}

void Td3Agent::min_q_rows(std::span<const double> state,
                          std::span<const double> actions,
                          std::span<double> out) {
  if (actions.size() != out.size() * config_.action_dim) {
    throw std::invalid_argument("Td3Agent::min_q_rows: actions/out mismatch");
  }
  state_action_rows(state, actions, out.size(), row_in_);
  const Td3Agent& from = held();
  // Critic 1's column goes to `out` before critic 2's pass reuses rows_.
  const nn::Tensor& q1 = from.critic1_.forward_rows(row_in_, rows_);
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = static_cast<double>(q1(r, 0));
  }
  const nn::Tensor& q2 = from.critic2_.forward_rows(row_in_, rows_);
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r] = std::min(out[r], static_cast<double>(q2(r, 0)));
  }
}

std::size_t Td3Agent::fine_tune(ReplayBuffer& buffer, common::Rng& rng,
                                std::size_t max_steps,
                                common::ThreadPool* helpers) {
  if (buffer.size() < config_.batch_size) return 0;
  common::Partner partner(helpers);
  std::size_t taken = 0;
  for (; taken < max_steps; ++taken) {
    (void)train_step(buffer, rng, &partner);
  }
  return taken;
}

Td3TrainStats Td3Agent::train_step(ReplayBuffer& buffer, common::Rng& rng,
                                   common::Partner* partner) {
  thaw();
  common::Partner serial;
  common::Partner& fork = partner != nullptr ? *partner : serial;
  const SampledBatch batch = buffer.sample(config_.batch_size, rng);
  const auto m = batch.size();
  StepBuffers& b = buf_;
  b.pack(batch.transitions);
  const std::size_t forks_before = fork.forks_shared();

  // Target action with clipped smoothing noise (TD3 trick #3). The noise is
  // drawn beside the target actor's pass, row by row and action by action,
  // then clipped and added to the action columns of the target critics'
  // input [s' | a'] in double, each sum clamped and narrowed once.
  const nn::Tensor* a_next = nullptr;
  fork.both(
      [&] { a_next = &actor_target_.forward(b.s_next); },
      [&] {
        b.noise.resize(m, config_.action_dim);
        rng.normals(b.noise.data(), b.noise.size(), 0.0,
                    config_.policy_noise);
      });
  concat_cols(b.s_next, *a_next, b.target_in);
  for (std::size_t i = 0; i < m; ++i) {
    const auto eps = b.noise.row(i);
    const auto action = b.target_in.row(i).subspan(b.s_next.cols());
    for (std::size_t j = 0; j < action.size(); ++j) {
      const double clipped =
          common::clamp(eps[j], -config_.noise_clip, config_.noise_clip);
      action[j] = static_cast<float>(common::clamp(
          static_cast<double>(action[j]) + clipped, 0.0, 1.0));
    }
  }

  // Clipped double-Q target (TD3 trick #1), formed in double.
  const nn::Tensor* q1_next = nullptr;
  const nn::Tensor* q2_next = nullptr;
  fork.both(
      [&] { q1_next = &critic1_target_.forward(b.target_in); },
      [&] { q2_next = &critic2_target_.forward(b.target_in); });
  b.y.resize(m, 1);
  for (std::size_t i = 0; i < m; ++i) {
    const auto q_min = static_cast<double>(std::min((*q1_next)(i, 0),
                                                     (*q2_next)(i, 0)));
    b.y(i, 0) = b.r(i, 0) + config_.gamma * (1.0 - b.done(i, 0)) * q_min;
  }

  concat_cols(b.s, b.a, b.sa);
  Td3TrainStats stats;
  std::vector<double> td_errors(m);

  auto update_critic = [&](nn::Mlp& critic, nn::Adam& opt, nn::Tensor& grad,
                           bool record_td) -> double {
    critic.zero_grad();
    const nn::Tensor& pred = critic.forward(b.sa);
    // Importance-weighted MSE (weights are 1.0 for uniform/RDPER), in
    // double; each output gradient is narrowed once.
    grad.resize(m, 1);
    double loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double diff = static_cast<double>(pred(i, 0)) - b.y(i, 0);
      const double w = batch.weights[i];
      loss += w * diff * diff;
      grad(i, 0) = static_cast<float>(2.0 * w * diff / static_cast<double>(m));
      if (record_td) td_errors[i] = diff;
    }
    critic.backward(b.sa, grad);
    opt.step();
    return loss / static_cast<double>(m);
  };

  // Each critic's update beside the other's, each followed on a policy step
  // (TD3 trick #2) by its own target's soft update. The actor's forward
  // pass rides with critic 2: it reads only the actor, which nothing
  // changes before the actor's Adam step. The rest of the actor update
  // reads critic 1, final only after the join, so it runs after it, each
  // pass split across the partner.
  const bool policy_step = (steps_ + 1) % config_.policy_delay == 0;
  fork.both(
      [&] {
        stats.critic1_loss =
            update_critic(critic1_, critic1_opt_, b.grad, true);
        if (policy_step) {
          critic1_target_.soft_update_from(critic1_, config_.tau);
        }
      },
      [&] {
        stats.critic2_loss =
            update_critic(critic2_, critic2_opt_, b.grad2, false);
        if (!policy_step) return;
        critic2_target_.soft_update_from(critic2_, config_.tau);
        actor_.zero_grad();
        concat_cols(b.s, actor_.forward(b.s), b.pi_in);
      });
  if (policy_step) {
    stats.actor_loss = update_actor(fork);
    actor_target_.soft_update_from(actor_, config_.tau, fork);
  }
  buffer.update_priorities(batch.ids, td_errors);
  ++steps_;

  if (obs_train_steps_ != nullptr) {
    obs_train_steps_->add(1);
    obs_critic1_loss_->set(stats.critic1_loss);
    obs_critic2_loss_->set(stats.critic2_loss);
    if (stats.actor_loss) obs_actor_loss_->set(*stats.actor_loss);
    const std::size_t shared = fork.forks_shared() - forks_before;
    if (shared != 0) obs_forks_shared_->add(shared);
  }
  // Convergence history: one point per train step (the serving layer only
  // attaches a series registry to the master agent, so these trace the
  // master's fine-tune trajectory, not per-session clones).
  config_.obs.record_series("rl.critic1_loss", stats.critic1_loss);
  config_.obs.record_series("rl.critic2_loss", stats.critic2_loss);
  if (stats.actor_loss) {
    config_.obs.record_series("rl.actor_loss", *stats.actor_loss);
  }
  return stats;
}

double Td3Agent::update_actor(common::Partner& fork) {
  // Maximize Q1(s, pi(s)): gradient of -mean(Q1) w.r.t. actor parameters,
  // chained through the critic input (paper Eq. 4 decomposition). Only
  // dQ1/d(input) is formed for the critic; its parameter gradients would
  // be discarded, and the actor's own dL/ds is never read. b.pi_in holds
  // [s | pi(s)] and the actor's gradients are zeroed (train_step's fork).
  StepBuffers& b = buf_;
  const nn::Tensor& q = critic1_.forward(b.pi_in, fork);
  const std::size_t m = q.rows();
  double q_mean = 0.0;
  for (std::size_t i = 0; i < m; ++i) q_mean += static_cast<double>(q(i, 0));

  b.dq.resize(m, 1);
  // d(-mean Q)/dQ
  b.dq.fill(static_cast<float>(-1.0 / static_cast<double>(m)));
  right_cols(critic1_.input_grad(b.dq, fork), config_.action_dim,
             b.d_action);
  actor_.backward(b.s, b.d_action, fork);
  actor_opt_.step(fork);
  return -q_mean / static_cast<double>(m);
}

std::vector<std::pair<const char*, nn::Mlp*>> Td3Agent::networks() {
  thaw();
  const auto& n = kNetworks;
  return {{n[0], &actor_},          {n[1], &actor_target_},
          {n[2], &critic1_},        {n[3], &critic2_},
          {n[4], &critic1_target_}, {n[5], &critic2_target_}};
}

std::vector<std::pair<const char*, nn::Adam*>> Td3Agent::optimizers() {
  thaw();
  const auto& o = kOptimizers;
  return {{o[0], &actor_opt_}, {o[1], &critic1_opt_}, {o[2], &critic2_opt_}};
}

AgentSnapshot Td3Agent::snapshot() const {
  const Td3Agent& f = held();
  AgentSnapshot s;
  s.state_dim = config_.state_dim;
  s.action_dim = config_.action_dim;
  s.train_steps = steps_;
  s.networks.reserve(6);
  s.optimizers.reserve(3);
  for (const nn::Mlp* net : {&f.actor_, &f.actor_target_, &f.critic1_,
                             &f.critic2_, &f.critic1_target_,
                             &f.critic2_target_}) {
    s.networks.push_back(net->param_values());
  }
  for (const nn::Adam* opt :
       {&f.actor_opt_, &f.critic1_opt_, &f.critic2_opt_}) {
    s.optimizers.push_back(state_of(*opt));
  }
  return s;
}

void Td3Agent::restore(AgentSnapshot s) {
  *this = Td3Agent(config_, std::move(s));
}

AgentLayout Td3Agent::layout(const Td3Config& config) {
  const auto actor = actor_dims(config);
  const auto critic = critic_dims(config);
  const auto& n = kNetworks;
  const auto& o = kOptimizers;
  return {.state_dim = config.state_dim,
          .action_dim = config.action_dim,
          .networks = {{n[0], actor}, {n[1], actor}, {n[2], critic},
                       {n[3], critic}, {n[4], critic}, {n[5], critic}},
          .optimizers = {{o[0], 0}, {o[1], 2}, {o[2], 3}}};
}

}  // namespace deepcat::rl
