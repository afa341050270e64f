#include "rl/td3.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/math_util.hpp"
#include "common/thread_pool.hpp"

namespace deepcat::rl {

namespace {

std::vector<std::size_t> net_dims(std::size_t in,
                                  const std::vector<std::size_t>& hidden,
                                  std::size_t out) {
  std::vector<std::size_t> dims;
  dims.reserve(hidden.size() + 2);
  dims.push_back(in);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

std::vector<std::size_t> actor_dims(const Td3Config& c) {
  return net_dims(c.state_dim, c.hidden, c.action_dim);
}

std::vector<std::size_t> critic_dims(const Td3Config& c) {
  return net_dims(c.state_dim + c.action_dim, c.hidden, 1);
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

nn::Mlp copy_actor(const nn::Mlp& from) {
  return nn::Mlp(from.param_values(), nn::OutputActivation::kSigmoid);
}

nn::Mlp copy_critic(const nn::Mlp& from) {
  return nn::Mlp(from.param_values(), nn::OutputActivation::kNone);
}

/// An optimizer over `params` that resumes from `from`'s moments and step
/// count.
nn::Adam resume(std::vector<nn::Param> params, nn::AdamConfig config,
                const nn::Adam& from) {
  return nn::Adam(std::move(params), config, from.first_moments(),
                  from.second_moments(), from.step_count());
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
// fills them: until then act and twin_q read the frozen source's.
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

void Td3Agent::thaw() {
  if (frozen_ == nullptr) return;
  const Td3Agent& from = *frozen_;
  actor_ = copy_actor(from.actor_);
  actor_target_ = copy_actor(from.actor_target_);
  critic1_ = copy_critic(from.critic1_);
  critic2_ = copy_critic(from.critic2_);
  critic1_target_ = copy_critic(from.critic1_target_);
  critic2_target_ = copy_critic(from.critic2_target_);
  actor_opt_ = resume(actor_.params(), actor_adam(config_), from.actor_opt_);
  critic1_opt_ =
      resume(critic1_.params(), critic_adam(config_), from.critic1_opt_);
  critic2_opt_ =
      resume(critic2_.params(), critic_adam(config_), from.critic2_opt_);
  frozen_ = nullptr;
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
  const nn::Matrix& y = held().actor_.forward_row(row_in_, rows_);
  return {y.flat().begin(), y.flat().end()};
}

std::vector<double> Td3Agent::act_noisy(std::span<const double> state,
                                        double sigma, common::Rng& rng) {
  auto action = act(state);
  for (double& a : action) {
    a = common::clamp(a + rng.normal(0.0, sigma), 0.0, 1.0);
  }
  return action;
}

std::pair<double, double> Td3Agent::twin_q(std::span<const double> state,
                                           std::span<const double> action) {
  state_action_row(state, action, row_in_);
  const Td3Agent& from = held();
  const double q1 = from.critic1_.forward_row(row_in_, rows_)(0, 0);
  const double q2 = from.critic2_.forward_row(row_in_, rows_)(0, 0);
  return {q1, q2};
}

double Td3Agent::min_q(std::span<const double> state,
                       std::span<const double> action) {
  const auto [q1, q2] = twin_q(state, action);
  return std::min(q1, q2);
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
  // and added to the action columns of the target critics' input [s' | a'].
  const nn::Matrix* a_next = nullptr;
  fork.both(
      [&] { a_next = &actor_target_.forward(b.s_next); },
      [&] {
        b.noise.resize(m, config_.action_dim);
        for (double& eps : b.noise.flat()) {
          eps = common::clamp(rng.normal(0.0, config_.policy_noise),
                              -config_.noise_clip, config_.noise_clip);
        }
      });
  concat_cols(b.s_next, *a_next, b.target_in);
  for (std::size_t i = 0; i < m; ++i) {
    const auto eps = b.noise.row(i);
    const auto action = b.target_in.row(i).subspan(b.s_next.cols());
    for (std::size_t j = 0; j < action.size(); ++j) {
      action[j] = common::clamp(action[j] + eps[j], 0.0, 1.0);
    }
  }

  // Clipped double-Q target (TD3 trick #1).
  const nn::Matrix* q1_next = nullptr;
  const nn::Matrix* q2_next = nullptr;
  fork.both(
      [&] { q1_next = &critic1_target_.forward(b.target_in); },
      [&] { q2_next = &critic2_target_.forward(b.target_in); });
  b.y.resize(m, 1);
  for (std::size_t i = 0; i < m; ++i) {
    const double q_min = std::min((*q1_next)(i, 0), (*q2_next)(i, 0));
    b.y(i, 0) = b.r(i, 0) + config_.gamma * (1.0 - b.done(i, 0)) * q_min;
  }

  concat_cols(b.s, b.a, b.sa);
  Td3TrainStats stats;
  std::vector<double> td_errors(m);

  auto update_critic = [&](nn::Mlp& critic, nn::Adam& opt, nn::Matrix& grad,
                           bool record_td) -> double {
    critic.zero_grad();
    const nn::Matrix& pred = critic.forward(b.sa);
    // Importance-weighted MSE (weights are 1.0 for uniform/RDPER).
    grad.resize(m, 1);
    double loss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double diff = pred(i, 0) - b.y(i, 0);
      const double w = batch.weights[i];
      loss += w * diff * diff;
      grad(i, 0) = 2.0 * w * diff / static_cast<double>(m);
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
  const nn::Matrix& q = critic1_.forward(b.pi_in, fork);
  const std::size_t m = q.rows();
  double q_mean = 0.0;
  for (std::size_t i = 0; i < m; ++i) q_mean += q(i, 0);

  b.dq.resize(m, 1);
  b.dq.fill(-1.0 / static_cast<double>(m));  // d(-mean Q)/dQ
  right_cols(critic1_.input_grad(b.dq, fork), config_.action_dim,
             b.d_action);
  actor_.backward(b.s, b.d_action, fork);
  actor_opt_.step(fork);
  return -q_mean / static_cast<double>(m);
}

template <typename Self>
auto Td3Agent::network_table(Self& self) {
  const auto& n = kNetworks;
  return std::array{std::pair{n[0], &self.actor_},
                    std::pair{n[1], &self.actor_target_},
                    std::pair{n[2], &self.critic1_},
                    std::pair{n[3], &self.critic2_},
                    std::pair{n[4], &self.critic1_target_},
                    std::pair{n[5], &self.critic2_target_}};
}

template <typename Self>
auto Td3Agent::optimizer_table(Self& self) {
  const auto& o = kOptimizers;
  return std::array{std::pair{o[0], &self.actor_opt_},
                    std::pair{o[1], &self.critic1_opt_},
                    std::pair{o[2], &self.critic2_opt_}};
}

std::vector<std::pair<const char*, nn::Mlp*>> Td3Agent::networks() {
  thaw();
  const auto table = network_table(*this);
  return {table.begin(), table.end()};
}

std::vector<std::pair<const char*, nn::Adam*>> Td3Agent::optimizers() {
  thaw();
  const auto table = optimizer_table(*this);
  return {table.begin(), table.end()};
}

AgentSnapshot Td3Agent::snapshot() const {
  const Td3Agent& from = held();
  AgentSnapshot s;
  s.state_dim = config_.state_dim;
  s.action_dim = config_.action_dim;
  for (const auto& [name, net] : network_table(from)) {
    s.networks.push_back(net->param_values());
  }
  for (const auto& [name, opt] : optimizer_table(from)) {
    s.optimizers.push_back(
        {opt->first_moments(), opt->second_moments(), opt->step_count()});
  }
  s.train_steps = steps_;
  return s;
}

void Td3Agent::save(std::ostream& os) {
  for (auto& [name, net] : networks()) net->save(os);
  for (auto& [name, opt] : optimizers()) opt->save(os);
  os << steps_ << '\n';
}

void Td3Agent::load(std::istream& is) {
  for (auto& [name, net] : networks()) net->load(is);
  for (auto& [name, opt] : optimizers()) opt->load(is);
  is >> steps_;
  if (!is) throw std::runtime_error("Td3Agent::load: truncated stream");
}

}  // namespace deepcat::rl
