// DDPG (Lillicrap et al., 2015) — the single-critic deterministic policy
// gradient agent that CDBTune builds on. Kept deliberately faithful to the
// original: one critic, no target smoothing, actor updated every step.
#pragma once

#include <iosfwd>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "rl/agent_util.hpp"
#include "rl/replay.hpp"

namespace deepcat::rl {

struct DdpgConfig {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<std::size_t> hidden = {128, 128};
  double gamma = 0.99;
  double tau = 0.005;
  double actor_lr = 1e-4;
  double critic_lr = 1e-3;
  std::size_t batch_size = 64;
  double grad_clip = 5.0;
};

struct DdpgTrainStats {
  double critic_loss = 0.0;
  double actor_loss = 0.0;
};

/// Move-only, like nn::Adam (see Td3Agent).
class DdpgAgent {
 public:
  DdpgAgent(DdpgConfig config, common::Rng& rng);

  [[nodiscard]] std::vector<double> act(std::span<const double> state);
  [[nodiscard]] std::vector<double> act_noisy(std::span<const double> state,
                                              double sigma, common::Rng& rng);

  /// Q(s, a) from the (single) critic.
  [[nodiscard]] double q_value(std::span<const double> state,
                               std::span<const double> action);

  DdpgTrainStats train_step(ReplayBuffer& buffer, common::Rng& rng);

  [[nodiscard]] const DdpgConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t train_steps() const noexcept { return steps_; }

  void save(std::ostream& os);
  void load(std::istream& is);

 private:
  DdpgConfig config_;
  nn::Mlp actor_, actor_target_, critic_, critic_target_;
  nn::Adam actor_opt_, critic_opt_;
  std::size_t steps_ = 0;
  StepBuffers buf_;
  nn::Matrix row_in_;             // act's [s], q_value's [s | a]
  std::vector<nn::Matrix> rows_;  // their passes' layer output rows
};

}  // namespace deepcat::rl
