// TD3 — twin delayed deep deterministic policy gradient (Fujimoto et al.,
// 2018), the algorithm DeepCAT trains (paper §3.2). Actions live in
// [0,1]^action_dim (sigmoid actor output). The six networks and the three
// optimizers are float32, as in the paper's PyTorch; states, actions,
// rewards, TD targets, losses and the RNG stay double at this interface.
// The twin critics double as DeepCAT's online execution-time indicator
// (paper §3.4): min(Q1, Q2) of a candidate action predicts whether it is
// worth a real evaluation.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "obs/sink.hpp"
#include "rl/agent_util.hpp"
#include "rl/replay.hpp"

namespace deepcat::common {
class Partner;
class ThreadPool;
}  // namespace deepcat::common

namespace deepcat::rl {

struct Td3Config {
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<std::size_t> hidden = {128, 128};
  double gamma = 0.99;           ///< discount factor
  double tau = 0.005;            ///< target soft-update rate
  double actor_lr = 1e-4;
  double critic_lr = 1e-3;
  double policy_noise = 0.2;     ///< target policy smoothing sigma
  double noise_clip = 0.5;       ///< smoothing noise clip
  std::size_t policy_delay = 2;  ///< critic updates per actor update
  std::size_t batch_size = 64;
  double grad_clip = 5.0;
  /// Observability hand-off (non-owning; default = inert, zero overhead
  /// beyond a null check). Not serialized by checkpoints — the hosting
  /// layer re-injects its sink when it materializes an agent.
  obs::Sink obs{};
};

/// Losses from one training step (actor_loss absent on non-policy steps).
struct Td3TrainStats {
  double critic1_loss = 0.0;
  double critic2_loss = 0.0;
  std::optional<double> actor_loss;
};

/// Move-only, like nn::Adam: a copy's optimizers would step this agent's
/// networks, so the copy would never learn.
class Td3Agent {
 public:
  Td3Agent(Td3Config config, common::Rng& rng);
  /// A clone of `frozen` that copies nothing but the train-step counter
  /// when it is built. Until its first train_step, or its first
  /// networks() or optimizers(), act, act_noisy, twin_q, min_q and
  /// min_q_rows run `frozen`'s actor and critics in place
  /// (Mlp::forward_row and forward_rows, into rows this clone owns) and
  /// snapshot() reads `frozen`'s state. That first call restores
  /// `frozen`'s snapshot(), copying each tensor once; a clone that never
  /// trains never copies them. Either way it holds `frozen`'s state bit for
  /// bit, with no random init.
  ///
  /// Lifetime: `frozen` must outlive the clone's first train step (or its
  /// destruction, if it never trains) and must not change before then. A
  /// served session's master is frozen while any of its sessions is in
  /// flight, which covers both (DESIGN.md §8). Neither the reads in place
  /// nor the late copy take a lock.
  ///
  /// `config` must have `frozen`'s state and action dims and hidden sizes;
  /// otherwise AgentLayoutError is thrown before anything is built.
  Td3Agent(Td3Config config, const Td3Agent& frozen);

  /// An agent whose networks, optimizer moments and train-step counter are
  /// `s`'s tensors (moved in), with no random init: how a checkpoint load
  /// builds a master. `s` must fit layout(config), else AgentLayoutError
  /// is thrown before anything is built.
  Td3Agent(Td3Config config, AgentSnapshot s);

  /// Deterministic policy output for one state, each dim in [0,1].
  [[nodiscard]] std::vector<double> act(std::span<const double> state);

  /// Policy output + exploration Gaussian noise (clamped to [0,1]).
  [[nodiscard]] std::vector<double> act_noisy(std::span<const double> state,
                                              double sigma, common::Rng& rng);

  /// Q-values of (state, action) from both critics.
  [[nodiscard]] std::pair<double, double> twin_q(std::span<const double> state,
                                                 std::span<const double> action);

  /// min(Q1, Q2) — the Twin-Q indicator used by DeepCAT's online optimizer.
  [[nodiscard]] double min_q(std::span<const double> state,
                             std::span<const double> action);

  /// min_q for several candidate actions against one state: `actions`
  /// holds out.size() actions back to back, and out[r] is min_q(state,
  /// action r) bit for bit. Each critic makes one pass over all of them
  /// (Mlp::forward_rows), which reads its weights once per four
  /// candidates instead of once per candidate.
  void min_q_rows(std::span<const double> state,
                  std::span<const double> actions, std::span<double> out);

  /// One gradient step on a batch sampled from `buffer`. Also feeds TD
  /// errors back for prioritized buffers. Requires buffer.size() > 0. On
  /// policy steps actor_loss is -mean Q1(s, pi(s)) as the actor update saw
  /// it, i.e. before that update. With a `partner`, the step's independent
  /// passes (the smoothing noise beside the target actor, the two target
  /// critics, the two critic updates, the actor's forward pass beside
  /// critic 1's update) run side by side on its borrowed worker, and the
  /// rest of the actor update splits its rows or elements across it;
  /// every result is bit-identical to the serial step.
  Td3TrainStats train_step(ReplayBuffer& buffer, common::Rng& rng,
                           common::Partner* partner = nullptr);

  /// Bounded continuous-update hook for the serving layer: takes up to
  /// `max_steps` train_step calls and returns how many were taken. Unlike
  /// train_step it is safe on a cold buffer — it takes no steps while
  /// `buffer` holds fewer than one full batch, so a freshly materialized
  /// master never trains on a degenerate sample. With `helpers`, one
  /// Partner borrowed from that (idle) pool serves every step.
  std::size_t fine_tune(ReplayBuffer& buffer, common::Rng& rng,
                        std::size_t max_steps,
                        common::ThreadPool* helpers = nullptr);

  [[nodiscard]] const Td3Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t train_steps() const noexcept { return steps_; }

  /// Named handles over the six networks / three optimizers, in snapshot
  /// order, for tests and benchmarks that inspect them in place. A clone
  /// completes its copy first.
  [[nodiscard]] std::vector<std::pair<const char*, nn::Mlp*>> networks();
  [[nodiscard]] std::vector<std::pair<const char*, nn::Adam*>> optimizers();

  /// Copies out the complete trainable state: the six networks, the three
  /// optimizers' moments and step counts, and the train-step counter. A
  /// clone that has not trained yet reads its frozen source, which it equals.
  [[nodiscard]] AgentSnapshot snapshot() const;

  /// Replaces this agent's state with an agent built from `s` (the
  /// snapshot constructor), dropping any frozen source. The moments and
  /// counter matter as much as the weights: both feed the next update. A
  /// snapshot that fails layout(config()).check throws AgentLayoutError
  /// and changes nothing.
  void restore(AgentSnapshot s);

  /// The state layout of an agent built from `config`, in snapshot order:
  /// "actor", "actor_target", "critic1", "critic2", "critic1_target",
  /// "critic2_target"; "actor_opt", "critic1_opt", "critic2_opt".
  [[nodiscard]] static AgentLayout layout(const Td3Config& config);

 private:
  /// Restores a clone's state from its frozen source's snapshot(); a no-op
  /// on any other agent.
  void thaw();
  /// The agent whose networks hold this one's state: a clone's frozen
  /// source until thaw(), otherwise this agent.
  [[nodiscard]] const Td3Agent& held() const noexcept {
    return frozen_ != nullptr ? *frozen_ : *this;
  }
  /// One policy step on buf_.s from buf_.pi_in = [s | pi(s)] and zeroed
  /// actor gradients, each pass split across `fork`; returns
  /// -mean Q1(s, pi(s)) before it.
  double update_actor(common::Partner& fork);
  /// Resolves the metric handles (registry lookups lock, so once).
  void bind_obs();

  Td3Config config_;
  nn::Mlp actor_, actor_target_;
  nn::Mlp critic1_, critic2_, critic1_target_, critic2_target_;
  nn::Adam actor_opt_, critic1_opt_, critic2_opt_;
  std::size_t steps_ = 0;
  /// A clone's source until thaw() or restore() replaces its state.
  const Td3Agent* frozen_ = nullptr;
  StepBuffers buf_;
  nn::Tensor row_in_;             // act's [s], the probes' [s | a] rows
  std::vector<nn::Tensor> rows_;  // their passes' layer output rows
  obs::Counter* obs_train_steps_ = nullptr;
  obs::Gauge* obs_critic1_loss_ = nullptr;
  obs::Gauge* obs_critic2_loss_ = nullptr;
  obs::Gauge* obs_actor_loss_ = nullptr;
  obs::Counter* obs_forks_shared_ = nullptr;
};

}  // namespace deepcat::rl
