// DeepCAT — the paper's contribution. TD3 trained offline with RDPER
// (reward-driven dual-pool replay, §3.3), then online fine-tuning where
// every actor recommendation first passes through the Twin-Q Optimizer
// (Algorithm 1, §3.4): actions whose min(Q1, Q2) falls below Q_th are
// perturbed with Gaussian noise — without touching the cluster — until a
// promising candidate emerges, and only that candidate pays for a real
// configuration evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "rl/replay_rdper.hpp"
#include "rl/td3.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::tuners {

struct DeepCatOptions {
  /// state/action dims are filled in by the tuner from the environment.
  /// gamma defaults low: configuration tuning is a near-bandit MDP (the
  /// next state barely depends on the action), and a low discount keeps
  /// Q-values on the immediate-reward scale the paper's Q_th (0.1..0.5
  /// sweep, §5.4.2) is expressed in.
  rl::Td3Config td3 = {.gamma = 0.4};
  /// beta = 0.6 per §5.4.1. R_th sits above the Eq.(1) break-even so the
  /// high-reward pool holds only the scarce close-to-optimal transitions
  /// (with R_th = 0 the pool saturates once the policy is decent, and the
  /// forced 60% share turns from signal boost into sampling bias).
  rl::RdperConfig rdper = {.reward_threshold = 0.15};
  std::size_t replay_capacity_per_pool = 50'000;

  // Offline training schedule.
  std::size_t warmup_steps = 64;       ///< random actions before training
  double offline_explore_sigma = 0.25; ///< exploration noise during training
  std::size_t episode_length = 5;      ///< steps per offline episode

  // Online tuning.
  /// Extra exploration noise applied to the actor's online recommendation
  /// BEFORE Twin-Q screening. Defaults to 0: exploration happens inside
  /// Algorithm 1 itself (flagged actions are perturbed until one passes),
  /// which is what gives DeepCAT the paper's "stable online tuning phase"
  /// (§5.2.3) — every evaluated action was vetted by the twin critics.
  double online_explore_sigma = 0.0;
  double q_threshold = 0.3;        ///< Q_th (§5.4.2)
  double optimizer_sigma = 0.12;   ///< Gaussian noise sigma in Algorithm 1
  std::size_t max_optimizer_iters = 64;  ///< guard on Algorithm 1's loop
  std::size_t online_finetune_steps = 8; ///< gradient steps after each eval
  bool use_twin_q_optimizer = true;      ///< ablation switch (Fig. 5)
  bool use_rdper = true;                 ///< ablation switch (Fig. 4)

  std::uint64_t seed = 1234;

  /// Observability hand-off; propagated into td3.obs when the agent is
  /// materialized. Non-owning, inert by default, never serialized.
  obs::Sink obs{};
};

/// Per-iteration trace of offline training (drives Figs. 3 and 4).
struct OfflineIterationRecord {
  std::size_t iteration = 0;
  double reward = 0.0;         ///< real immediate reward of the action taken
  double min_q = 0.0;          ///< min(Q1,Q2) of the action before evaluation
  double exec_seconds = 0.0;
  bool success = false;
};

/// Statistics of the Twin-Q Optimizer's work during one online step.
struct TwinQOptimizerTrace {
  std::size_t iterations = 0;      ///< noise perturbations tried
  double initial_min_q = 0.0;
  double final_min_q = 0.0;
  bool accepted_original = false;  ///< actor's raw action already passed
};

class DeepCatTuner final : public OnlineTuner {
 public:
  explicit DeepCatTuner(DeepCatOptions options);

  [[nodiscard]] std::string name() const override { return "DeepCAT"; }

  /// Offline stage: interacts with `env` for `iterations` steps (each is
  /// one evaluation + one gradient step) filling the RDPER pools. Returns
  /// the per-iteration trace. May be called once; the model is then reused
  /// across many online tuning requests (paper §2). With `helpers` (an
  /// otherwise idle pool), one worker is borrowed for the whole loop and
  /// each gradient step runs its independent passes side by side; the
  /// trace and the trained state are bit-identical either way.
  std::vector<OfflineIterationRecord> train_offline(
      sparksim::TuningEnvironment& env, std::size_t iterations,
      common::ThreadPool* helpers = nullptr);

  /// Online stage: fine-tunes the offline model on the target environment
  /// for `num_steps` evaluations, Twin-Q-optimizing each recommendation.
  TuningReport tune(sparksim::TuningEnvironment& env, int num_steps) override;

  /// Same, but also stops once the accumulated tuning cost (evaluation +
  /// recommendation seconds) exceeds budget.max_total_seconds.
  TuningReport tune_with_budget(sparksim::TuningEnvironment& env,
                                const TuneBudget& budget);

  /// Algorithm 1 (bounded): optimizes `action` in place for `state`.
  TwinQOptimizerTrace optimize_action(std::span<const double> state,
                                      std::vector<double>& action);

  [[nodiscard]] rl::Td3Agent& agent();
  [[nodiscard]] const DeepCatOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const std::vector<TwinQOptimizerTrace>& last_online_traces()
      const noexcept {
    return online_traces_;
  }

  /// Builds the agent (random init from the tuner's RNG) + replay buffer
  /// for the given dimensions without an environment. No-op if the agent
  /// already exists with matching dims; throws on a dim mismatch.
  void materialize(std::size_t state_dim, std::size_t action_dim);

  /// Builds the agent as a clone of `frozen` (its dims, and its state
  /// copied by first reader: rl::Td3Agent's frozen-clone constructor, whose
  /// lifetime contract holds here) and takes `replay` as its buffer, in one
  /// call: how a served session clones its master. The tuner must not have
  /// an agent yet (throws std::logic_error); hidden sizes in options().td3
  /// that differ from `frozen`'s throw rl::AgentLayoutError.
  void materialize(const rl::Td3Agent& frozen,
                   std::unique_ptr<rl::ReplayBuffer> replay);

  /// Builds the agent straight from `snapshot` (its dims, networks,
  /// moments and train-step counter; no random init, no RNG draw) and a
  /// fresh replay buffer: how a checkpoint load builds a model that has no
  /// agent yet. The tuner must not have an agent (throws std::logic_error);
  /// a snapshot that does not fit options().td3's hidden sizes throws
  /// rl::AgentLayoutError.
  void materialize(rl::AgentSnapshot snapshot);

  [[nodiscard]] bool has_agent() const noexcept { return agent_ != nullptr; }

  /// The tuner's private RNG stream — checkpointed so that a reloaded tuner
  /// continues the exact exploration/optimizer noise sequence.
  [[nodiscard]] common::Rng& rng() noexcept { return rng_; }

  /// Replay buffer access (the checkpoint layer restores pool contents
  /// through it) and replacement, for a caller that interposes its own
  /// buffer on an agent it built another way; served sessions take their
  /// shared view through materialize(frozen, replay) instead.
  [[nodiscard]] rl::ReplayBuffer* replay() noexcept { return replay_.get(); }
  void set_replay(std::unique_ptr<rl::ReplayBuffer> replay) {
    replay_ = std::move(replay);
  }

 private:
  [[nodiscard]] std::unique_ptr<rl::ReplayBuffer> make_replay() const;
  void ensure_agent(const sparksim::TuningEnvironment& env);

  DeepCatOptions options_;
  common::Rng rng_;
  std::unique_ptr<rl::Td3Agent> agent_;
  std::unique_ptr<rl::ReplayBuffer> replay_;
  std::vector<TwinQOptimizerTrace> online_traces_;
  // Twin-Q Optimizer instruments, resolved once at construction.
  obs::Counter* obs_twinq_runs_ = nullptr;
  obs::Counter* obs_twinq_retries_ = nullptr;
  obs::Counter* obs_twinq_accepted_ = nullptr;
  obs::Gauge* obs_twinq_initial_q_ = nullptr;
  obs::Gauge* obs_twinq_final_q_ = nullptr;
};

}  // namespace deepcat::tuners
