// CDBTune baseline (Zhang et al., SIGMOD 2019): DDPG agent with TD-error
// prioritized experience replay, trained offline by trial-and-error and
// fine-tuned online. No twin critics, no reward-driven replay, no
// recommendation-time optimizer — exactly the gap DeepCAT targets.
#pragma once

#include <cstdint>
#include <memory>

#include "rl/ddpg.hpp"
#include "rl/replay_per.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::tuners {

struct CdbTuneOptions {
  rl::DdpgConfig ddpg = {.gamma = 0.4};  ///< same discount scale as DeepCAT
  rl::PerConfig per;
  std::size_t replay_capacity = 100'000;
  std::size_t warmup_steps = 64;
  double offline_explore_sigma = 0.25;
  std::size_t episode_length = 5;
  /// Online exploration noise (same magnitude as DeepCAT's). CDBTune keeps
  /// exploring while fine-tuning — every risky perturbation is evaluated
  /// for real, which is exactly the per-step cost DeepCAT's Twin-Q
  /// Optimizer screens out.
  double online_explore_sigma = 0.15;
  std::size_t online_finetune_steps = 8;
  std::uint64_t seed = 4321;
};

class CdbTuneTuner final : public OnlineTuner {
 public:
  explicit CdbTuneTuner(CdbTuneOptions options);

  [[nodiscard]] std::string name() const override { return "CDBTune"; }

  /// Offline trial-and-error training (one evaluation + one gradient step
  /// per iteration), mirroring DeepCatTuner::train_offline.
  void train_offline(sparksim::TuningEnvironment& env,
                     std::size_t iterations);

  TuningReport tune(sparksim::TuningEnvironment& env, int num_steps) override;

  [[nodiscard]] rl::DdpgAgent& agent();

 private:
  void ensure_agent(const sparksim::TuningEnvironment& env);

  CdbTuneOptions options_;
  common::Rng rng_;
  std::unique_ptr<rl::DdpgAgent> agent_;
  std::unique_ptr<rl::PrioritizedReplay> replay_;
};

}  // namespace deepcat::tuners
