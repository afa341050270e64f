// Design-choice ablation (DESIGN.md §5): the same TD3 agent trained with
// three replay schemes — conventional uniform replay, TD-error PER
// (Schaul et al., what CDBTune pairs with DDPG), and DeepCAT's RDPER —
// each evaluated by the best configuration its model recommends online.
// Complements Fig. 4 (which ablates RDPER against uniform replay only).
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "rl/replay_per.hpp"

namespace {

using namespace deepcat;
using namespace deepcat::sparksim;

double evaluate_model(tuners::DeepCatTuner& tuner) {
  const rl::AgentSnapshot snapshot = tuner.agent().snapshot();
  double best = 0.0;
  constexpr int kSessions = 3;
  for (int s = 0; s < kSessions; ++s) {
    TuningEnvironment env = bench::make_env(
        hibench_case("TS-D1"), 5000 + static_cast<std::uint64_t>(s) * 131);
    best += tuner.tune(env, bench::kOnlineSteps).best_time / kSessions;
    tuner.agent().restore(snapshot);
  }
  return best;
}

// TD3 + TD-error PER is not a stock DeepCatTuner configuration; train the
// agent manually against the environment with a PrioritizedReplay buffer,
// mirroring DeepCatTuner::train_offline's loop.
double td3_with_per(std::uint64_t seed, std::size_t iterations) {
  common::Rng rng(seed);
  TuningEnvironment env = bench::make_env(hibench_case("TS-D1"), seed);
  rl::Td3Config config;
  config.state_dim = env.state_dim();
  config.action_dim = env.action_dim();
  config.gamma = 0.4;
  rl::Td3Agent agent(config, rng);
  rl::PrioritizedReplay replay(100'000);

  std::vector<double> state = env.reset();
  for (std::size_t it = 0; it < iterations; ++it) {
    std::vector<double> action;
    if (replay.size() < 64) {
      action.resize(env.action_dim());
      for (double& a : action) a = rng.uniform();
    } else {
      action = agent.act_noisy(state, 0.25, rng);
    }
    const StepResult res = env.step(action);
    replay.add({state, action, res.reward, res.state, (it + 1) % 5 == 0});
    if (replay.size() >= config.batch_size) {
      (void)agent.train_step(replay, rng);
    }
    state = res.state;
  }

  // Online: 5 deterministic recommendations, fine-tuning disabled for the
  // manual agent (the comparison targets offline replay quality).
  double best_avg = 0.0;
  constexpr int kSessions = 3;
  for (int s = 0; s < kSessions; ++s) {
    TuningEnvironment tune_env = bench::make_env(
        hibench_case("TS-D1"), 5000 + static_cast<std::uint64_t>(s) * 131);
    std::vector<double> st = tune_env.reset();
    double best = tune_env.default_time();
    for (int step = 0; step < bench::kOnlineSteps; ++step) {
      const StepResult res = tune_env.step(agent.act(st));
      if (res.success) best = std::min(best, res.exec_seconds);
      st = res.state;
    }
    best_avg += best / kSessions;
  }
  return best_avg;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 44;
  common::Table t(
      "Ablation: TD3 replay scheme vs best online-recommended execution "
      "time (TeraSort 3.2 GB, " +
      std::to_string(bench::kOfflineIters) + " offline iterations)");
  t.header({"replay scheme", "best exec time (s)"});

  {
    tuners::DeepCatOptions o = bench::deepcat_options(kSeed);
    o.use_rdper = false;
    tuners::DeepCatTuner tuner(o);
    TuningEnvironment env = bench::make_env(hibench_case("TS-D1"), kSeed);
    (void)tuner.train_offline(env, bench::kOfflineIters);
    t.row({"uniform (conventional)", common::cell(evaluate_model(tuner), 1)});
  }
  t.row({"TD-error PER (Schaul et al.)",
         common::cell(td3_with_per(kSeed, bench::kOfflineIters), 1)});
  {
    tuners::DeepCatOptions o = bench::deepcat_options(kSeed);
    tuners::DeepCatTuner tuner(o);
    TuningEnvironment env = bench::make_env(hibench_case("TS-D1"), kSeed);
    (void)tuner.train_offline(env, bench::kOfflineIters);
    t.row({"RDPER (DeepCAT)", common::cell(evaluate_model(tuner), 1)});
  }
  t.print(std::cout);
  std::cout << "\n(paper §3.3: TD-error prioritization chases environment "
               "information; reward-driven prioritization chases the "
               "sparse close-to-optimal transitions the tuning objective "
               "actually cares about)\n";
  return 0;
}
