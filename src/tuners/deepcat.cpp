#include "tuners/deepcat.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/thread_pool.hpp"
#include "rl/replay.hpp"

namespace deepcat::tuners {

DeepCatTuner::DeepCatTuner(DeepCatOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  if (options_.q_threshold < -10.0 || options_.q_threshold > 10.0) {
    throw std::invalid_argument("DeepCatOptions: implausible q_threshold");
  }
  if (options_.max_optimizer_iters == 0) {
    throw std::invalid_argument("DeepCatOptions: max_optimizer_iters == 0");
  }
  if (options_.obs.metrics != nullptr) {
    auto& reg = *options_.obs.metrics;
    obs_twinq_runs_ = &reg.counter("twinq.optimizer_runs");
    obs_twinq_retries_ = &reg.counter("twinq.retries");
    obs_twinq_accepted_ = &reg.counter("twinq.accepted_original");
    obs_twinq_initial_q_ = &reg.gauge("twinq.initial_min_q");
    obs_twinq_final_q_ = &reg.gauge("twinq.final_min_q");
  }
}

std::unique_ptr<rl::ReplayBuffer> DeepCatTuner::make_replay() const {
  if (options_.use_rdper) {
    return std::make_unique<rl::RdperReplay>(
        options_.replay_capacity_per_pool, options_.rdper);
  }
  // Ablation: conventional uniform experience replay (Fig. 4 baseline).
  return std::make_unique<rl::UniformReplay>(
      2 * options_.replay_capacity_per_pool);
}

void DeepCatTuner::ensure_agent(const sparksim::TuningEnvironment& env) {
  materialize(env.state_dim(), env.action_dim());
}

void DeepCatTuner::materialize(std::size_t state_dim, std::size_t action_dim) {
  if (agent_) {
    if (options_.td3.state_dim != state_dim ||
        options_.td3.action_dim != action_dim) {
      throw std::invalid_argument(
          "DeepCatTuner: environment dims changed after agent creation");
    }
    return;
  }
  options_.td3.state_dim = state_dim;
  options_.td3.action_dim = action_dim;
  options_.td3.obs = options_.obs;
  agent_ = std::make_unique<rl::Td3Agent>(options_.td3, rng_);
  replay_ = make_replay();
}

void DeepCatTuner::materialize(const rl::Td3Agent& frozen,
                               std::unique_ptr<rl::ReplayBuffer> replay) {
  if (agent_) throw std::logic_error("DeepCatTuner: agent already built");
  if (!replay) throw std::invalid_argument("DeepCatTuner: null replay");
  options_.td3.state_dim = frozen.config().state_dim;
  options_.td3.action_dim = frozen.config().action_dim;
  options_.td3.obs = options_.obs;
  agent_ = std::make_unique<rl::Td3Agent>(options_.td3, frozen);
  replay_ = std::move(replay);
}

void DeepCatTuner::materialize(rl::AgentSnapshot snapshot) {
  if (agent_) throw std::logic_error("DeepCatTuner: agent already built");
  options_.td3.state_dim = snapshot.state_dim;
  options_.td3.action_dim = snapshot.action_dim;
  options_.td3.obs = options_.obs;
  agent_ = std::make_unique<rl::Td3Agent>(options_.td3, std::move(snapshot));
  replay_ = make_replay();
}

rl::Td3Agent& DeepCatTuner::agent() {
  if (!agent_) throw std::logic_error("DeepCatTuner: agent not built yet");
  return *agent_;
}

std::vector<OfflineIterationRecord> DeepCatTuner::train_offline(
    sparksim::TuningEnvironment& env, std::size_t iterations,
    common::ThreadPool* helpers) {
  ensure_agent(env);
  std::vector<OfflineIterationRecord> trace;
  trace.reserve(iterations);
  common::Partner partner(helpers);

  std::vector<double> state = env.reset();
  for (std::size_t it = 0; it < iterations; ++it) {
    std::vector<double> action;
    if (replay_->size() < options_.warmup_steps) {
      action.resize(env.action_dim());
      for (double& a : action) a = rng_.uniform();
    } else {
      action = agent_->act_noisy(state, options_.offline_explore_sigma, rng_);
    }
    const double min_q = agent_->min_q(state, action);
    const sparksim::StepResult res = env.step(action);

    const bool done = (it + 1) % options_.episode_length == 0;
    replay_->add({state, action, res.reward, res.state, done});
    if (replay_->size() >= options_.td3.batch_size) {
      agent_->train_step(*replay_, rng_, &partner);
    }

    trace.push_back({it, res.reward, min_q, res.exec_seconds, res.success});
    state = res.state;
  }
  return trace;
}

TwinQOptimizerTrace DeepCatTuner::optimize_action(
    std::span<const double> state, std::vector<double>& action) {
  TwinQOptimizerTrace trace;
  trace.initial_min_q = agent().min_q(state, action);
  trace.final_min_q = trace.initial_min_q;
  if (obs_twinq_runs_ != nullptr) {
    obs_twinq_runs_->add(1);
    obs_twinq_initial_q_->set(trace.initial_min_q);
  }
  if (trace.initial_min_q >= options_.q_threshold) {
    trace.accepted_original = true;
    if (obs_twinq_accepted_ != nullptr) {
      obs_twinq_accepted_->add(1);
      obs_twinq_final_q_->set(trace.final_min_q);
    }
    return trace;
  }

  // Algorithm 1 with an iteration guard: keep perturbing with Gaussian
  // noise until the twin-Q indicator clears Q_th. The paper's loop is
  // unbounded; we track the best candidate seen so a pathological Q_th
  // still yields the strongest action found instead of stalling. Each
  // candidate perturbs the best so far (a random walk from the best rather
  // than wandering off), and its noise does not depend on any probe, so
  // the next kProbeRows candidates are drawn from the current best and
  // probed in one pass per critic. The first that beats the best or clears
  // Q_th ends the pass: the candidates after it were drawn from a best
  // that has just changed, so they are dropped and the RNG goes back to
  // just after that candidate's draws. Every probe, iteration count and
  // draw is the one-candidate-at-a-time loop's, bit for bit.
  constexpr std::size_t kProbeRows = 4;  // the GEMMs' row-block height
  const std::size_t dim = action.size();
  std::vector<double> best = action;
  double best_q = trace.initial_min_q;
  std::vector<double> candidates(kProbeRows * dim);
  std::array<double, kProbeRows> q{};
  std::array<common::RngState, kProbeRows> after{};
  bool cleared = false;
  while (!cleared && trace.iterations < options_.max_optimizer_iters) {
    const std::size_t rows = std::min(
        kProbeRows, options_.max_optimizer_iters - trace.iterations);
    for (std::size_t r = 0; r < rows; ++r) {
      double* candidate = candidates.data() + r * dim;
      rng_.normals(candidate, dim, 0.0, options_.optimizer_sigma);
      for (std::size_t j = 0; j < dim; ++j) {
        candidate[j] = common::clamp(best[j] + candidate[j], 0.0, 1.0);
      }
      after[r] = rng_.state();
    }
    agent().min_q_rows(state, std::span(candidates).first(rows * dim),
                       std::span(q).first(rows));
    for (std::size_t r = 0; r < rows; ++r) {
      ++trace.iterations;
      const bool improved = q[r] > best_q;
      if (improved) {
        best_q = q[r];
        best.assign(candidates.data() + r * dim,
                    candidates.data() + (r + 1) * dim);
      }
      cleared = q[r] >= options_.q_threshold;
      if (improved || cleared) {
        if (r + 1 < rows) rng_.restore(after[r]);
        break;
      }
    }
  }
  action = best;
  trace.final_min_q = best_q;
  if (obs_twinq_retries_ != nullptr) {
    obs_twinq_retries_->add(trace.iterations);
    obs_twinq_final_q_->set(trace.final_min_q);
  }
  return trace;
}

TuningReport DeepCatTuner::tune(sparksim::TuningEnvironment& env,
                                int num_steps) {
  return tune_with_budget(env, {.max_steps = num_steps});
}

TuningReport DeepCatTuner::tune_with_budget(sparksim::TuningEnvironment& env,
                                            const TuneBudget& budget) {
  const int num_steps = budget.max_steps;
  ensure_agent(env);
  online_traces_.clear();
  const auto span = options_.obs.scope("tune_online");

  TuningReport report;
  report.tuner_name = name();
  report.workload_name = env.workload().name;

  // The default run establishes perf_e and s_0; it is not one of the paid
  // online tuning steps (the paper's cost covers the 5 recommendations).
  std::vector<double> state = env.reset();
  report.default_time = env.default_time();
  env.reset_cost_counters();

  const int seed_count = static_cast<int>(budget.seed_actions.size());
  for (int step = 1; step <= num_steps; ++step) {
    std::vector<double> action;
    double rec_seconds = 0.0;
    if (step <= seed_count) {
      // Warm start: replay a retrieved seed action verbatim. No actor or
      // Twin-Q forwards happen — the RNG stream is untouched, so a session
      // with zero seeds is bit-identical to one that never saw this branch.
      action = budget.seed_actions[static_cast<std::size_t>(step - 1)];
      action.resize(env.action_dim(), 0.5);
      for (double& a : action) a = common::clamp(a, 0.0, 1.0);
      rec_seconds = rec_cost::kRetrievalSeed;
    } else {
      // Exploratory proposal; the Twin-Q Optimizer screens it before any
      // cluster time is spent, replacing estimated-sub-optimal candidates.
      action = agent_->act_noisy(state, options_.online_explore_sigma, rng_);
      rec_seconds = rec_cost::kActorForward;
      if (options_.use_twin_q_optimizer) {
        online_traces_.push_back(optimize_action(state, action));
        // One initial probe plus one per optimizer iteration.
        rec_seconds +=
            rec_cost::kCriticPair *
            static_cast<double>(1 + online_traces_.back().iterations);
      }
    }

    const sparksim::StepResult res = env.step(action);

    // Online fine-tuning on the fresh transition (and replayed history).
    // Its modeled cost is charged whether or not the steps run below.
    replay_->add({state, action, res.reward, res.state, step == num_steps});
    const bool fine_tunes = replay_->size() >= options_.td3.batch_size;
    if (fine_tunes) {
      rec_seconds += rec_cost::kTrainStep *
                     static_cast<double>(options_.online_finetune_steps);
    }

    TuningStepRecord rec;
    rec.step = step;
    rec.exec_seconds = res.exec_seconds;
    rec.reward = res.reward;
    rec.success = res.success;
    rec.recommendation_seconds = rec_seconds;
    rec.best_so_far = env.best_time();
    report.steps.push_back(rec);

    state = res.state;

    // The step limit, or the tuning-time budget (paper §2), ends the loop.
    const bool next_step =
        step < num_steps &&
        !(report.total_tuning_seconds() >= budget.max_total_seconds);
    // The fine-tune feeds the next recommendation, or the kept agent; with
    // neither, nothing would read it.
    if (fine_tunes && (next_step || budget.keep_agent)) {
      for (std::size_t k = 0; k < options_.online_finetune_steps; ++k) {
        agent_->train_step(*replay_, rng_);
      }
    }
    if (!next_step) break;
  }

  report.best_time = env.best_time();
  report.best_config = env.best_config();
  report.objective = env.objective();
  report.stream = env.stream_summary();
  return report;
}

}  // namespace deepcat::tuners
