#include "tuners/deepcat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/deepcat_api.hpp"
#include "service/checkpoint.hpp"
#include "sparksim/environment.hpp"

namespace deepcat::tuners {
namespace {

using sparksim::TuningEnvironment;
using sparksim::WorkloadType;

TuningEnvironment make_env(std::uint64_t seed = 42) {
  return TuningEnvironment(sparksim::cluster_a(),
                           sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
                           {.seed = seed});
}

DeepCatOptions fast_options(std::uint64_t seed = 1) {
  DeepCatOptions o;
  o.td3.hidden = {32, 32};
  o.seed = seed;
  o.warmup_steps = 16;
  return o;
}

TEST(DeepCatTunerTest, OptionValidation) {
  DeepCatOptions o = fast_options();
  o.q_threshold = 100.0;
  EXPECT_THROW(DeepCatTuner{o}, std::invalid_argument);
  o = fast_options();
  o.max_optimizer_iters = 0;
  EXPECT_THROW(DeepCatTuner{o}, std::invalid_argument);
}

TEST(DeepCatTunerTest, AgentUnavailableBeforeTraining) {
  DeepCatTuner tuner(fast_options());
  EXPECT_THROW((void)tuner.agent(), std::logic_error);
}

TEST(DeepCatTunerTest, OfflineTraceHasOneRecordPerIteration) {
  DeepCatTuner tuner(fast_options());
  TuningEnvironment env = make_env();
  const auto trace = tuner.train_offline(env, 40);
  ASSERT_EQ(trace.size(), 40u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].iteration, i);
    EXPECT_GT(trace[i].exec_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(trace[i].reward));
    EXPECT_TRUE(std::isfinite(trace[i].min_q));
  }
}

TEST(DeepCatTunerTest, OfflineTrainingImprovesReward) {
  DeepCatTuner tuner(fast_options(7));
  TuningEnvironment env = make_env(7);
  const auto trace = tuner.train_offline(env, 600);
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < 100; ++i) early += trace[i].reward;
  for (std::size_t i = trace.size() - 100; i < trace.size(); ++i) {
    late += trace[i].reward;
  }
  EXPECT_GT(late / 100.0, early / 100.0);
}

TEST(DeepCatTunerTest, TuneProducesFullReport) {
  DeepCatTuner tuner(fast_options(2));
  TuningEnvironment train_env = make_env(2);
  (void)tuner.train_offline(train_env, 200);
  TuningEnvironment env = make_env(3);
  const TuningReport report = tuner.tune(env, 5);
  EXPECT_EQ(report.tuner_name, "DeepCAT");
  EXPECT_EQ(report.steps.size(), 5u);
  EXPECT_GT(report.default_time, 0.0);
  EXPECT_GT(report.best_time, 0.0);
  EXPECT_LE(report.best_time, report.default_time);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(report.steps[static_cast<std::size_t>(i)].step, i + 1);
    EXPECT_GE(report.steps[static_cast<std::size_t>(i)].recommendation_seconds,
              0.0);
  }
  // best_so_far must be non-increasing.
  for (std::size_t i = 1; i < report.steps.size(); ++i) {
    EXPECT_LE(report.steps[i].best_so_far, report.steps[i - 1].best_so_far);
  }
}

TEST(DeepCatTunerTest, DefaultRunExcludedFromStepCosts) {
  DeepCatTuner tuner(fast_options(4));
  TuningEnvironment train_env = make_env(4);
  (void)tuner.train_offline(train_env, 120);
  TuningEnvironment env = make_env(5);
  const TuningReport report = tuner.tune(env, 3);
  // Env counted 3 paid evaluations after the counters were reset.
  EXPECT_EQ(env.evaluations(), 3u);
  EXPECT_NEAR(report.total_evaluation_seconds(),
              env.total_evaluation_seconds(), 1e-9);
}

TEST(DeepCatTunerTest, TwinQOptimizerAcceptsGoodActionUnchanged) {
  DeepCatOptions o = fast_options(6);
  o.q_threshold = -9.0;  // below any reachable Q: everything passes
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(6);
  (void)tuner.train_offline(env, 80);
  std::vector<double> action(env.action_dim(), 0.5);
  const std::vector<double> original = action;
  const auto trace = tuner.optimize_action(std::vector<double>(9, 0.5), action);
  EXPECT_TRUE(trace.accepted_original);
  EXPECT_EQ(trace.iterations, 0u);
  EXPECT_EQ(action, original);
}

TEST(DeepCatTunerTest, TwinQOptimizerImprovesIndicator) {
  DeepCatOptions o = fast_options(8);
  o.q_threshold = 9.0;  // unreachable: forces the full bounded loop
  o.max_optimizer_iters = 32;
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(8);
  (void)tuner.train_offline(env, 200);
  std::vector<double> action(env.action_dim(), 0.1);
  const auto trace = tuner.optimize_action(std::vector<double>(9, 0.5), action);
  EXPECT_FALSE(trace.accepted_original);
  EXPECT_EQ(trace.iterations, 32u);
  EXPECT_GE(trace.final_min_q, trace.initial_min_q);
}

TEST(DeepCatTunerTest, TwinQOptimizerStopsAtThreshold) {
  DeepCatOptions o = fast_options(9);
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(9);
  (void)tuner.train_offline(env, 300);
  // A low threshold should be reachable quickly for most states.
  std::vector<double> action(env.action_dim(), 0.5);
  const auto trace =
      tuner.optimize_action(std::vector<double>(9, 0.4), action);
  if (!trace.accepted_original) {
    EXPECT_LE(trace.iterations, o.max_optimizer_iters);
  }
  for (double a : action) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

// Algorithm 1 one candidate at a time, as the paper states it: each
// candidate perturbs the best so far, and the walk stops at Q_th or the
// guard. optimize_action probes four candidates per pass; it must try the
// same candidates, count the same iterations, return the same action and
// leave the tuner's RNG where this loop leaves it, bit for bit.
TwinQOptimizerTrace one_candidate_at_a_time(rl::Td3Agent& agent,
                                            common::Rng& rng,
                                            const DeepCatOptions& o,
                                            std::span<const double> state,
                                            std::vector<double>& action) {
  TwinQOptimizerTrace trace;
  trace.initial_min_q = agent.min_q(state, action);
  trace.final_min_q = trace.initial_min_q;
  if (trace.initial_min_q >= o.q_threshold) {
    trace.accepted_original = true;
    return trace;
  }
  std::vector<double> candidate = action;
  std::vector<double> best = action;
  double best_q = trace.initial_min_q;
  for (std::size_t i = 0; i < o.max_optimizer_iters; ++i) {
    ++trace.iterations;
    for (double& a : candidate) {
      a = common::clamp(a + rng.normal(0.0, o.optimizer_sigma), 0.0, 1.0);
    }
    const double q = agent.min_q(state, candidate);
    if (q > best_q) {
      best_q = q;
      best = candidate;
    }
    if (q >= o.q_threshold) break;
    candidate = best;
  }
  action = best;
  trace.final_min_q = best_q;
  return trace;
}

TEST(DeepCatTunerTest, BatchedTwinQScreenReplaysTheOneCandidateLoop) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  common::Rng draws(44);
  std::vector<std::vector<double>> states, actions;
  for (int i = 0; i < 24; ++i) {
    std::vector<double> state(9), action(32);
    for (double& x : state) x = draws.uniform();
    for (double& x : action) x = draws.uniform();
    states.push_back(state);
    actions.push_back(action);
  }
  const auto trained = [](double q_threshold, std::size_t guard) {
    DeepCatOptions o = fast_options(44);
    o.q_threshold = q_threshold;
    o.max_optimizer_iters = guard;
    auto tuner = std::make_unique<DeepCatTuner>(o);
    TuningEnvironment env = make_env(44);
    (void)tuner->train_offline(env, 120);
    return tuner;
  };
  // A threshold the walk crosses partway for some states: between the
  // median first probe and the median best an unreachable threshold's full
  // walk finds.
  std::vector<double> firsts, bests;
  {
    const auto probe = trained(9.0, 64);
    for (std::size_t i = 0; i < states.size(); ++i) {
      std::vector<double> action = actions[i];
      const auto t = probe->optimize_action(states[i], action);
      firsts.push_back(t.initial_min_q);
      bests.push_back(t.final_min_q);
    }
  }
  std::sort(firsts.begin(), firsts.end());
  std::sort(bests.begin(), bests.end());
  const double midway =
      0.5 * (firsts[firsts.size() / 2] + bests[bests.size() / 2]);

  std::size_t cleared_partway = 0;
  for (const double q_threshold : {-9.0, midway, 9.0}) {
    for (const std::size_t guard : {std::size_t{10}, std::size_t{64}}) {
      const auto tuner = trained(q_threshold, guard);
      for (std::size_t i = 0; i < states.size(); ++i) {
        SCOPED_TRACE("Q_th " + std::to_string(q_threshold) + ", guard " +
                     std::to_string(guard) + ", state " + std::to_string(i));
        std::vector<double> want_action = actions[i];
        common::Rng want_rng = tuner->rng();
        const TwinQOptimizerTrace want = one_candidate_at_a_time(
            tuner->agent(), want_rng, tuner->options(), states[i],
            want_action);
        std::vector<double> action = actions[i];
        const TwinQOptimizerTrace got =
            tuner->optimize_action(states[i], action);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.accepted_original, want.accepted_original);
        EXPECT_EQ(bits(got.initial_min_q), bits(want.initial_min_q));
        EXPECT_EQ(bits(got.final_min_q), bits(want.final_min_q));
        ASSERT_EQ(action.size(), want_action.size());
        for (std::size_t j = 0; j < action.size(); ++j) {
          EXPECT_EQ(bits(action[j]), bits(want_action[j])) << "dim " << j;
        }
        const common::RngState got_rng = tuner->rng().state();
        const common::RngState want_state = want_rng.state();
        EXPECT_EQ(got_rng.s, want_state.s);
        EXPECT_EQ(bits(got_rng.spare), bits(want_state.spare));
        EXPECT_EQ(got_rng.has_spare, want_state.has_spare);
        if (!got.accepted_original && got.iterations < guard) {
          ++cleared_partway;
        }
      }
    }
  }
  // The pass that ends early (and puts the RNG back) must have run.
  EXPECT_GT(cleared_partway, 0u);
}

TEST(DeepCatTunerTest, OnlineTracesRecordedPerStep) {
  DeepCatTuner tuner(fast_options(10));
  TuningEnvironment train_env = make_env(10);
  (void)tuner.train_offline(train_env, 150);
  TuningEnvironment env = make_env(11);
  (void)tuner.tune(env, 4);
  EXPECT_EQ(tuner.last_online_traces().size(), 4u);
}

TEST(DeepCatTunerTest, AblationDisablesTwinQOptimizer) {
  DeepCatOptions o = fast_options(12);
  o.use_twin_q_optimizer = false;
  DeepCatTuner tuner(o);
  TuningEnvironment train_env = make_env(12);
  (void)tuner.train_offline(train_env, 150);
  TuningEnvironment env = make_env(13);
  (void)tuner.tune(env, 4);
  EXPECT_TRUE(tuner.last_online_traces().empty());
}

TEST(DeepCatTunerTest, AblationUsesUniformReplay) {
  DeepCatOptions o = fast_options(14);
  o.use_rdper = false;
  DeepCatTuner tuner(o);
  TuningEnvironment env = make_env(14);
  const auto trace = tuner.train_offline(env, 80);
  EXPECT_EQ(trace.size(), 80u);  // trains cleanly on uniform replay
}

TEST(DeepCatTunerTest, BudgetStopsEarly) {
  DeepCatTuner tuner(fast_options(15));
  TuningEnvironment train_env = make_env(15);
  (void)tuner.train_offline(train_env, 150);
  TuningEnvironment env = make_env(16);
  // A budget of ~one evaluation must stop the loop well before 50 steps.
  const TuningReport report =
      tuner.tune_with_budget(env, {.max_steps = 50, .max_total_seconds = 1.0});
  EXPECT_LT(report.steps.size(), 50u);
  EXPECT_GE(report.steps.size(), 1u);
}

void expect_same_report(const TuningReport& got, const TuningReport& want) {
  EXPECT_EQ(got.default_time, want.default_time);
  EXPECT_EQ(got.best_time, want.best_time);
  EXPECT_TRUE(got.best_config == want.best_config);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].step, want.steps[i].step);
    EXPECT_EQ(got.steps[i].exec_seconds, want.steps[i].exec_seconds);
    EXPECT_EQ(got.steps[i].reward, want.steps[i].reward);
    EXPECT_EQ(got.steps[i].success, want.steps[i].success);
    EXPECT_EQ(got.steps[i].recommendation_seconds,
              want.steps[i].recommendation_seconds);
    EXPECT_EQ(got.steps[i].best_so_far, want.steps[i].best_so_far);
  }
}

struct OnlineRun {
  TuningReport report;
  std::size_t train_steps = 0;  ///< taken during the online call
};

/// One online call from a fixed trained state whose replay already holds a
/// batch, so every evaluation is followed by a fine-tune.
OnlineRun tune_trained(const TuneBudget& budget) {
  DeepCatTuner tuner(fast_options(40));
  TuningEnvironment train = make_env(40);
  (void)tuner.train_offline(train, 80);
  EXPECT_GE(tuner.replay()->size(), tuner.options().td3.batch_size);
  const std::size_t before = tuner.agent().train_steps();
  TuningEnvironment env = make_env(41);
  OnlineRun run{tuner.tune_with_budget(env, budget), 0};
  run.train_steps = tuner.agent().train_steps() - before;
  return run;
}

// A caller that drops the agent (keep_agent = false) skips the fine-tune
// after the last evaluation and nothing else: the report is the same to the
// bit, the skipped steps are still charged, and 8 fewer steps are taken.
TEST(DeepCatTunerTest, DroppedAgentSkipsOnlyTheFinalFineTune) {
  const std::size_t per_eval = fast_options().online_finetune_steps;
  ASSERT_EQ(per_eval, 8u);

  // A budget between the tuning cost after step 1 and after step 2 of the
  // same 5-step call stops it at step 2.
  const OnlineRun probe = tune_trained({.max_steps = 5});
  ASSERT_EQ(probe.report.steps.size(), 5u);
  const std::vector<TuningStepRecord>& s = probe.report.steps;
  const double after1 = s[0].exec_seconds + s[0].recommendation_seconds;
  const double after2 =
      after1 + s[1].exec_seconds + s[1].recommendation_seconds;

  struct Case {
    const char* name;
    TuneBudget budget;
    std::size_t evaluations;
  };
  const std::vector<Case> cases = {
      {"one step", {.max_steps = 1}, 1},
      {"five steps", {.max_steps = 5}, 5},
      {"warm seeded",
       {.max_steps = 4,
        .seed_actions = {std::vector<double>(sparksim::kNumKnobs, 0.3),
                         std::vector<double>(sparksim::kNumKnobs, 0.8)}},
       4},
      {"budget stop",
       {.max_steps = 5, .max_total_seconds = (after1 + after2) / 2.0},
       2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const OnlineRun kept = tune_trained(c.budget);
    TuneBudget dropping = c.budget;
    dropping.keep_agent = false;
    const OnlineRun dropped = tune_trained(dropping);
    ASSERT_EQ(kept.report.steps.size(), c.evaluations);
    expect_same_report(dropped.report, kept.report);
    EXPECT_EQ(kept.train_steps, per_eval * c.evaluations);
    EXPECT_EQ(dropped.train_steps, per_eval * (c.evaluations - 1));
  }
}

TEST(DeepCatTunerTest, SaveLoadPreservesPolicy) {
  DeepCatTuner a(fast_options(17));
  TuningEnvironment env = make_env(17);
  (void)a.train_offline(env, 150);
  DeepCatTuner b(fast_options(18));
  TuningEnvironment env_b = make_env(18);
  (void)b.train_offline(env_b, 30);  // build the agent, different weights

  b.agent().restore(a.agent().snapshot());
  const std::vector<double> state(9, 0.5);
  EXPECT_EQ(a.agent().act(state), b.agent().act(state));
}

TEST(DeepCatTunerTest, StableOnlineProtocolIsDeterministic) {
  // With no exploration noise and the optimizer disabled (its repair
  // walk draws tuner-local randomness), two tuning sessions from the
  // same weights on the same environment seed must be identical — the
  // deterministic core of the "stable online tuning phase" (§5.2.3).
  DeepCatOptions o = fast_options(30);
  o.online_explore_sigma = 0.0;
  o.use_twin_q_optimizer = false;
  DeepCatTuner a(o);
  TuningEnvironment train = make_env(30);
  (void)a.train_offline(train, 150);
  const rl::AgentSnapshot weights = a.agent().snapshot();

  TuningEnvironment env1 = make_env(31);
  const TuningReport r1 = a.tune(env1, 4);

  DeepCatTuner b(o);
  TuningEnvironment boot = make_env(32);
  (void)b.train_offline(boot, 30);
  b.agent().restore(weights);
  TuningEnvironment env2 = make_env(31);
  const TuningReport r2 = b.tune(env2, 4);

  ASSERT_EQ(r1.steps.size(), r2.steps.size());
  // First-step actions come from identical weights on identical states;
  // later steps may diverge because the two tuners fine-tune on replay
  // buffers with different histories. Step 1 must match exactly.
  EXPECT_DOUBLE_EQ(r1.steps[0].exec_seconds, r2.steps[0].exec_seconds);
}

TEST(DeepCatTunerTest, EnvironmentDimChangeRejected) {
  DeepCatTuner tuner(fast_options(19));
  TuningEnvironment env = make_env(19);
  (void)tuner.train_offline(env, 40);
  TuningEnvironment env_b(
      sparksim::ClusterSpec{"tiny", {sparksim::NodeSpec{}}},
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), {.seed = 1});
  EXPECT_NE(env_b.state_dim(), env.state_dim());
  EXPECT_THROW((void)tuner.tune(env_b, 2), std::invalid_argument);
}

// A pool lent to the offline loop only moves passes between threads: the
// trace and the checkpoint (networks, moments, replay, RNG) are those of
// the serial loop, through DeepCat::train_offline into the tuner's.
TEST(DeepCatTunerTest, TrainOfflineWithHelpersMatchesSerial) {
  common::ThreadPool pool(4);
  core::DeepCatApiOptions options;
  options.tuner = fast_options(60);
  core::DeepCat serial(sparksim::cluster_a(), options);
  core::DeepCat helped(sparksim::cluster_a(), options);
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);
  const auto want = serial.train_offline(workload, 120);
  const auto got = helped.train_offline(workload, 120, &pool);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].iteration, want[i].iteration);
    EXPECT_EQ(got[i].reward, want[i].reward) << "iteration " << i;
    EXPECT_EQ(got[i].min_q, want[i].min_q) << "iteration " << i;
    EXPECT_EQ(got[i].exec_seconds, want[i].exec_seconds) << "iteration " << i;
    EXPECT_EQ(got[i].success, want[i].success) << "iteration " << i;
  }
  EXPECT_GT(serial.tuner().agent().train_steps(), 0u);
  EXPECT_EQ(service::checkpoint_to_string(helped),
            service::checkpoint_to_string(serial));
}

}  // namespace
}  // namespace deepcat::tuners
