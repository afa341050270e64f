// Shared setup for the experiment harnesses: standard offline-training
// schedules, seeded tuner factories, and model snapshot/restore so one
// offline model can serve several independent online-tuning runs (the
// paper trains the DRL model once and reuses it, §2).
#pragma once

#include <cstdlib>
#include <string>

#include "common/thread_pool.hpp"
#include "sparksim/environment.hpp"
#include "tuners/cdbtune.hpp"
#include "tuners/deepcat.hpp"
#include "tuners/ottertune.hpp"

namespace deepcat::bench {

/// Offline schedule used across benches (our simulator evaluates a config
/// in microseconds; the paper spent 3-4 days on a real cluster). 1200
/// iterations sits just past TD3+RDPER's convergence knee and before the
/// baselines' (Fig. 4), matching the paper's fixed-budget protocol.
inline constexpr std::size_t kOfflineIters = 1200;
/// "Thousands of offline samples" (paper §4.4): 4 workloads x 1000.
inline constexpr std::size_t kOtterTuneSamplesPerWorkload = 1000;
inline constexpr int kOnlineSteps = 5;  // per CDBTune / the paper §4.4

/// Process-wide worker pool for the experiment harnesses. Size comes from
/// DEEPCAT_BENCH_THREADS when set (useful both to raise it on big machines
/// and to pin it to 1 when checking parallel == serial); otherwise
/// hardware concurrency. All harness parallelism is structured so figure
/// data does not depend on this pool's size.
inline common::ThreadPool& shared_pool() {
  static common::ThreadPool pool([] {
    if (const char* env = std::getenv("DEEPCAT_BENCH_THREADS")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};  // 0 = hardware concurrency
  }());
  return pool;
}

inline sparksim::TuningEnvironment make_env(const sparksim::HiBenchCase& c,
                                            std::uint64_t seed,
                                            sparksim::ClusterSpec cluster =
                                                sparksim::cluster_a()) {
  return sparksim::TuningEnvironment(std::move(cluster),
                                     sparksim::workload_for(c), {.seed = seed});
}

inline tuners::DeepCatOptions deepcat_options(std::uint64_t seed) {
  tuners::DeepCatOptions o;
  o.seed = seed;
  return o;
}

inline tuners::CdbTuneOptions cdbtune_options(std::uint64_t seed) {
  tuners::CdbTuneOptions o;
  o.seed = seed;
  return o;
}

/// Trains a DeepCAT model on the given "standard environment" case.
inline tuners::DeepCatTuner trained_deepcat(const sparksim::HiBenchCase& c,
                                            std::uint64_t seed,
                                            std::size_t iters = kOfflineIters) {
  tuners::DeepCatTuner tuner(deepcat_options(seed));
  sparksim::TuningEnvironment env = make_env(c, seed * 7919 + 13);
  (void)tuner.train_offline(env, iters);
  return tuner;
}

inline tuners::CdbTuneTuner trained_cdbtune(const sparksim::HiBenchCase& c,
                                            std::uint64_t seed,
                                            std::size_t iters = kOfflineIters) {
  tuners::CdbTuneTuner tuner(cdbtune_options(seed));
  sparksim::TuningEnvironment env = make_env(c, seed * 7919 + 17);
  tuner.train_offline(env, iters);
  return tuner;
}

/// Seeds OtterTune with random observations from every distinct workload
/// type in the suite (the paper feeds it thousands of offline samples).
inline tuners::OtterTuneTuner seeded_ottertune(std::uint64_t seed) {
  tuners::OtterTuneOptions options;
  options.seed = seed;
  // Trimmed hyperparameter grid / candidate pool keep the bench wall-clock
  // reasonable; GP retraining still dominates OtterTune's recommendation
  // time by an order of magnitude (Fig. 7's breakdown).
  options.length_scale_grid = {1.0, 1.8};
  options.candidate_pool = 600;
  tuners::OtterTuneTuner tuner(options);
  std::uint64_t env_seed = seed * 104729 + 3;
  for (const char* id : {"WC-D2", "TS-D2", "PR-D2", "KM-D2"}) {
    const auto& c = sparksim::hibench_case(id);
    sparksim::TuningEnvironment env = make_env(c, env_seed++);
    tuner.collect_observations(env, id, kOtterTuneSamplesPerWorkload);
  }
  return tuner;
}

}  // namespace deepcat::bench
