#include "core/deepcat_api.hpp"

#include "streamsim/environment.hpp"

namespace deepcat::core {

DeepCat::DeepCat(sparksim::ClusterSpec cluster, DeepCatApiOptions options)
    : cluster_(std::move(cluster)),
      options_(options),
      tuner_(options.tuner),
      next_env_seed_(options.env.seed) {}

std::vector<tuners::OfflineIterationRecord> DeepCat::train_offline(
    const sparksim::WorkloadSpec& workload, std::size_t iterations,
    common::ThreadPool* helpers) {
  sparksim::EnvOptions env_options = options_.env;
  env_options.seed = next_env_seed_++;
  sparksim::TuningEnvironment env(cluster_, workload, env_options);
  return tuner_.train_offline(env, iterations, helpers);
}

tuners::TuningReport DeepCat::tune_online(
    const sparksim::WorkloadSpec& workload, const tuners::TuneBudget& budget) {
  return tune_online_on(cluster_, workload, budget);
}

tuners::TuningReport DeepCat::tune_online_on(
    const sparksim::ClusterSpec& cluster,
    const sparksim::WorkloadSpec& workload, const tuners::TuneBudget& budget) {
  sparksim::EnvOptions env_options = options_.env;
  env_options.seed = next_env_seed_++;
  sparksim::TuningEnvironment env(cluster, workload, env_options);
  return tuner_.tune_with_budget(env, budget);
}

tuners::TuningReport DeepCat::tune_online_stream(
    const sparksim::ClusterSpec& cluster,
    const streamsim::StreamCase& stream_case,
    const tuners::TuneBudget& budget) {
  sparksim::EnvOptions env_options = options_.env;
  env_options.seed = next_env_seed_++;
  streamsim::StreamEnvironment env(cluster, stream_case, env_options);
  return tuner_.tune_with_budget(env, budget);
}

}  // namespace deepcat::core
