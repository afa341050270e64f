// The shared experiment behind Figures 6, 7 and 8: offline-train DeepCAT
// and CDBTune once on a standard environment (TS-D2), seed OtterTune's
// observation repository, then serve each workload-input pair as an
// independent online tuning request (each agent's state, networks and
// optimizers alike, restored between requests, matching the paper's
// one-model-many-requests protocol).
#pragma once

#include <string>
#include <vector>

#include "bench_util.hpp"

namespace deepcat::bench {

struct ComparisonResult {
  std::string case_id;
  tuners::TuningReport deepcat;
  tuners::TuningReport cdbtune;
  tuners::TuningReport ottertune;
};

inline std::vector<ComparisonResult> run_suite_comparison(
    const std::vector<std::string>& case_ids, std::uint64_t seed) {
  tuners::DeepCatTuner deepcat =
      trained_deepcat(sparksim::hibench_case("TS-D2"), seed);
  tuners::CdbTuneTuner cdbtune =
      trained_cdbtune(sparksim::hibench_case("TS-D2"), seed);
  tuners::OtterTuneTuner ottertune = seeded_ottertune(seed);

  const rl::AgentSnapshot deepcat_state = deepcat.agent().snapshot();
  const rl::AgentSnapshot cdbtune_state = cdbtune.agent().snapshot();

  std::vector<ComparisonResult> results;
  std::uint64_t env_seed = seed * 31 + 100;
  for (const auto& id : case_ids) {
    const auto& c = sparksim::hibench_case(id);
    ComparisonResult r;
    r.case_id = id;
    {
      sparksim::TuningEnvironment env = make_env(c, env_seed);
      r.deepcat = deepcat.tune(env, kOnlineSteps);
      deepcat.agent().restore(deepcat_state);
    }
    {
      sparksim::TuningEnvironment env = make_env(c, env_seed);
      r.cdbtune = cdbtune.tune(env, kOnlineSteps);
      cdbtune.agent().restore(cdbtune_state);
    }
    {
      sparksim::TuningEnvironment env = make_env(c, env_seed);
      r.ottertune = ottertune.tune(env, kOnlineSteps);
    }
    ++env_seed;
    results.push_back(std::move(r));
  }
  return results;
}

inline std::vector<std::string> all_case_ids() {
  std::vector<std::string> ids;
  for (const auto& c : sparksim::hibench_suite()) ids.push_back(c.id);
  return ids;
}

/// Seed-averaged view of one case's three tuning sessions. Offline model
/// quality varies run to run (exactly as retraining on a real cluster
/// would); figures average over independent offline seeds.
struct AveragedCase {
  std::string case_id;
  double default_time = 0.0;
  struct PerTuner {
    double best_time = 0.0;
    double total_tuning = 0.0;
    double total_recommendation = 0.0;
    double step_best[8] = {};  ///< best-so-far after step i
    double step_cum[8] = {};   ///< accumulated tuning cost through step i
    [[nodiscard]] double speedup(double default_time) const {
      return best_time > 0.0 ? default_time / best_time : 0.0;
    }
  } deepcat, cdbtune, ottertune;
};

inline std::vector<AveragedCase> run_averaged_comparison(
    const std::vector<std::string>& case_ids,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<AveragedCase> averaged(case_ids.size());
  const double inv_n = 1.0 / static_cast<double>(seeds.size());
  // Each seed's suite run is a pure function of (case_ids, seed): the
  // tuners and environments it builds carry their own RNGs. Run the seeds
  // concurrently, then fold in seed order so the floating-point
  // accumulation matches the serial loop bit for bit.
  const auto per_seed =
      common::parallel_map(shared_pool(), seeds.size(), [&](std::size_t si) {
        return run_suite_comparison(case_ids, seeds[si]);
      });
  for (const auto& results : per_seed) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      AveragedCase& out = averaged[i];
      out.case_id = results[i].case_id;
      out.default_time += results[i].deepcat.default_time * inv_n;
      auto accumulate = [inv_n](AveragedCase::PerTuner& dst,
                                const tuners::TuningReport& src) {
        dst.best_time += src.best_time * inv_n;
        dst.total_tuning += src.total_tuning_seconds() * inv_n;
        dst.total_recommendation +=
            src.total_recommendation_seconds() * inv_n;
        double cum = 0.0;
        for (std::size_t s = 0; s < src.steps.size() && s < 8; ++s) {
          cum += src.steps[s].exec_seconds +
                 src.steps[s].recommendation_seconds;
          dst.step_best[s] += src.steps[s].best_so_far * inv_n;
          dst.step_cum[s] += cum * inv_n;
        }
      };
      accumulate(out.deepcat, results[i].deepcat);
      accumulate(out.cdbtune, results[i].cdbtune);
      accumulate(out.ottertune, results[i].ottertune);
    }
  }
  return averaged;
}

inline const std::vector<std::uint64_t>& comparison_seeds() {
  static const std::vector<std::uint64_t> seeds{6, 8};
  return seeds;
}

}  // namespace deepcat::bench
