// Figure 4: execution time of the best configuration recommended after 5
// online tuning steps, as a function of offline training iterations —
// conventional TD3 (uniform replay) vs TD3 + RDPER. Reproduces the
// paper's finding that RDPER converges substantially faster and ends at a
// better configuration.
//
// Parallel protocol: phase 1 trains each variant straight through its
// offline schedule, snapshotting the agent every kStep iterations
// (training never sees online-session RNG draws, unlike the earlier
// serial interleaving). Phase 2 fans the 2 x 9 x 3 online sessions out as
// pure (snapshot, per-index seed) units and folds them back in index
// order, so figure data is byte-identical for any DEEPCAT_BENCH_THREADS.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace {

using namespace deepcat;
using namespace deepcat::sparksim;

constexpr std::size_t kStep = 400;
constexpr std::size_t kMax = 3600;
constexpr std::size_t kCheckpoints = kMax / kStep;
constexpr std::size_t kSessions = 3;
constexpr std::uint64_t kSeed = 41;

/// Phase 1: offline-train one variant, snapshotting its agent at every
/// checkpoint. Sequential within a variant (training is inherently
/// incremental); the two variants run as independent units.
std::vector<rl::AgentSnapshot> training_snapshots(bool use_rdper) {
  tuners::DeepCatOptions options = bench::deepcat_options(kSeed);
  options.use_rdper = use_rdper;
  tuners::DeepCatTuner tuner(options);
  TuningEnvironment train_env = bench::make_env(hibench_case("TS-D1"), kSeed);

  std::vector<rl::AgentSnapshot> snapshots;
  snapshots.reserve(kCheckpoints);
  for (std::size_t done = 0; done < kMax; done += kStep) {
    (void)tuner.train_offline(train_env, kStep);
    snapshots.push_back(tuner.agent().snapshot());
  }
  return snapshots;
}

/// Phase 2 unit: one independent 5-step online session from a snapshot.
/// A pure function of (snapshot, variant, checkpoint, session) — every RNG
/// stream is seeded from the unit's own indices.
double session_best(const rl::AgentSnapshot& snapshot, bool use_rdper,
                    std::size_t checkpoint, std::size_t session) {
  const std::uint64_t unit =
      (use_rdper ? kCheckpoints * kSessions : 0) +
      checkpoint * kSessions + session;
  tuners::DeepCatOptions options =
      bench::deepcat_options(kSeed + 7001 * (unit + 1));
  options.use_rdper = use_rdper;
  tuners::DeepCatTuner tuner(options);
  TuningEnvironment tune_env = bench::make_env(
      hibench_case("TS-D1"), 9000 + kSeed + session * 97);
  tuner.materialize(tune_env.state_dim(), tune_env.action_dim());
  tuner.agent().restore(snapshot);
  return tuner.tune(tune_env, bench::kOnlineSteps).best_time;
}

}  // namespace

int main() {
  // Phase 1: the two training trajectories are independent units.
  const auto snapshots = common::parallel_map(
      bench::shared_pool(), 2,
      [](std::size_t vi) { return training_snapshots(vi == 1); });

  // Phase 2: 2 variants x 9 checkpoints x 3 sessions, all independent.
  const std::size_t total = 2 * kCheckpoints * kSessions;
  const auto bests = common::parallel_map(
      bench::shared_pool(), total, [&snapshots](std::size_t u) {
        const std::size_t vi = u / (kCheckpoints * kSessions);
        const std::size_t checkpoint = (u / kSessions) % kCheckpoints;
        const std::size_t session = u % kSessions;
        return session_best(snapshots[vi][checkpoint], vi == 1, checkpoint,
                            session);
      });

  // Fold in index order so the averaging matches a serial run bit for bit.
  std::vector<std::pair<std::size_t, double>> plain, rdper;
  for (std::size_t vi = 0; vi < 2; ++vi) {
    auto& curve = vi == 1 ? rdper : plain;
    for (std::size_t checkpoint = 0; checkpoint < kCheckpoints; ++checkpoint) {
      double best = 0.0;
      for (std::size_t session = 0; session < kSessions; ++session) {
        best += bests[vi * kCheckpoints * kSessions +
                      checkpoint * kSessions + session] /
                static_cast<double>(kSessions);
      }
      curve.emplace_back((checkpoint + 1) * kStep, best);
    }
  }

  common::Table t(
      "Figure 4: best online-recommended execution time vs offline "
      "training iterations (TeraSort 3.2 GB)");
  t.header({"offline iterations", "TD3 (s)", "TD3+RDPER (s)"});
  for (std::size_t i = 0; i < plain.size(); ++i) {
    t.row({common::cell(plain[i].first), common::cell(plain[i].second, 1),
           common::cell(rdper[i].second, 1)});
  }
  t.print(std::cout);

  // Convergence comparison in the paper's terms: iterations needed to
  // first reach within 5% of the best value either variant ever achieves
  // (anchoring on a common target keeps the metric comparable).
  double global_best = 1e300;
  for (const auto& [iters, time] : plain) global_best = std::min(global_best, time);
  for (const auto& [iters, time] : rdper) global_best = std::min(global_best, time);
  auto converged_at =
      [global_best](const std::vector<std::pair<std::size_t, double>>& c) {
        for (const auto& [iters, time] : c) {
          if (time <= global_best * 1.05) return iters;
        }
        return c.back().first;
      };
  const auto plain_conv = converged_at(plain);
  const auto rdper_conv = converged_at(rdper);
  std::cout << "\nConvergence (within 5% of overall best):  TD3 @ "
            << plain_conv
            << " iters,  TD3+RDPER @ " << rdper_conv << " iters  =>  "
            << common::cell(
                   static_cast<double>(plain_conv) /
                       static_cast<double>(rdper_conv),
                   2)
            << "x faster (paper: 1.60x, 3200 vs 2000)\n";
  std::cout << "Final best execution time:  TD3 "
            << common::cell(plain.back().second, 1) << " s,  TD3+RDPER "
            << common::cell(rdper.back().second, 1)
            << " s (paper: 42.1 s vs 37.0 s, 12.11% better)\n";
  return 0;
}
