// Common interface for online configuration auto-tuners, plus the tuning
// report every experiment harness consumes. The cost accounting follows
// the paper (§5.2.2): total online tuning time = sum of configuration
// evaluation time (simulated seconds) + recommendation time (modeled
// seconds the tuner spent deciding).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sparksim/config_space.hpp"
#include "sparksim/environment.hpp"

namespace deepcat::tuners {

/// Deterministic model of recommendation time. Earlier revisions measured
/// host wall-clock here, which mixed real microseconds into otherwise
/// simulated seconds and made the figure data irreproducible: totals
/// shifted with machine load, and running harness sweeps in parallel
/// inflated them further. Recommendation cost is now charged from the
/// tuner's deterministic operation counts (actor forwards, twin-Q probes,
/// train steps, GP fits/predicts) times the per-operation constants below,
/// calibrated against bench_micro wall-clock measurements on the reference
/// build. Figure data is thereby a pure function of the seeds, identical
/// across machines, runs, and thread counts.
///
/// kTrainStep and kCriticPair are the float32 networks' rl.td3_train_step
/// .avx512_ns and rl.min_q_ns (medians of 7 bench_micro --json runs, 4-vCPU
/// AVX-512 Xeon, RelWithDebInfo), at two significant digits. The band they
/// keep: measured / model within [0.5, 2], the band e2ebench flags its
/// traced rl.*_vs_model ratios outside of (DESIGN.md §7). kActorForward
/// keeps its earlier calibration: its only measured ratio, rl.act_vs_model,
/// times a first forward after a checkpoint decode, which no served
/// session makes.
namespace rec_cost {
inline constexpr double kActorForward = 9e-6;   ///< one policy-net forward
inline constexpr double kCriticPair = 2.8e-6;   ///< min_q: two critic forwards
inline constexpr double kTrainStep = 6.6e-4;    ///< one TD3/DDPG train step
inline constexpr double kGpFitPerN3 = 1.3e-10;  ///< Cholesky-dominated GP fit
inline constexpr double kGpPredictPerN2 = 2e-9; ///< triangular solve/predict
/// Replaying one retrieved warm-start action (no actor/critic forwards;
/// the k-NN lookup itself is charged once by the service layer).
inline constexpr double kRetrievalSeed = 1e-6;
}  // namespace rec_cost

struct TuningStepRecord {
  int step = 0;                       ///< 1-based online step index
  double exec_seconds = 0.0;          ///< evaluation cost of this step
  double reward = 0.0;
  bool success = false;
  double recommendation_seconds = 0.0;///< modeled cost of choosing the action
  double best_so_far = 0.0;           ///< best exec time after this step
};

struct TuningReport {
  std::string tuner_name;
  std::string workload_name;
  double default_time = 0.0;
  double best_time = 0.0;
  sparksim::ConfigValues best_config;
  std::vector<TuningStepRecord> steps;
  /// What the times above measure (streaming environments tune p95 batch
  /// latency, not job completion).
  sparksim::ObjectiveKind objective =
      sparksim::ObjectiveKind::kJobCompletionSeconds;
  /// Phase/shift re-adaptation accounting, present for streaming sessions.
  std::optional<sparksim::StreamSummary> stream;

  [[nodiscard]] double total_evaluation_seconds() const noexcept;
  [[nodiscard]] double total_recommendation_seconds() const noexcept;
  /// Evaluation + recommendation (the paper's "total online tuning time").
  [[nodiscard]] double total_tuning_seconds() const noexcept;
  [[nodiscard]] double speedup_over_default() const noexcept;
};

/// Termination rule for an online tuning session (paper §2: DeepCAT stops
/// when the step constraint is hit OR the time budget is exhausted).
struct TuneBudget {
  int max_steps = 5;
  double max_total_seconds = 1e18;  ///< evaluation + recommendation seconds
  /// Warm-start seed actions (normalized [0,1]^dim, retrieval order). The
  /// first `seed_actions.size()` online steps replay these instead of
  /// querying the actor; every step still evaluates, feeds the replay and
  /// fine-tunes, so the agent learns from the seeded evaluations. Empty
  /// (the default) leaves the cold path bit-identical.
  std::vector<std::vector<double>> seed_actions{};
  /// Whether the caller keeps this tuner after the call. False says the
  /// agent is dropped once the report is written, so the fine-tune after
  /// the last evaluation, which only that agent would read, is skipped; the
  /// report and the replay's transitions are the same either way, and the
  /// skipped steps are still charged to recommendation_seconds. Not a
  /// tuning knob: the serving layer's throwaway session clones set it.
  bool keep_agent = true;
};

class OnlineTuner {
 public:
  virtual ~OnlineTuner() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs `num_steps` online tuning steps against `env` (which must be
  /// freshly constructed; the tuner calls env.reset() itself) and reports
  /// the best configuration found plus the full cost breakdown.
  virtual TuningReport tune(sparksim::TuningEnvironment& env,
                            int num_steps) = 0;
};

}  // namespace deepcat::tuners
