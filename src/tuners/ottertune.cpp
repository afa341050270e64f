#include "tuners/ottertune.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/math_util.hpp"
#include "gp/acquisition.hpp"

namespace deepcat::tuners {

OtterTuneTuner::OtterTuneTuner(OtterTuneOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

void OtterTuneTuner::collect_observations(sparksim::TuningEnvironment& env,
                                          const std::string& workload_id,
                                          std::size_t num_samples) {
  env.reset();
  for (std::size_t i = 0; i < num_samples; ++i) {
    std::vector<double> action(env.action_dim());
    for (double& a : action) a = rng_.uniform();
    const sparksim::StepResult res = env.step(action);
    repository_.add(workload_id,
                    {action, res.state, res.exec_seconds});
  }
}

std::vector<double> OtterTuneTuner::recommend(
    std::size_t action_dim, const std::vector<gp::Observation>& mapped,
    const std::vector<gp::Observation>& observed, double best_time,
    std::span<const double> incumbent, double& modeled_seconds) {
  // Assemble the GP training set: mapped history (subsampled to budget,
  // target observations win ties by being appended last with more weight
  // via lower noise — here simply included in full).
  std::vector<const gp::Observation*> train;
  train.reserve(options_.max_mapped_samples + observed.size());
  if (!mapped.empty()) {
    const std::size_t stride =
        std::max<std::size_t>(1, mapped.size() / options_.max_mapped_samples);
    for (std::size_t i = 0; i < mapped.size(); i += stride) {
      train.push_back(&mapped[i]);
    }
  }
  for (const auto& obs : observed) train.push_back(&obs);

  if (train.empty() || train.front()->config.size() != action_dim) {
    // Nothing to model yet: explore uniformly.
    std::vector<double> action(action_dim);
    for (double& a : action) a = rng_.uniform();
    return action;
  }

  const std::size_t dim = action_dim;
  nn::Matrix x(train.size(), dim);
  std::vector<double> y(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    std::copy(train[i]->config.begin(), train[i]->config.end(),
              x.row(i).begin());
    y[i] = train[i]->performance;
  }

  // GP model (re)training: select the kernel length scale by maximum log
  // marginal likelihood over the grid, refitting the full GP per
  // hypothesis — the per-request model-training cost the paper observes
  // dominating OtterTune's recommendation time.
  const auto n = static_cast<double>(train.size());
  modeled_seconds +=
      rec_cost::kGpFitPerN3 * n * n * n *
      static_cast<double>(options_.length_scale_grid.size());

  std::optional<gp::GpRegressor> model;
  double best_lml = -std::numeric_limits<double>::infinity();
  for (double length_scale : options_.length_scale_grid) {
    gp::GpRegressor candidate_model(
        std::make_unique<gp::Matern52Kernel>(length_scale, 1.0),
        options_.noise_var);
    candidate_model.set_obs(options_.obs);
    candidate_model.fit(x, y);
    const double lml = candidate_model.log_marginal_likelihood();
    if (lml > best_lml) {
      best_lml = lml;
      model.emplace(std::move(candidate_model));
    }
  }

  // EI maximization over a random pool plus local moves around the
  // incumbent best configuration.
  std::vector<double> best_action(dim);
  double best_ei = -1.0;
  auto consider = [&](const std::vector<double>& cand) {
    const auto pred = model->predict(cand);
    const double ei =
        gp::expected_improvement(pred, best_time, options_.ei_xi);
    if (ei > best_ei) {
      best_ei = ei;
      best_action = cand;
    }
  };

  std::vector<double> cand(dim);
  std::size_t num_candidates = options_.candidate_pool;
  for (std::size_t i = 0; i < options_.candidate_pool; ++i) {
    for (double& a : cand) a = rng_.uniform();
    consider(cand);
  }
  if (!incumbent.empty()) {
    num_candidates += options_.local_candidates;
    for (std::size_t i = 0; i < options_.local_candidates; ++i) {
      for (std::size_t d = 0; d < dim; ++d) {
        cand[d] = common::clamp(
            incumbent[d] + rng_.normal(0.0, options_.local_sigma), 0.0, 1.0);
      }
      consider(cand);
    }
  }
  modeled_seconds +=
      rec_cost::kGpPredictPerN2 * n * n * static_cast<double>(num_candidates);
  return best_action;
}

TuningReport OtterTuneTuner::tune(sparksim::TuningEnvironment& env,
                                  int num_steps) {
  TuningReport report;
  report.tuner_name = name();
  report.workload_name = env.workload().name;

  const std::vector<double> initial_state = env.reset();
  report.default_time = env.default_time();
  env.reset_cost_counters();

  // Workload mapping: pick the most similar historical workload by the
  // metrics of the initial (default-configuration) run.
  std::vector<gp::Observation> mapped;
  if (!repository_.empty()) {
    const std::string& nearest = repository_.nearest_workload(initial_state);
    mapped = repository_.observations(nearest);
  }

  std::vector<gp::Observation> observed;
  std::vector<double> incumbent;  // best action evaluated on the target
  double best_time = report.default_time;

  for (int step = 1; step <= num_steps; ++step) {
    double rec_seconds = 0.0;
    std::vector<double> action =
        recommend(env.action_dim(), mapped, observed, best_time, incumbent,
                  rec_seconds);

    const sparksim::StepResult res = env.step(action);
    observed.push_back({action, res.state, res.exec_seconds});
    if (res.success && res.exec_seconds < best_time) {
      best_time = res.exec_seconds;
      incumbent = action;
    }

    TuningStepRecord rec;
    rec.step = step;
    rec.exec_seconds = res.exec_seconds;
    rec.reward = res.reward;
    rec.success = res.success;
    rec.recommendation_seconds = rec_seconds;
    rec.best_so_far = env.best_time();
    report.steps.push_back(rec);
  }

  report.best_time = env.best_time();
  report.best_config = env.best_config();
  return report;
}

}  // namespace deepcat::tuners
