// Figure 5: execution time of the configuration recommended at each of
// the 5 online tuning steps, DeepCAT with vs without the Twin-Q
// Optimizer, starting from the SAME offline model. As in the paper, the
// offline model comes from the "standard environment" (the D2 dataset)
// and the online request is a different real environment (the D1
// dataset), so online exploration is live and the optimizer has
// proposals to screen. Sessions are averaged to de-noise the series.
//
// The paper reports TeraSort; we additionally sweep the other three
// workloads because the screening payoff concentrates where exploration
// is dangerous (KMeans/PageRank memory cliffs) — see EXPERIMENTS.md.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace {

using namespace deepcat;
using namespace deepcat::sparksim;

constexpr int kTrials = 8;

struct Series {
  double step_time[bench::kOnlineSteps] = {};
  double total = 0.0;
  double best = 0.0;
};

struct ArmPair {
  Series with_opt;
  Series without_opt;
};

// Both arms explore online with the same Gaussian noise; the only
// difference is whether the Twin-Q Optimizer screens/repairs each
// exploratory proposal before it is paid for. This isolates the paper's
// "low-cost exploration-exploitation trade off".
constexpr double kExploreSigma = 0.25;
// The ablation isolates the optimizer given a CONVERGED offline model
// ("based on the same offline training model", paper §5.1.2), so train
// past the Fig. 4 convergence knee.
constexpr std::size_t kFig5OfflineIters = 2000;

ArmPair run_workload(const std::string& train_id, const std::string& tune_id) {
  tuners::DeepCatOptions with_options = bench::deepcat_options(5);
  with_options.online_explore_sigma = kExploreSigma;
  tuners::DeepCatTuner with_opt(with_options);
  {
    TuningEnvironment env =
        bench::make_env(hibench_case(train_id), 5 * 7919 + 13);
    (void)with_opt.train_offline(env, kFig5OfflineIters);
  }
  const rl::AgentSnapshot snapshot = with_opt.agent().snapshot();

  tuners::DeepCatOptions without_options = with_options;
  without_options.use_twin_q_optimizer = false;
  tuners::DeepCatTuner without_opt(without_options);
  {
    TuningEnvironment boot = bench::make_env(hibench_case(train_id), 55);
    (void)without_opt.train_offline(boot, 64);
    without_opt.agent().restore(snapshot);
  }

  auto run_sessions = [&](tuners::DeepCatTuner& tuner) {
    Series out;
    for (int trial = 0; trial < kTrials; ++trial) {
      tuner.agent().restore(snapshot);
      TuningEnvironment env = bench::make_env(
          hibench_case(tune_id), 770 + static_cast<std::uint64_t>(trial));
      const auto report = tuner.tune(env, bench::kOnlineSteps);
      for (int i = 0; i < bench::kOnlineSteps; ++i) {
        out.step_time[i] +=
            report.steps[static_cast<std::size_t>(i)].exec_seconds / kTrials;
      }
      out.total += report.total_evaluation_seconds() / kTrials;
      out.best += report.best_time / kTrials;
    }
    return out;
  };

  return {run_sessions(with_opt), run_sessions(without_opt)};
}

}  // namespace

int main() {
  // --- The paper's panel: TeraSort, per-step series.
  const ArmPair ts = run_workload("TS-D2", "TS-D1");
  common::Table t(
      "Figure 5: per-step execution time, DeepCAT vs DeepCAT w/o Twin-Q "
      "Optimizer (TeraSort 3.2 GB, model from TeraSort 6 GB, avg of " +
      std::to_string(kTrials) + " sessions)");
  t.header({"online step", "DeepCAT (s)", "w/o Twin-Q Optimizer (s)",
            "saved (s)"});
  for (int i = 0; i < bench::kOnlineSteps; ++i) {
    t.row({common::cell(i + 1), common::cell(ts.with_opt.step_time[i], 1),
           common::cell(ts.without_opt.step_time[i], 1),
           common::cell(ts.without_opt.step_time[i] - ts.with_opt.step_time[i],
                        1)});
  }
  t.print(std::cout);

  // --- All four workloads: total 5-step evaluation time and best config.
  common::Table summary(
      "Figure 5 summary: total 5-step evaluation time with/without the "
      "Twin-Q Optimizer (D2-trained model tunes D1)");
  summary.header({"workload", "DeepCAT total (s)", "w/o optimizer total (s)",
                  "time saved", "DeepCAT best (s)", "w/o optimizer best (s)"});
  auto add_row = [&summary](const std::string& name, const ArmPair& p) {
    summary.row({name, common::cell(p.with_opt.total, 1),
                 common::cell(p.without_opt.total, 1),
                 common::percent_cell(
                     (p.without_opt.total - p.with_opt.total) /
                         p.without_opt.total,
                     2),
                 common::cell(p.with_opt.best, 1),
                 common::cell(p.without_opt.best, 1)});
  };
  add_row("TeraSort", ts);
  add_row("WordCount", run_workload("WC-D2", "WC-D1"));
  add_row("PageRank", run_workload("PR-D2", "PR-D1"));
  add_row("KMeans", run_workload("KM-D2", "KM-D1"));
  std::cout << '\n';
  summary.print(std::cout);
  std::cout << "\n(paper, TeraSort only: 19.29% less total time — 204.6 s vs "
               "253.5 s — and a 7.29% better best configuration; in our "
               "simulator the screening payoff concentrates on the "
               "memory-cliff workloads)\n";
  return 0;
}
