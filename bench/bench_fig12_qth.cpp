// Figure 12: sensitivity to the Twin-Q Optimizer threshold Q_th. One
// offline model serves five online-tuning sessions with Q_th = 0.1..0.5
// (weights restored between sessions). Paper: larger Q_th drives riskier
// exploration — Q_th = 0.5 finds the best configuration but at the
// largest tuning cost; 0.3 is chosen (least total time, within 2.54 s of
// the 0.5 optimum).
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace deepcat;
  using namespace deepcat::sparksim;

  const auto& ts = hibench_case("TS-D1");
  tuners::DeepCatOptions options = bench::deepcat_options(12);
  tuners::DeepCatTuner tuner(options);
  TuningEnvironment train_env = bench::make_env(ts, 1200);
  (void)tuner.train_offline(train_env, bench::kOfflineIters);
  const rl::AgentSnapshot snapshot = tuner.agent().snapshot();

  common::Table t(
      "Figure 12: DeepCAT performance under different Q_th settings "
      "(TeraSort 3.2 GB, shared offline model)");
  t.header({"Q_th", "best exec time (s)", "total tuning cost (s)",
            "optimizer iterations (5 steps)"});

  for (double qth : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    // Rebuild the tuner with the new threshold, then restore the shared
    // offline agent so only Q_th varies.
    tuners::DeepCatOptions o = bench::deepcat_options(12);
    o.q_threshold = qth;
    tuners::DeepCatTuner session(o);
    {
      TuningEnvironment boot = bench::make_env(ts, 1201);
      (void)session.train_offline(boot, 64);
      session.agent().restore(snapshot);
    }
    TuningEnvironment env = bench::make_env(ts, 1212);
    const auto report = session.tune(env, bench::kOnlineSteps);
    std::size_t opt_iters = 0;
    for (const auto& trace : session.last_online_traces()) {
      opt_iters += trace.iterations;
    }
    t.row({common::cell(qth, 1), common::cell(report.best_time, 1),
           common::cell(report.total_tuning_seconds(), 1),
           common::cell(opt_iters)});
  }
  t.print(std::cout);
  std::cout << "\n(paper: Q_th = 0.5 recommends the best configuration but "
               "costs the most; Q_th = 0.3 is the sweet spot)\n";
  return 0;
}
