// Figure 9: adaptability to workload change. DeepCAT models offline-
// trained on WC / TS / KM / PR are each used to online-tune PageRank
// (M_X -> PR); CDBTune and OtterTune are prepared specifically for
// PageRank. Paper: DeepCAT's transferred models beat both baselines
// (avg +15.86% over CDBTune, +27.21% over OtterTune perf; 21.67% / 24.02%
// less tuning cost), and M_TS -> PR is the weakest transfer. Results are
// averaged over 3 online sessions per model.
//
// The six tuner preparations (4 DeepCAT transfers + CDBTune + OtterTune)
// are self-contained, so they fan out as one unit each and fold back in
// fixed order — figure data is byte-identical to a serial run for any
// DEEPCAT_BENCH_THREADS.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace {

using namespace deepcat;
using namespace deepcat::sparksim;

constexpr std::uint64_t kTuneSeeds[] = {909, 919, 929};
constexpr const char* kSources[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1"};

struct Averages {
  double best = 0.0;
  double cost = 0.0;
};

template <typename Tuner, typename Restore>
Averages averaged_tune(Tuner& tuner, Restore restore) {
  Averages out;
  for (const std::uint64_t seed : kTuneSeeds) {
    restore(tuner);
    TuningEnvironment env =
        bench::make_env(hibench_case("PR-D1"), seed);
    const auto report = tuner.tune(env, bench::kOnlineSteps);
    out.best += report.best_time / std::size(kTuneSeeds);
    out.cost += report.total_tuning_seconds() / std::size(kTuneSeeds);
  }
  return out;
}

/// Units 0-3: DeepCAT M_source -> PR. Unit 4: CDBTune. Unit 5: OtterTune.
/// Each unit builds its own tuner from scratch, so it is a pure function
/// of its index.
Averages run_unit(std::size_t unit) {
  if (unit < 4) {
    tuners::DeepCatTuner tuner =
        bench::trained_deepcat(hibench_case(kSources[unit]), 9);
    const rl::AgentSnapshot snapshot = tuner.agent().snapshot();
    return averaged_tune(tuner, [&snapshot](tuners::DeepCatTuner& model) {
      model.agent().restore(snapshot);
    });
  }
  if (unit == 4) {
    tuners::CdbTuneTuner cdbtune =
        bench::trained_cdbtune(hibench_case("PR-D1"), 9);
    const rl::AgentSnapshot snapshot = cdbtune.agent().snapshot();
    return averaged_tune(cdbtune, [&snapshot](tuners::CdbTuneTuner& model) {
      model.agent().restore(snapshot);
    });
  }
  tuners::OtterTuneTuner ottertune = bench::seeded_ottertune(9);
  return averaged_tune(ottertune, [](tuners::OtterTuneTuner&) {});
}

}  // namespace

int main() {
  const auto units = common::parallel_map(bench::shared_pool(), 6, run_unit);

  common::Table t(
      "Figure 9: online-tuning PageRank (0.5 Mpages) with models trained "
      "on different workloads (avg of 3 sessions)");
  t.header({"model", "best exec time (s)", "total tuning cost (s)"});

  double dc_perf_sum = 0.0, dc_cost_sum = 0.0;
  double ts_to_pr = 0.0, pr_to_pr = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const Averages& avg = units[i];
    t.row({std::string("DeepCAT M_") + kSources[i] + " -> PR",
           common::cell(avg.best, 1), common::cell(avg.cost, 1)});
    dc_perf_sum += avg.best;
    dc_cost_sum += avg.cost;
    if (std::string(kSources[i]) == "TS-D1") ts_to_pr = avg.best;
    if (std::string(kSources[i]) == "PR-D1") pr_to_pr = avg.best;
  }

  const Averages& cdb = units[4];
  t.row({"CDBTune (trained on PR)", common::cell(cdb.best, 1),
         common::cell(cdb.cost, 1)});

  const Averages& ot = units[5];
  t.row({"OtterTune (PR history mapped)", common::cell(ot.best, 1),
         common::cell(ot.cost, 1)});

  t.print(std::cout);

  const double dc_avg_perf = dc_perf_sum / 4.0;
  const double dc_avg_cost = dc_cost_sum / 4.0;
  std::cout << "\nDeepCAT (4-model avg) vs CDBTune: perf "
            << common::percent_cell((cdb.best - dc_avg_perf) / cdb.best, 2)
            << " better (paper: 15.86%), cost "
            << common::percent_cell((cdb.cost - dc_avg_cost) / cdb.cost, 2)
            << " less (paper: 21.67%)\n";
  std::cout << "DeepCAT (4-model avg) vs OtterTune: perf "
            << common::percent_cell((ot.best - dc_avg_perf) / ot.best, 2)
            << " better (paper: 27.21%), cost "
            << common::percent_cell((ot.cost - dc_avg_cost) / ot.cost, 2)
            << " less (paper: 24.02%)\n";
  std::cout << "Transfer penalty M_TS->PR vs native M_PR->PR: "
            << common::percent_cell((ts_to_pr - pr_to_pr) / pr_to_pr, 2)
            << " more execution time (paper: 11.22%-19.44% across models)\n";
  return 0;
}
