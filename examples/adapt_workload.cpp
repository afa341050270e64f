// Workload adaptation (paper §5.3.1): one DeepCAT model, trained offline
// on TeraSort, serves online tuning requests for all four HiBench
// applications. Demonstrates that a DRL policy plus online fine-tuning
// transfers across workload types without retraining — the property that
// makes online auto-tuning practical when workloads shift hour to hour.
#include <cstdio>

#include "core/deepcat_api.hpp"

int main() {
  using namespace deepcat;
  using sparksim::WorkloadType;

  core::DeepCat tuner(sparksim::cluster_a());
  std::puts("offline: training once on TeraSort(6GB)...");
  (void)tuner.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 6.0), 1200);

  // Snapshot the offline agent so each request starts from the same
  // networks and optimizers (online fine-tuning specializes a copy per
  // request).
  const rl::AgentSnapshot snapshot = tuner.tuner().agent().snapshot();

  struct Request {
    WorkloadType type;
    double size;
  };
  const Request requests[] = {
      {WorkloadType::kWordCount, 3.2},
      {WorkloadType::kTeraSort, 3.2},
      {WorkloadType::kPageRank, 0.5},
      {WorkloadType::kKMeans, 20.0},
  };

  std::printf("\n%-22s %12s %12s %10s %14s\n", "request", "default(s)",
              "best(s)", "speedup", "tuning cost(s)");
  for (const Request& request : requests) {
    tuner.tuner().agent().restore(snapshot);

    const auto workload = sparksim::make_workload(request.type, request.size);
    const auto report = tuner.tune_online(workload, {.max_steps = 5});
    std::printf("%-22s %12.1f %12.1f %9.2fx %14.1f\n",
                workload.name.c_str(), report.default_time, report.best_time,
                report.speedup_over_default(),
                report.total_tuning_seconds());
  }
  std::puts("\nA TeraSort-trained model tunes every workload above without "
            "offline retraining (paper Fig. 9).");
  return 0;
}
