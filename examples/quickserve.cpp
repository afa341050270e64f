// Quickserve: the programmatic side of `deepcat serve`. Trains a master
// model once, publishes it to a versioned on-disk registry, then serves a
// mixed-workload batch of tuning requests concurrently — each session
// clones the master, fine-tunes in isolation, and one flush merges its
// experience back into the shared RDPER pools afterwards (the paper's
// train-once / tune-many deployment, §2 and §4).
//
//   $ ./quickserve
#include <cstdio>

#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

int main() {
  using namespace deepcat;
  using sparksim::WorkloadType;

  // 1. A service owns the shared master model and the session pool.
  service::StreamingOptions options;
  options.service.threads = 4;
  options.service.api.tuner.seed = 7;
  service::StreamingService svc(options);

  // 2. Train once, publish to the registry. A later process (or a
  //    restarted service) loads the newest version instead of retraining.
  std::puts("training master on TeraSort(3.2GB)...");
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 600);
  service::ModelRegistry registry("/tmp/deepcat_quickserve_registry");
  const auto version = registry.publish("demo", svc.master());
  std::printf("published model 'demo' v%u to %s\n", version,
              registry.directory().c_str());

  // 3. Serve a batch of mixed-workload requests concurrently, then flush
  //    once. Reports come back in request order and are identical for any
  //    thread count.
  std::vector<service::TuningRequest> requests;
  for (const char* id : {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"}) {
    service::TuningRequest r;
    r.id = std::string("req-") + id;
    r.workload = id;
    r.max_steps = 5;
    r.seed = 100 + requests.size();
    requests.push_back(r);
  }
  const auto reports = service::serve_all(svc, requests);
  (void)svc.flush();

  std::puts("\nid            workload  default(s)  best(s)  speedup");
  for (const auto& report : reports) {
    const service::SessionReport& r = report.session;
    if (!r.ok) {
      std::printf("%-13s %-9s FAILED: %s\n", r.id.c_str(),
                  r.workload.c_str(), r.error.c_str());
      continue;
    }
    std::printf("%-13s %-9s %9.1f %8.1f %7.2fx\n", r.id.c_str(),
                r.workload.c_str(), r.report.default_time,
                r.report.best_time, r.report.speedup_over_default());
  }

  const auto m = svc.metrics();
  std::printf(
      "\nserved %zu sessions (%zu failed), %zu paid evaluations, "
      "p50/p95 recommendation cost %.4f/%.4f s, mean speedup %.2fx\n",
      m.sessions_served, m.sessions_failed, m.evaluations_paid,
      m.p50_recommendation_seconds, m.p95_recommendation_seconds,
      m.mean_speedup);
  return 0;
}
