// Phase-shift determinism stress over real sessions: one mixed batch of
// streaming (SA/SJ, phase-shifted) and batch requests on both clusters,
// served across threads {1,4,16} x 3 arrival shuffles, must always produce
// byte-identical REP transcripts (sorted by request id) and a
// byte-identical checkpoint of the default master after the merge — the
// streaming-workload variant of the streaming determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/jsonl.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

StreamingOptions stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;
  return o;
}

std::vector<TuningRequest> stress_requests() {
  // Streaming sessions beside batch sessions, on both clusters.
  struct Spec {
    const char* workload;
    const char* cluster;
  };
  const Spec specs[] = {
      {"SA-P1", "a"}, {"SJ-P1", "a"}, {"SA-P2", "a"},
      {"TS-D1", "b"}, {"WC-D1", "a"}, {"KM-D1", "b"},
  };
  std::vector<TuningRequest> reqs;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = specs[i].workload;
    r.cluster = specs[i].cluster;
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

struct RunResult {
  std::string transcript;  ///< REP lines sorted by id
  std::string checkpoint;  ///< the default master after the merge
};

RunResult run_once(const std::string& master_blob,
                   const std::vector<TuningRequest>& arrival_order,
                   std::size_t threads) {
  StreamingService svc(stress_options(threads));
  std::istringstream blob(master_blob, std::ios::binary);
  svc.load_model("default", blob);

  std::vector<SessionReport> reports;
  for (auto& rep : serve_all(svc, arrival_order)) {
    reports.push_back(std::move(rep.session));
  }
  (void)svc.flush();

  std::sort(reports.begin(), reports.end(),
            [](const SessionReport& a, const SessionReport& b) {
              return a.id < b.id;
            });
  RunResult out;
  std::ostringstream os;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    write_report_jsonl(os, r);
  }
  out.transcript = os.str();
  out.checkpoint = svc.checkpoint_of("default");
  return out;
}

TEST(StreamingWorkloadDeterminismTest,
     TranscriptsAndCheckpointsSurviveEveryLayout) {
  std::string master_blob;
  {
    StreamingService trainer(stress_options(1));
    master_blob = trainer.train_model(
        "default",
        sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 40);
  }

  const auto requests = stress_requests();
  const RunResult reference = run_once(master_blob, requests, 1);
  ASSERT_FALSE(reference.transcript.empty());
  ASSERT_FALSE(reference.checkpoint.empty());
  EXPECT_NE(reference.checkpoint, master_blob)
      << "the merge should have moved the master past its loaded state";
  // Streaming REP lines must carry the re-adaptation keys.
  EXPECT_NE(reference.transcript.find("\"objective\":\"batch_latency_p95\""),
            std::string::npos);

  common::Rng shuffler(0x5C0BE5ull);
  const std::size_t kThreadCounts[] = {1, 4, 16};
  for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads : kThreadCounts) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const RunResult run = run_once(master_blob, order, threads);
      EXPECT_EQ(run.transcript, reference.transcript)
          << context << ": REP transcript diverged";
      EXPECT_EQ(run.checkpoint, reference.checkpoint)
          << context << ": the default master's checkpoint diverged";
    }
  }
}

}  // namespace
}  // namespace deepcat::service
