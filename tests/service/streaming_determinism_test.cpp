// The streaming determinism contract, stress-tested: one request set,
// submitted in 10 different shuffled arrival orders across thread pools of
// 1, 4 and 16, must always produce (a) the identical post-merge master
// checkpoint — continuous master updates included — and (b) identical
// per-request reports modulo completion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;  // continuous updates must stay deterministic
  return o;
}

std::vector<TuningRequest> stress_requests() {
  std::vector<TuningRequest> reqs;
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = cases[i];
    r.cluster = i % 3 == 2 ? "b" : "a";
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

struct RunResult {
  std::string checkpoint;
  std::vector<SessionReport> reports;  // sorted by id
};

RunResult run_once(const std::string& master_blob,
                   const std::vector<TuningRequest>& arrival_order,
                   std::size_t threads) {
  StreamingService svc(stress_options(threads));
  std::istringstream blob(master_blob, std::ios::binary);
  svc.load_model("default", blob);
  RunResult result;
  for (auto& report : serve_all(svc, arrival_order)) {
    result.reports.push_back(std::move(report.session));
  }
  (void)svc.flush();
  result.checkpoint = svc.checkpoint_of("default");
  std::sort(result.reports.begin(), result.reports.end(),
            [](const SessionReport& a, const SessionReport& b) {
              return a.id < b.id;
            });
  return result;
}

void expect_reports_equal(const SessionReport& a, const SessionReport& b,
                          const std::string& context) {
  EXPECT_EQ(a.id, b.id) << context;
  EXPECT_EQ(a.ok, b.ok) << context;
  EXPECT_EQ(a.error, b.error) << context;
  EXPECT_EQ(a.report.default_time, b.report.default_time) << context;
  EXPECT_EQ(a.report.best_time, b.report.best_time) << context;
  ASSERT_EQ(a.report.steps.size(), b.report.steps.size()) << context;
  for (std::size_t s = 0; s < a.report.steps.size(); ++s) {
    EXPECT_EQ(a.report.steps[s].exec_seconds, b.report.steps[s].exec_seconds)
        << context;
    EXPECT_EQ(a.report.steps[s].reward, b.report.steps[s].reward) << context;
  }
  ASSERT_EQ(a.new_transitions.size(), b.new_transitions.size()) << context;
  for (std::size_t t = 0; t < a.new_transitions.size(); ++t) {
    EXPECT_EQ(a.new_transitions[t].reward, b.new_transitions[t].reward)
        << context;
    EXPECT_EQ(a.new_transitions[t].state, b.new_transitions[t].state)
        << context;
    EXPECT_EQ(a.new_transitions[t].action, b.new_transitions[t].action)
        << context;
  }
}

TEST(StreamingDeterminismTest, MasterStateAndReportsSurviveArrivalShuffles) {
  // Train once, serve everywhere from the same serialized master.
  std::string master_blob;
  {
    StreamingService trainer(stress_options(1));
    trainer.train_model(
        "default", sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
    master_blob = trainer.checkpoint_of("default");
  }

  const auto requests = stress_requests();
  const RunResult reference = run_once(master_blob, requests, 1);
  ASSERT_EQ(reference.reports.size(), requests.size());
  for (const auto& r : reference.reports) EXPECT_TRUE(r.ok) << r.error;
  const std::uint32_t reference_hash = crc32(
      reinterpret_cast<const unsigned char*>(reference.checkpoint.data()),
      reference.checkpoint.size());

  common::Rng shuffler(0xA11C0DE5ull);
  const std::size_t kShuffles = 10;
  const std::size_t kThreadCounts[] = {1, 4, 16};
  for (std::size_t shuffle = 0; shuffle < kShuffles; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads : kThreadCounts) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const RunResult run = run_once(master_blob, order, threads);

      const std::uint32_t hash =
          crc32(reinterpret_cast<const unsigned char*>(run.checkpoint.data()),
                run.checkpoint.size());
      EXPECT_EQ(hash, reference_hash) << context;
      EXPECT_EQ(run.checkpoint, reference.checkpoint)
          << context << ": merged master diverged";

      ASSERT_EQ(run.reports.size(), reference.reports.size()) << context;
      for (std::size_t i = 0; i < run.reports.size(); ++i) {
        expect_reports_equal(run.reports[i], reference.reports[i], context);
      }
    }
  }
}

TEST(StreamingDeterminismTest, MidStreamFlushesStayOrderInvariant) {
  // Flush boundaries partition the request set; within a partition arrival
  // order still must not matter. Serve the same two-phase conversation
  // with each phase internally shuffled.
  std::string master_blob;
  {
    StreamingService trainer(stress_options(1));
    trainer.train_model(
        "default", sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
    master_blob = trainer.checkpoint_of("default");
  }
  const auto requests = stress_requests();
  const std::vector<TuningRequest> phase1(requests.begin(),
                                          requests.begin() + 4);
  const std::vector<TuningRequest> phase2(requests.begin() + 4,
                                          requests.end());

  auto run_two_phase = [&](std::vector<TuningRequest> p1,
                           std::vector<TuningRequest> p2,
                           std::size_t threads) {
    StreamingService svc(stress_options(threads));
    std::istringstream blob(master_blob, std::ios::binary);
    svc.load_model("default", blob);
    (void)serve_all(svc, std::move(p1));
    (void)svc.flush();  // phase boundary: merge + continuous master update
    (void)serve_all(svc, std::move(p2));
    (void)svc.flush();
    EXPECT_EQ(svc.model_epoch("default"), 3u);
    return svc.checkpoint_of("default");
  };

  const std::string reference = run_two_phase(phase1, phase2, 1);
  common::Rng shuffler(0xBEEFull);
  for (std::size_t i = 0; i < 3; ++i) {
    auto p1 = phase1;
    auto p2 = phase2;
    shuffler.shuffle(p1);
    shuffler.shuffle(p2);
    EXPECT_EQ(run_two_phase(p1, p2, 4), reference)
        << "two-phase shuffle " << i;
  }
}

}  // namespace
}  // namespace deepcat::service
