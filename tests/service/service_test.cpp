// The batch path (serve_all, then one flush, on a StreamingService):
// results independent of thread-pool size, reports in request order,
// failures isolated per session, experience merged back into the master
// pools, metrics aggregation, and the versioned on-disk model registry.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions small_service_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  return o;
}

void train(StreamingService& svc, std::size_t iterations) {
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
                  iterations);
}

std::vector<SessionReport> batch_sessions(StreamingService& svc,
                                     std::vector<TuningRequest> requests) {
  std::vector<SessionReport> sessions;
  for (auto& r : serve_all(svc, std::move(requests))) {
    sessions.push_back(std::move(r.session));
  }
  (void)svc.flush();
  return sessions;
}

/// ≥ 8 mixed-workload requests (all four workload types, both clusters)
/// with per-request seeds — the acceptance-criterion batch shape.
std::vector<TuningRequest> mixed_batch() {
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

void expect_session_reports_identical(const SessionReport& a,
                                      const SessionReport& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.report.default_time, b.report.default_time);
  EXPECT_EQ(a.report.best_time, b.report.best_time);
  ASSERT_EQ(a.report.steps.size(), b.report.steps.size());
  for (std::size_t s = 0; s < a.report.steps.size(); ++s) {
    EXPECT_EQ(a.report.steps[s].exec_seconds, b.report.steps[s].exec_seconds);
    EXPECT_EQ(a.report.steps[s].reward, b.report.steps[s].reward);
    EXPECT_EQ(a.report.steps[s].recommendation_seconds,
              b.report.steps[s].recommendation_seconds);
  }
  ASSERT_EQ(a.new_transitions.size(), b.new_transitions.size());
  for (std::size_t t = 0; t < a.new_transitions.size(); ++t) {
    EXPECT_EQ(a.new_transitions[t].reward, b.new_transitions[t].reward);
    EXPECT_EQ(a.new_transitions[t].state, b.new_transitions[t].state);
    EXPECT_EQ(a.new_transitions[t].action, b.new_transitions[t].action);
  }
}

TEST(ServiceTest, BatchResultsIndependentOfThreadCount) {
  StreamingService wide(small_service_options(4));
  train(wide, 40);
  std::stringstream master(wide.checkpoint_of("default"));

  StreamingService narrow(small_service_options(1));
  narrow.load_model("default", master);

  const auto requests = mixed_batch();
  const auto ra = batch_sessions(wide, requests);
  const auto rb = batch_sessions(narrow, requests);
  ASSERT_EQ(ra.size(), requests.size());
  ASSERT_EQ(rb.size(), requests.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, requests[i].id) << "reports must be in request order";
    EXPECT_TRUE(ra[i].ok) << ra[i].error;
    expect_session_reports_identical(ra[i], rb[i]);
  }
  EXPECT_EQ(wide.checkpoint_of("default"), narrow.checkpoint_of("default"))
      << "the merged and fine-tuned master must not depend on pool size";
}

TEST(ServiceTest, FailedSessionIsIsolatedAndReported) {
  StreamingService svc(small_service_options(2));
  train(svc, 30);

  auto requests = mixed_batch();
  requests.resize(3);
  requests[1].workload = "NOT-A-WORKLOAD";
  const auto reports = batch_sessions(svc, requests);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_TRUE(reports[0].ok) << reports[0].error;
  EXPECT_FALSE(reports[1].ok);
  EXPECT_FALSE(reports[1].error.empty());
  EXPECT_TRUE(reports[2].ok) << reports[2].error;

  // served counts successful sessions; failures are tracked separately.
  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_served, 2u);
  EXPECT_EQ(m.sessions_failed, 1u);
}

TEST(ServiceTest, SessionExperienceMergesIntoMasterPools) {
  StreamingService svc(small_service_options(2));
  train(svc, 30);

  const auto* pools =
      dynamic_cast<const rl::RdperReplay*>(svc.master().tuner().replay());
  ASSERT_NE(pools, nullptr);
  const std::size_t before = pools->size();

  auto requests = mixed_batch();
  requests.resize(4);
  const auto reports = batch_sessions(svc, requests);
  std::size_t generated = 0;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.new_transitions.empty());
    generated += r.new_transitions.size();
  }
  EXPECT_EQ(pools->size(), before + generated);
  EXPECT_EQ(svc.metrics().merged_transitions, generated);
  EXPECT_EQ(svc.model_epoch(), 2u) << "one flush, one merge, one new epoch";
}

TEST(ServiceTest, MetricsAggregateAcrossBatch) {
  StreamingService svc(small_service_options(3));
  train(svc, 30);

  const auto requests = mixed_batch();
  const auto reports = batch_sessions(svc, requests);
  std::size_t evals = 0;
  for (const auto& r : reports) evals += r.report.steps.size();

  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_served, requests.size());
  EXPECT_EQ(m.sessions_failed, 0u);
  EXPECT_EQ(m.evaluations_paid, evals);
  EXPECT_GT(m.evaluation_seconds, 0.0);
  EXPECT_GT(m.recommendation_seconds, 0.0);
  EXPECT_GT(m.p50_recommendation_seconds, 0.0);
  EXPECT_GE(m.p95_recommendation_seconds, m.p50_recommendation_seconds);
  EXPECT_GT(m.mean_speedup, 0.0);
}

TEST(ServiceTest, RegistryPublishesMonotonicVersions) {
  const std::string dir = ::testing::TempDir() + "deepcat_registry_test";
  std::filesystem::remove_all(dir);  // stale versions from earlier runs
  ModelRegistry registry(dir);
  EXPECT_FALSE(registry.latest_version("prod").has_value());

  StreamingService svc(small_service_options(1));
  train(svc, 30);

  const std::uint32_t v1 = registry.publish("prod", svc.master());
  const std::uint32_t v2 = registry.publish("prod", svc.master());
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  ASSERT_TRUE(registry.latest_version("prod").has_value());
  EXPECT_EQ(*registry.latest_version("prod"), 2u);
  EXPECT_NE(registry.path_for("prod", 2).find("prod.v2.dckp"),
            std::string::npos);
  // Names are independent version streams.
  EXPECT_FALSE(registry.latest_version("staging").has_value());

  core::DeepCat restored(sparksim::cluster_a(),
                         small_service_options(1).service.api);
  registry.load_into("prod", 2, restored);
  const auto workload = sparksim::make_workload(WorkloadType::kPageRank, 0.5);
  // The restored model tunes identically to the publishing master.
  std::stringstream master_blob(svc.checkpoint_of("default"));
  core::DeepCat from_blob(sparksim::cluster_a(),
                          small_service_options(1).service.api);
  load_checkpoint(master_blob, from_blob);
  const auto ra = restored.tune_online(workload, {.max_steps = 2});
  const auto rb = from_blob.tune_online(workload, {.max_steps = 2});
  EXPECT_EQ(ra.best_time, rb.best_time);
  EXPECT_EQ(ra.default_time, rb.default_time);
}

}  // namespace
}  // namespace deepcat::service
