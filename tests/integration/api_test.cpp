#include "core/deepcat_api.hpp"

#include <gtest/gtest.h>

namespace deepcat::core {
namespace {

using sparksim::WorkloadType;

DeepCatApiOptions fast_options(std::uint64_t seed = 1) {
  DeepCatApiOptions o;
  o.tuner.td3.hidden = {32, 32};
  o.tuner.seed = seed;
  o.tuner.warmup_steps = 16;
  o.env.seed = seed + 100;
  return o;
}

TEST(DeepCatApiTest, QuickstartFlow) {
  DeepCat dc(sparksim::cluster_a(), fast_options(1));
  const auto trace = dc.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 200);
  EXPECT_EQ(trace.size(), 200u);

  const auto report = dc.tune_online(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
      {.max_steps = 5});
  EXPECT_EQ(report.steps.size(), 5u);
  EXPECT_LE(report.best_time, report.default_time);
}

TEST(DeepCatApiTest, CrossWorkloadAdaptation) {
  DeepCat dc(sparksim::cluster_a(), fast_options(2));
  (void)dc.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 250);
  // Tune a different workload with the TeraSort-trained model (paper §5.3.1).
  const auto report = dc.tune_online(
      sparksim::make_workload(WorkloadType::kPageRank, 0.5), {.max_steps = 5});
  EXPECT_EQ(report.steps.size(), 5u);
  EXPECT_LE(report.best_time, report.default_time);
}

TEST(DeepCatApiTest, CrossClusterAdaptation) {
  DeepCat dc(sparksim::cluster_a(), fast_options(3));
  (void)dc.train_offline(
      sparksim::make_workload(WorkloadType::kWordCount, 3.2), 250);
  // Model trained on Cluster-A tunes Cluster-B (paper §5.3.2).
  const auto report = dc.tune_online_on(
      sparksim::cluster_b(),
      sparksim::make_workload(WorkloadType::kWordCount, 3.2),
      {.max_steps = 5});
  EXPECT_EQ(report.steps.size(), 5u);
  EXPECT_GT(report.default_time, 0.0);
}

TEST(DeepCatApiTest, BudgetTerminationHonored) {
  DeepCat dc(sparksim::cluster_a(), fast_options(6));
  (void)dc.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 150);
  const auto report = dc.tune_online(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
      {.max_steps = 40, .max_total_seconds = 120.0});
  EXPECT_LT(report.steps.size(), 40u);
}

}  // namespace
}  // namespace deepcat::core
