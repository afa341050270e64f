#include "tuners/tuner.hpp"

#include <gtest/gtest.h>

#include <string>

namespace deepcat::tuners {
namespace {

TuningReport sample_report() {
  TuningReport r;
  r.tuner_name = std::string("X");  // = "X" trips a GCC 12 -Wrestrict
  r.default_time = 100.0;
  r.best_time = 25.0;
  r.steps = {
      {1, 40.0, 0.1, true, 0.5, 40.0},
      {2, 30.0, 0.2, true, 0.25, 30.0},
      {3, 25.0, 0.3, true, 0.25, 25.0},
  };
  return r;
}

TEST(TuningReportTest, EvaluationCostSumsSteps) {
  EXPECT_DOUBLE_EQ(sample_report().total_evaluation_seconds(), 95.0);
}

TEST(TuningReportTest, RecommendationCostSumsSteps) {
  EXPECT_DOUBLE_EQ(sample_report().total_recommendation_seconds(), 1.0);
}

TEST(TuningReportTest, TotalIsEvaluationPlusRecommendation) {
  const TuningReport r = sample_report();
  EXPECT_DOUBLE_EQ(r.total_tuning_seconds(), 96.0);
}

TEST(TuningReportTest, SpeedupOverDefault) {
  EXPECT_DOUBLE_EQ(sample_report().speedup_over_default(), 4.0);
  TuningReport degenerate;
  degenerate.default_time = 100.0;
  degenerate.best_time = 0.0;
  EXPECT_DOUBLE_EQ(degenerate.speedup_over_default(), 0.0);
}

TEST(TuningReportTest, EmptyReportIsZeroCost) {
  const TuningReport r;
  EXPECT_DOUBLE_EQ(r.total_evaluation_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(r.total_recommendation_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(r.total_tuning_seconds(), 0.0);
}

}  // namespace
}  // namespace deepcat::tuners
