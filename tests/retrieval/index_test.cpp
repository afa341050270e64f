// ExperienceIndex query semantics: ascending (distance, insertion-order)
// neighbor lists, pure-function determinism, metric selection, and the
// entry_from_report summarization that feeds `deepcat index build`.
#include "retrieval/index.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sparksim/config_space.hpp"
#include "sparksim/workloads.hpp"
#include "tuners/tuner.hpp"

namespace deepcat::retrieval {
namespace {

using sparksim::WorkloadType;

ExperienceEntry entry_at(WorkloadType type, double input_mb,
                         const std::string& id, std::uint64_t seed) {
  ExperienceEntry e;
  e.workload = id;
  e.seed = seed;
  e.best_cost = 64.0;
  e.default_cost = 128.0;
  e.best_action.fill(0.5);
  e.embedding = embed_query(type, input_mb);
  return e;
}

TEST(RetrievalIndexTest, MetricNamesRoundTrip) {
  EXPECT_STREQ(metric_name(Metric::kCosine), "cosine");
  EXPECT_STREQ(metric_name(Metric::kL2), "l2");
  EXPECT_EQ(metric_from_name("cosine"), Metric::kCosine);
  EXPECT_EQ(metric_from_name("l2"), Metric::kL2);
  EXPECT_THROW((void)metric_from_name("manhattan"), std::invalid_argument);
  EXPECT_THROW((void)metric_from_name(""), std::invalid_argument);
}

TEST(RetrievalIndexTest, DefaultNeighborCountIsThree) {
  // Wire default for warm requests without an explicit k and the
  // `index query` CLI default; `deepcat info` reports it.
  EXPECT_EQ(kDefaultNeighbors, 3u);
}

TEST(RetrievalIndexTest, EmptyIndexAndZeroKReturnNothing) {
  ExperienceIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.size(), 0u);
  const Embedding q = embed_query(WorkloadType::kTeraSort, 3200.0);
  EXPECT_TRUE(index.query(q, 3, Metric::kCosine).empty());
  index.add(entry_at(WorkloadType::kTeraSort, 3200.0, "TS-D1", 1));
  EXPECT_TRUE(index.query(q, 0, Metric::kCosine).empty());
}

TEST(RetrievalIndexTest, NeighborsAscendByDistanceAndCapAtSize) {
  ExperienceIndex index;
  index.add(entry_at(WorkloadType::kTeraSort, 320.0, "TS-D1", 1));
  index.add(entry_at(WorkloadType::kTeraSort, 3200.0, "TS-D2", 2));
  index.add(entry_at(WorkloadType::kTeraSort, 32000.0, "TS-D3", 3));
  const Embedding q = embed_query(WorkloadType::kTeraSort, 3200.0);
  for (Metric m : {Metric::kCosine, Metric::kL2}) {
    const auto neighbors = index.query(q, 10, m);
    ASSERT_EQ(neighbors.size(), 3u) << metric_name(m);  // capped at size
    EXPECT_EQ(neighbors[0].entry, 1u) << metric_name(m);  // exact match first
    EXPECT_NEAR(neighbors[0].distance, 0.0, 1e-12) << metric_name(m);
    for (std::size_t i = 1; i < neighbors.size(); ++i) {
      EXPECT_LE(neighbors[i - 1].distance, neighbors[i].distance)
          << metric_name(m);
    }
  }
}

TEST(RetrievalIndexTest, TiesBreakOnInsertionOrder) {
  // Identical embeddings => identical distances; the contract pins the
  // ordering to ascending entry index so every thread and process ranks
  // the same way.
  ExperienceIndex index;
  for (std::uint64_t s = 0; s < 4; ++s) {
    index.add(entry_at(WorkloadType::kPageRank, 1000.0,
                       "PR-D1", 100 + s));
  }
  const Embedding q = embed_query(WorkloadType::kPageRank, 1000.0);
  for (Metric m : {Metric::kCosine, Metric::kL2}) {
    const auto neighbors = index.query(q, 4, m);
    ASSERT_EQ(neighbors.size(), 4u) << metric_name(m);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(neighbors[i].entry, i) << metric_name(m);
    }
  }
}

TEST(RetrievalIndexTest, QueryIsAPureFunction) {
  ExperienceIndex index;
  index.add(entry_at(WorkloadType::kWordCount, 320.0, "WC-D1", 1));
  index.add(entry_at(WorkloadType::kKMeans, 6400.0, "KM-D2", 2));
  const Embedding q = embed_query(WorkloadType::kWordCount, 320.0);
  const auto first = index.query(q, 2, Metric::kCosine);
  const auto second = index.query(q, 2, Metric::kCosine);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].entry, second[i].entry);
    EXPECT_EQ(first[i].distance, second[i].distance);  // bit-identical
  }
}

TEST(RetrievalIndexTest, QueryCaseRanksSameWorkloadFirst) {
  // One entry per workload family: a suite-case query must put its own
  // family at rank 0 under cosine — the one-hot prefix dominates when the
  // outcome slots of the query are zero.
  ExperienceIndex index;
  index.add(entry_at(WorkloadType::kWordCount, 320.0, "WC-D1", 1));
  index.add(entry_at(WorkloadType::kTeraSort, 3200.0, "TS-D1", 2));
  index.add(entry_at(WorkloadType::kPageRank, 1000.0, "PR-D1", 3));
  index.add(entry_at(WorkloadType::kKMeans, 640.0, "KM-D1", 4));
  for (const char* id : {"WC-D2", "TS-D2", "PR-D2", "KM-D2"}) {
    const auto& c = sparksim::hibench_case(id);
    const auto neighbors = index.query_case(c, 1, Metric::kCosine);
    ASSERT_EQ(neighbors.size(), 1u) << id;
    EXPECT_EQ(index.entries()[neighbors[0].entry].workload[0], id[0]) << id;
  }
}

TEST(RetrievalIndexTest, EntryFromReportEncodesTheBestConfig) {
  const auto& space = sparksim::pipeline_space();
  const auto& c = sparksim::hibench_case("TS-D2");
  tuners::TuningReport report;
  report.default_time = 200.0;
  report.best_time = 80.0;
  report.best_config = space.defaults();
  tuners::TuningStepRecord step;
  step.reward = 0.25;
  report.steps.push_back(step);

  const ExperienceEntry entry = entry_from_report(c, 42, report);
  EXPECT_EQ(entry.workload, "TS-D2");
  EXPECT_EQ(entry.seed, 42u);
  EXPECT_EQ(entry.best_cost, 80.0);
  EXPECT_EQ(entry.default_cost, 200.0);
  const auto action = space.encode(report.best_config);
  for (std::size_t i = 0; i < sparksim::kNumKnobs; ++i) {
    EXPECT_EQ(entry.best_action[i], action[i]) << "knob " << i;
  }
  const Embedding expected = embed_report(
      c.type, sparksim::workload_for(c).input_mb, report);
  EXPECT_EQ(entry.embedding, expected);
}

TEST(RetrievalIndexTest, EqualityComparesEntriesAndOrder) {
  ExperienceIndex a;
  ExperienceIndex b;
  EXPECT_EQ(a, b);
  a.add(entry_at(WorkloadType::kWordCount, 320.0, "WC-D1", 1));
  EXPECT_NE(a, b);
  b.add(entry_at(WorkloadType::kWordCount, 320.0, "WC-D1", 1));
  EXPECT_EQ(a, b);
  // Same entries, different insertion order: NOT equal — order is part of
  // the determinism contract (it breaks distance ties).
  ExperienceIndex c;
  ExperienceIndex d;
  c.add(entry_at(WorkloadType::kWordCount, 320.0, "WC-D1", 1));
  c.add(entry_at(WorkloadType::kTeraSort, 3200.0, "TS-D1", 2));
  d.add(entry_at(WorkloadType::kTeraSort, 3200.0, "TS-D1", 2));
  d.add(entry_at(WorkloadType::kWordCount, 320.0, "WC-D1", 1));
  EXPECT_NE(c, d);
}

}  // namespace
}  // namespace deepcat::retrieval
