// The warm-start determinism contract, stress-tested end to end: warm
// sessions seeded from one shared experience index must be bit-identical
// across thread pools {1, 4, 16} x shuffled arrival orders — and the
// index itself (standalone container and checkpoint
// "RIDX" section) must round-trip bit-identically into fresh objects, so
// a restarted server warm-starts exactly like the one that wrote it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/deepcat_api.hpp"
#include "retrieval/index.hpp"
#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/hardware.hpp"
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
  return o;
}

/// One master blob + one experience index, built once per suite run: the
/// index entries come from real cold sessions, so warm seeds replay real
/// best-action vectors.
struct Fixture {
  std::string master_blob;
  std::shared_ptr<const retrieval::ExperienceIndex> index;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture out;
    StreamingService svc(stress_options(1));
    svc.train_model(
        "default", sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
    out.master_blob = svc.checkpoint_of("default");

    std::vector<TuningRequest> requests;
    std::uint64_t seed = 500;
    for (const char* id : {"WC-D1", "TS-D1", "PR-D1", "KM-D1"}) {
      TuningRequest r;
      r.id = std::string("seed-") + id;
      r.workload = id;
      r.max_steps = 3;
      r.seed = seed++;
      requests.push_back(r);
    }
    auto index = std::make_shared<retrieval::ExperienceIndex>();
    const auto reports = serve_all(svc, requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_TRUE(reports[i].session.ok) << requests[i].workload;
      index->add(retrieval::entry_from_report(
          sparksim::hibench_case(requests[i].workload), requests[i].seed,
          reports[i].session.report));
    }
    out.index = std::move(index);
    return out;
  }();
  return f;
}

std::vector<TuningRequest> warm_requests() {
  std::vector<TuningRequest> reqs;
  const char* cases[] = {"WC-D2", "TS-D2", "PR-D2", "KM-D2",
                         "WC-D1", "TS-D3"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    TuningRequest r;
    r.id = "warm-" + std::to_string(i);
    r.workload = cases[i];
    r.max_steps = 3;
    r.seed = 900 + i;
    r.warm_k = 2;
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<SessionReport> run_matrix_cell(
    const std::vector<TuningRequest>& arrival_order, std::size_t threads) {
  StreamingService svc(stress_options(threads));
  std::istringstream blob(fixture().master_blob, std::ios::binary);
  svc.load_model("default", blob);
  svc.set_warm_index(fixture().index);
  std::vector<SessionReport> reports;
  for (auto& r : serve_all(svc, arrival_order)) {
    reports.push_back(std::move(r.session));
  }
  std::sort(reports.begin(), reports.end(),
            [](const SessionReport& a, const SessionReport& b) {
              return a.id < b.id;
            });
  return reports;
}

void expect_reports_identical(const SessionReport& a, const SessionReport& b,
                              const std::string& context) {
  EXPECT_EQ(a.id, b.id) << context;
  EXPECT_EQ(a.ok, b.ok) << context;
  EXPECT_EQ(a.warm_seeds, b.warm_seeds) << context;
  EXPECT_EQ(a.report.default_time, b.report.default_time) << context;
  EXPECT_EQ(a.report.best_time, b.report.best_time) << context;
  ASSERT_EQ(a.report.steps.size(), b.report.steps.size()) << context;
  for (std::size_t s = 0; s < a.report.steps.size(); ++s) {
    EXPECT_EQ(a.report.steps[s].exec_seconds, b.report.steps[s].exec_seconds)
        << context << " step " << s;
    EXPECT_EQ(a.report.steps[s].reward, b.report.steps[s].reward)
        << context << " step " << s;
    EXPECT_EQ(a.report.steps[s].recommendation_seconds,
              b.report.steps[s].recommendation_seconds)
        << context << " step " << s;
  }
}

TEST(WarmDeterminismTest, WarmSessionsAreBitIdenticalAcrossTheServingMatrix) {
  const auto requests = warm_requests();
  const auto reference = run_matrix_cell(requests, 1);
  ASSERT_EQ(reference.size(), requests.size());
  for (const auto& r : reference) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_EQ(r.warm_seeds, 2) << r.id;  // k=2 resolved on a 4-entry index
  }

  common::Rng shuffler(0x5EEDC0DEull);
  const std::size_t kThreadCounts[] = {1, 4, 16};
  for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads : kThreadCounts) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const auto run = run_matrix_cell(order, threads);
      ASSERT_EQ(run.size(), reference.size()) << context;
      for (std::size_t i = 0; i < run.size(); ++i) {
        expect_reports_identical(run[i], reference[i], context);
      }
    }
  }
}

TEST(WarmDeterminismTest, WarmSeedsActuallyChangeTheTranscript) {
  // The warm path must not be a no-op: the first seeded step replays a
  // retrieved action at retrieval cost, so its recommendation time differs
  // from the actor-forward cost of the cold twin. (The zero-seed branch
  // being bit-identical to pre-warm builds is pinned by the streaming
  // determinism suite and the committed goldens.)
  auto warm = warm_requests();
  auto cold = warm;
  for (auto& r : cold) r.warm_k = 0;
  const auto warm_reports = run_matrix_cell(warm, 1);
  const auto cold_reports = run_matrix_cell(cold, 1);
  ASSERT_EQ(warm_reports.size(), cold_reports.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < warm_reports.size(); ++i) {
    EXPECT_EQ(warm_reports[i].warm_seeds, 2) << warm_reports[i].id;
    EXPECT_EQ(cold_reports[i].warm_seeds, 0) << cold_reports[i].id;
    ASSERT_FALSE(warm_reports[i].report.steps.empty());
    EXPECT_EQ(warm_reports[i].report.steps[0].recommendation_seconds,
              tuners::rec_cost::kRetrievalSeed)
        << warm_reports[i].id;
    if (!cold_reports[i].report.steps.empty() &&
        warm_reports[i].report.steps[0].exec_seconds !=
            cold_reports[i].report.steps[0].exec_seconds) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference)
      << "warm seeding never changed a first evaluation";
}

TEST(WarmDeterminismTest, IndexRoundTripsBitIdenticallyIntoFreshObjects) {
  // Standalone container: save -> load into a fresh index -> save again
  // must produce identical bytes (the fresh-process restart story; the CI
  // smoke job exercises the actual process boundary via the CLI).
  const auto& index = *fixture().index;
  std::ostringstream first(std::ios::binary);
  save_index(first, index);
  std::istringstream reload(first.str(), std::ios::binary);
  const retrieval::ExperienceIndex fresh = load_index(reload);
  EXPECT_EQ(fresh, index);
  std::ostringstream second(std::ios::binary);
  save_index(second, fresh);
  EXPECT_EQ(second.str(), first.str());

  // And a warm run served from the reloaded index matches one served from
  // the original — retrieval is a pure function of the index contents.
  auto shared_fresh =
      std::make_shared<const retrieval::ExperienceIndex>(fresh);
  const auto requests = warm_requests();
  const auto from_original = run_matrix_cell(requests, 1);
  StreamingService svc(stress_options(1));
  std::istringstream blob(fixture().master_blob, std::ios::binary);
  svc.load_model("default", blob);
  svc.set_warm_index(shared_fresh);
  std::vector<SessionReport> from_fresh;
  for (auto& r : serve_all(svc, requests)) {
    from_fresh.push_back(std::move(r.session));
  }
  std::sort(from_fresh.begin(), from_fresh.end(),
            [](const SessionReport& a, const SessionReport& b) {
              return a.id < b.id;
            });
  ASSERT_EQ(from_fresh.size(), from_original.size());
  for (std::size_t i = 0; i < from_fresh.size(); ++i) {
    expect_reports_identical(from_fresh[i], from_original[i],
                             "reloaded index");
  }
}

TEST(WarmDeterminismTest, DirectSubmitWithoutIndexFailsTyped) {
  // The direct-API contract: a warm request against a service with no
  // index completes as a failed report (the wire transports precheck and
  // emit a typed ERR instead — pinned by the golden suite).
  StreamingService svc(stress_options(1));
  std::istringstream blob(fixture().master_blob, std::ios::binary);
  svc.load_model("default", blob);
  TuningRequest r;
  r.id = "warm-orphan";
  r.workload = "TS-D1";
  r.max_steps = 1;
  r.seed = 77;
  r.warm_k = 2;
  const auto reports = serve_all(svc, {r});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].session.ok);
  EXPECT_NE(reports[0].session.error.find("no experience index"),
            std::string::npos)
      << reports[0].session.error;
  EXPECT_FALSE(svc.has_warm_index());

  // warm_error() is the shared precheck both transports use.
  EXPECT_TRUE(svc.warm_error(r).has_value());
  r.warm_k = 0;
  EXPECT_FALSE(svc.warm_error(r).has_value());
}

}  // namespace
}  // namespace deepcat::service
