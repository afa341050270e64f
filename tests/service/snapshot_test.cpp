// Served sessions build their agent straight from the frozen master's
// (the actor and critics at once, the rest at the first train step)
// instead of decoding its checkpoint, and skip the fine-tune after their
// last evaluation, which nothing reads. These tests hold that session to
// the checkpoint clone it replaced, which keeps that fine-tune: same REP
// line, same transitions, for every HiBench case, both clusters, cold and
// warm, 1 and 5 steps, one streaming session, and the next epoch after a
// flush. They also count the train steps a served session takes, and pin
// the clone's layout check and the service's RDPER-only contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "rl/replay_rdper.hpp"
#include "rl/td3.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "service/streaming.hpp"
#include "sparksim/config_space.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"
#include "streamsim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

// run_session's per-session seed streams (service/session.cpp).
constexpr std::uint64_t kTunerStream = 0x7D3EC47ULL;
constexpr std::uint64_t kEnvStream = 0x0E4B51ULL;

core::DeepCatApiOptions small_api() {
  core::DeepCatApiOptions o;
  o.tuner.seed = 7;
  o.tuner.td3.hidden = {24, 24};
  o.tuner.warmup_steps = 16;
  o.env.seed = 1007;
  return o;
}

const rl::RdperReplay& pools_of(core::DeepCat& model) {
  return dynamic_cast<const rl::RdperReplay&>(*model.tuner().replay());
}

/// The clone sessions used to make: decode the master's checkpoint blob,
/// reseed from the request, and sample the master's pools through the same
/// SharedRdperReplay view.
SessionReport reference_session(const std::string& blob,
                                const core::DeepCatApiOptions& api,
                                const TuningRequest& request,
                                const rl::RdperReplay& pools,
                                std::shared_mutex& mutex) {
  SessionReport out;
  out.id = request.id;
  out.workload = request.workload;
  out.cluster = request.cluster;
  try {
    const sparksim::ClusterSpec cluster =
        sparksim::cluster_from_tag(request.cluster);
    core::DeepCat dc(cluster, api);
    checkpoint_from_string(blob, dc);
    dc.tuner().rng() =
        common::Rng(common::mix_seed(request.seed, kTunerStream));
    dc.set_next_env_seed(common::mix_seed(request.seed, kEnvStream));
    auto view = std::make_unique<SharedRdperReplay>(pools, mutex);
    SharedRdperReplay* shared = view.get();
    dc.tuner().set_replay(std::move(view));
    const tuners::TuneBudget budget{
        .max_steps = request.max_steps,
        .max_total_seconds = request.max_total_seconds,
        .seed_actions = request.warm_actions};
    const sparksim::HiBenchCase* batch_case = nullptr;
    try {
      batch_case = &sparksim::hibench_case(request.workload);
    } catch (const std::out_of_range&) {
    }
    out.report =
        batch_case != nullptr
            ? dc.tune_online(sparksim::workload_for(*batch_case), budget)
            : dc.tune_online_stream(
                  cluster, streamsim::stream_case(request.workload), budget);
    out.warm_seeds = static_cast<int>(
        std::min(request.warm_actions.size(), out.report.steps.size()));
    out.new_transitions = shared->session_transitions();
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

std::string rep_line(const SessionReport& report) {
  std::ostringstream os;
  write_report_jsonl(os, report);
  return os.str();
}

void expect_same_session(const SessionReport& got, const SessionReport& want) {
  EXPECT_EQ(rep_line(got), rep_line(want));
  ASSERT_EQ(got.new_transitions.size(), want.new_transitions.size())
      << got.id;
  for (std::size_t i = 0; i < got.new_transitions.size(); ++i) {
    const rl::Transition& a = got.new_transitions[i];
    const rl::Transition& b = want.new_transitions[i];
    EXPECT_EQ(a.state, b.state) << got.id << " transition " << i;
    EXPECT_EQ(a.action, b.action) << got.id << " transition " << i;
    EXPECT_EQ(a.reward, b.reward) << got.id << " transition " << i;
    EXPECT_EQ(a.next_state, b.next_state) << got.id << " transition " << i;
    EXPECT_EQ(a.done, b.done) << got.id << " transition " << i;
  }
}

TEST(StreamingSnapshotTest, ConcurrentSessionsMatchTheCheckpointClone) {
  const core::DeepCatApiOptions api = small_api();
  core::DeepCat master(sparksim::cluster_a(), api);
  (void)master.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 80);
  const rl::Td3Agent& frozen = master.tuner().agent();
  const std::string blob = checkpoint_to_string(master);
  const rl::RdperReplay& pools = pools_of(master);
  std::shared_mutex mutex;

  const std::vector<std::vector<double>> warm_actions = {
      std::vector<double>(sparksim::kNumKnobs, 0.3),
      std::vector<double>(sparksim::kNumKnobs, 0.7)};
  std::vector<TuningRequest> requests;
  for (const sparksim::HiBenchCase& c : sparksim::hibench_suite()) {
    for (const char* cluster : {"a", "b"}) {
      for (const int steps : {1, 5}) {
        for (const bool warm : {false, true}) {
          TuningRequest r;
          r.id = c.id + "-" + cluster + "-" + std::to_string(steps) +
                 (warm ? "-warm" : "-cold");
          r.workload = c.id;
          r.cluster = cluster;
          r.max_steps = steps;
          r.seed = requests.size() + 1;
          if (warm) r.warm_actions = warm_actions;
          requests.push_back(r);
        }
      }
    }
  }
  TuningRequest stream;
  stream.id = "stream";
  stream.workload = "SA-P1";
  stream.max_steps = 4;
  stream.seed = 99;
  requests.push_back(stream);

  // The sessions run concurrently over one frozen master and one set of
  // pools, as served sessions do; the 5-step ones copy the master's
  // training state late, at their first train step.
  common::ThreadPool pool(4);
  const std::vector<SessionReport> got =
      common::parallel_map(pool, requests.size(), [&](std::size_t i) {
        return run_session(frozen, api, requests[i], pools, mutex);
      });
  std::size_t ok = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_session(
        got[i], reference_session(blob, api, requests[i], pools, mutex));
    if (got[i].ok) ++ok;
  }
  EXPECT_GE(ok, requests.size() * 3 / 4) << "too few sessions ran";
  EXPECT_TRUE(got.back().ok) << got.back().error;
  EXPECT_TRUE(got.back().report.stream.has_value());
}

TEST(StreamingSnapshotTest, NextEpochClonesThePostFlushMaster) {
  obs::MetricsRegistry metrics;
  StreamingOptions options;
  options.service.threads = 2;
  options.service.api = small_api();
  options.service.obs.metrics = &metrics;
  StreamingService svc(options);
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 80);
  const std::string genesis = svc.checkpoint_of("default");

  // Epoch 1: three sessions clone the genesis master; the flush after
  // them merges their experience and takes the master's fine-tune steps.
  std::vector<TuningRequest> first;
  for (const char* id : {"TS-D1", "WC-D2", "PR-D1"}) {
    TuningRequest r;
    r.id = std::string("e1-") + id;
    r.workload = id;
    r.max_steps = 2;
    r.seed = first.size() + 11;
    first.push_back(r);
  }
  for (const StreamReport& r : serve_all(svc, first)) {
    ASSERT_TRUE(r.session.ok) << r.session.error;
    EXPECT_EQ(r.model_epoch, 1u);
  }
  (void)svc.flush();
  ASSERT_EQ(svc.model_epoch(), 2u);
  EXPECT_EQ(svc.metrics().fine_tune_steps, options.master_update_steps);
  const std::string post_flush = svc.checkpoint_of("default");
  ASSERT_NE(post_flush, genesis);

  // Epoch 2: the next session must clone the post-flush master, its late
  // copy (at its first train step) included.
  TuningRequest next;
  next.id = "e2";
  next.workload = "KM-D1";
  next.cluster = "b";
  next.max_steps = 3;
  next.seed = 21;
  const auto served = serve_all(svc, {next});
  ASSERT_EQ(served.size(), 1u);
  ASSERT_TRUE(served[0].session.ok) << served[0].session.error;
  EXPECT_EQ(served[0].model_epoch, 2u);
  std::shared_mutex mutex;
  expect_same_session(served[0].session,
                      reference_session(post_flush, options.service.api, next,
                                        pools_of(svc.master()), mutex));
}

TEST(StreamingSnapshotTest, ServedSessionSkipsOnlyTheFinalFineTune) {
  // A served session's clone is dropped with its REP, so it takes the 8
  // fine-tune steps after each evaluation but the last. With no master
  // steps, the server's rl.train_steps counts exactly the sessions' steps.
  obs::MetricsRegistry metrics;
  StreamingOptions options;
  options.service.threads = 2;
  options.service.api = small_api();
  options.service.obs.metrics = &metrics;
  options.master_update_steps = 0;
  StreamingService svc(options);
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 80);
  ASSERT_GE(svc.master().tuner().replay()->size(),
            options.service.api.tuner.td3.batch_size)
      << "the master must hold a batch, or no session trains at all";

  const auto added_steps = [&](const std::string& workload, int steps) {
    const std::uint64_t before = metrics.counter("rl.train_steps").value();
    TuningRequest r;
    r.id = workload + "-" + std::to_string(steps);
    r.workload = workload;
    r.max_steps = steps;
    r.seed = 5;
    const auto served = serve_all(svc, {r});
    EXPECT_TRUE(served.at(0).session.ok) << served.at(0).session.error;
    EXPECT_EQ(served.at(0).session.report.steps.size(),
              static_cast<std::size_t>(steps));
    return metrics.counter("rl.train_steps").value() - before;
  };
  EXPECT_EQ(added_steps("TS-D1", 1), 0u);
  EXPECT_EQ(added_steps("TS-D1", 5), 32u);
  EXPECT_EQ(added_steps("SA-P1", 11), 80u);
}

TEST(StreamingSnapshotTest, MismatchedMasterThrowsBeforeTheCloneIsBuilt) {
  core::DeepCat model(sparksim::cluster_a(), small_api());
  (void)model.train_offline(
      sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  const rl::Td3Agent& agent = model.tuner().agent();

  rl::Td3Config narrow = agent.config();
  narrow.hidden = {16, 16};
  try {
    const rl::Td3Agent built(narrow, agent);
    FAIL() << "a clone of another hidden size was built";
  } catch (const rl::AgentLayoutError& e) {
    EXPECT_NE(std::string(e.what()).find("[16,16]"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("[24,24]"), std::string::npos)
        << e.what();
  }
  rl::Td3Config wide = agent.config();
  ++wide.action_dim;
  EXPECT_THROW(const rl::Td3Agent built(wide, agent), rl::AgentLayoutError);

  // A session's tuner whose options disagree with the master is left
  // without an agent, not with a half-built one.
  core::DeepCatApiOptions narrow_api = small_api();
  narrow_api.tuner.td3.hidden = {16, 16};
  tuners::DeepCatTuner session(narrow_api.tuner);
  std::shared_mutex mutex;
  EXPECT_THROW(
      session.materialize(
          agent, std::make_unique<SharedRdperReplay>(pools_of(model), mutex)),
      rl::AgentLayoutError);
  EXPECT_FALSE(session.has_agent());
}

TEST(StreamingSnapshotTest, NonRdperMasterIsRejectedAtConstruction) {
  StreamingOptions options;
  options.service.api.tuner.use_rdper = false;
  try {
    StreamingService svc(options);
    FAIL() << "a service without RDPER pools was constructed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("use_rdper"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace deepcat::service
