// StreamingService behavior: streaming results match the batch path,
// model epochs advance only on merging flushes, unknown models fail as
// reports (never exceptions), multi-model routing lazily loads from the
// registry and republishes on eviction, the front end's byte-stream
// bridge speaks the framed wire protocol end to end, and a REP carries
// the streaming re-adaptation keys only for streaming workloads.
#include "service/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions small_streaming_options(std::size_t threads,
                                         std::size_t master_steps = 0) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = master_steps;
  return o;
}

std::vector<TuningRequest> mixed_requests(std::size_t count) {
  std::vector<TuningRequest> reqs;
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"};
  for (std::size_t i = 0; i < count; ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = cases[i % std::size(cases)];
    r.cluster = i % 3 == 2 ? "b" : "a";
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

TEST(StreamingTest, MatchesBatchServiceWithoutMasterUpdates) {
  // With master_update_steps = 0 a shuffled streaming run and the batch
  // path (serve_all in request order, then one flush) give identical
  // per-request reports and an identical post-merge master checkpoint, on
  // different pool sizes.
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);
  StreamingService batch(small_streaming_options(2));
  batch.train_model("default", workload, 40);
  std::stringstream master_blob(batch.checkpoint_of("default"));

  StreamingService streaming(small_streaming_options(4));
  streaming.load_model("default", master_blob);

  const auto requests = mixed_requests(8);
  const auto batch_reports = serve_all(batch, requests);
  (void)batch.flush();
  auto shuffled = requests;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(5));
  auto stream_reports = serve_all(streaming, shuffled);
  std::size_t generated = 0;
  for (const auto& r : batch_reports) {
    generated += r.session.new_transitions.size();
  }
  EXPECT_EQ(streaming.flush(), generated);

  ASSERT_EQ(batch_reports.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch_reports[i].session.id, requests[i].id)
        << "batch reports must be in request order";
  }
  ASSERT_EQ(stream_reports.size(), batch_reports.size());
  std::sort(stream_reports.begin(), stream_reports.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.session.id < b.session.id;
            });
  auto sorted_batch = batch_reports;
  std::sort(sorted_batch.begin(), sorted_batch.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.session.id < b.session.id;
            });
  for (std::size_t i = 0; i < sorted_batch.size(); ++i) {
    const auto& s = stream_reports[i].session;
    const auto& b = sorted_batch[i].session;
    EXPECT_EQ(s.id, b.id);
    EXPECT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.report.best_time, b.report.best_time);
    EXPECT_EQ(s.report.default_time, b.report.default_time);
    ASSERT_EQ(s.new_transitions.size(), b.new_transitions.size());
    EXPECT_EQ(stream_reports[i].model_epoch, 1u)
        << "all sessions served from the initial epoch snapshot";
    EXPECT_EQ(sorted_batch[i].model_epoch, 1u);
  }
  EXPECT_EQ(streaming.checkpoint_of("default"), batch.checkpoint_of("default"))
      << "the canonical-order merge must not depend on arrival order";
}

TEST(StreamingTest, EpochAdvancesOnlyWhenAFlushMerges) {
  StreamingService svc(small_streaming_options(2, /*master_steps=*/2));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  EXPECT_EQ(svc.model_epoch("default"), 1u);

  EXPECT_EQ(svc.flush(), 0u);
  EXPECT_EQ(svc.model_epoch("default"), 1u) << "empty flush is a no-op";

  const auto requests = mixed_requests(3);
  const auto reports = serve_all(svc, requests);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) EXPECT_TRUE(r.session.ok) << r.session.error;

  const auto* pools =
      dynamic_cast<const rl::RdperReplay*>(svc.master("default").tuner().replay());
  ASSERT_NE(pools, nullptr);
  const std::size_t before = pools->size();
  const std::size_t merged = svc.flush();
  EXPECT_GT(merged, 0u);
  EXPECT_EQ(pools->size(), before + merged);
  EXPECT_EQ(svc.model_epoch("default"), 2u);

  // The next request is served against the post-merge epoch.
  const auto next = serve_all(svc, {requests[0]});
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].model_epoch, 2u);
}

TEST(StreamingTest, UnknownModelFailsAsReportNotException) {
  StreamingService svc(small_streaming_options(1));
  TuningRequest r;
  r.id = "lost";
  r.workload = "TS-D1";
  r.model = "no-such-model";
  const auto reports = serve_all(svc, {r});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].session.ok);
  EXPECT_NE(reports[0].session.error.find("no-such-model"), std::string::npos);
  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_failed, 1u);
  EXPECT_EQ(m.sessions_served, 0u);
}

TEST(StreamingTest, RoutesAcrossModelsAndLazilyLoadsFromRegistry) {
  const std::string dir = ::testing::TempDir() + "deepcat_streaming_routing";
  std::filesystem::remove_all(dir);
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);

  {
    // Publish two distinct models out of band.
    StreamingOptions o = small_streaming_options(1);
    StreamingService trainer(o);
    ModelRegistry registry(dir);
    trainer.train_model("alpha", workload, 40);
    (void)registry.publish("alpha", trainer.master("alpha"));
    trainer.train_model("beta", workload, 60);
    (void)registry.publish("beta", trainer.master("beta"));
  }

  StreamingOptions o = small_streaming_options(2);
  o.registry_dir = dir;
  StreamingService svc(o);
  EXPECT_FALSE(svc.has_model("alpha"));

  auto requests = mixed_requests(4);
  requests[0].model = "alpha";
  requests[1].model = "beta";
  requests[2].model = "alpha";
  requests[3].model = "gamma";  // never published
  const auto reports = serve_all(svc, requests);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[0].session.ok) << reports[0].session.error;
  EXPECT_TRUE(reports[1].session.ok) << reports[1].session.error;
  EXPECT_TRUE(reports[2].session.ok) << reports[2].session.error;
  EXPECT_FALSE(reports[3].session.ok);
  EXPECT_NE(reports[3].session.error.find("gamma"), std::string::npos);
  EXPECT_EQ(reports[0].session.model, "alpha");
  EXPECT_EQ(reports[1].session.model, "beta");
  EXPECT_TRUE(svc.has_model("alpha"));
  EXPECT_TRUE(svc.has_model("beta"));
}

TEST(StreamingTest, EvictionMergesAndRepublishesDirtyModels) {
  const std::string dir = ::testing::TempDir() + "deepcat_streaming_evict";
  std::filesystem::remove_all(dir);
  const auto workload = sparksim::make_workload(WorkloadType::kTeraSort, 3.2);
  {
    StreamingService trainer(small_streaming_options(1));
    ModelRegistry registry(dir);
    trainer.train_model("alpha", workload, 40);
    (void)registry.publish("alpha", trainer.master("alpha"));
    trainer.train_model("beta", workload, 60);
    (void)registry.publish("beta", trainer.master("beta"));
  }

  StreamingOptions o = small_streaming_options(2, /*master_steps=*/1);
  o.registry_dir = dir;
  o.max_loaded_models = 1;
  StreamingService svc(o);

  auto requests = mixed_requests(2);
  requests[0].model = "alpha";
  requests[1].model = "beta";  // forces alpha's eviction at cap 1
  // Alpha's session must complete before beta's admission may evict it.
  const auto first = serve_all(svc, {requests[0]});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].session.ok) << first[0].session.error;
  const auto second = serve_all(svc, {requests[1]});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].session.ok) << second[0].session.error;

  EXPECT_FALSE(svc.has_model("alpha")) << "alpha should have been evicted";
  EXPECT_TRUE(svc.has_model("beta"));
  // Eviction is a flush point: alpha's merged experience was republished
  // as a new registry version, so its learning survives.
  ModelRegistry registry(dir);
  ASSERT_TRUE(registry.latest_version("alpha").has_value());
  EXPECT_EQ(*registry.latest_version("alpha"), 2u);
  EXPECT_EQ(*registry.latest_version("beta"), 1u) << "beta is not dirty yet";
}

TEST(StreamingTest, MetricsAggregateWithStreamingQuantiles) {
  StreamingService svc(small_streaming_options(3));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  const auto requests = mixed_requests(6);
  const auto reports = serve_all(svc, requests);

  std::size_t evals = 0;
  for (const auto& r : reports) evals += r.session.report.steps.size();
  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_served, requests.size());
  EXPECT_EQ(m.sessions_failed, 0u);
  EXPECT_EQ(m.evaluations_paid, evals);
  EXPECT_GT(m.p50_recommendation_seconds, 0.0);
  EXPECT_GE(m.p95_recommendation_seconds, m.p50_recommendation_seconds);
  EXPECT_GT(m.mean_speedup, 0.0);
}

TEST(StreamingTest, CallbacksDeliverEveryReportAndIdleSettles) {
  StreamingService svc(small_streaming_options(2));
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    return report;
  });
  EXPECT_TRUE(svc.idle());

  constexpr std::size_t kRequests = 24;
  std::vector<TuningRequest> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    TuningRequest request;
    request.id = "req-" + std::to_string(i);
    request.workload = "TS-D1";
    request.model = "model-" + std::to_string(i % 6);
    requests.push_back(request);
  }
  const auto reports = serve_all(svc, requests);
  ASSERT_EQ(reports.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(reports[i].session.ok);
    EXPECT_EQ(reports[i].session.id, requests[i].id)
        << "every request answered in its own slot";
  }

  // The callback fires after the in-flight decrement, so once the last
  // one has run the service reads as idle.
  EXPECT_TRUE(svc.idle());
  EXPECT_EQ(svc.in_flight(), 0u);
}

TEST(StreamingTest, CollectorKeepsRequestOrderWhenAnAdmissionFailsInline) {
  // An unknown model fails at admission: its callback runs on the
  // submitting thread before submit returns, while the real requests
  // around it run on the pool. serve_all still puts each report in its
  // request's slot.
  StreamingService svc(small_streaming_options(2));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  auto requests = mixed_requests(3);
  requests[1].model = "no-such-model";

  std::thread::id answered_on;
  svc.submit(requests[1], [&answered_on](StreamReport) {
    answered_on = std::this_thread::get_id();
  });
  EXPECT_EQ(answered_on, std::this_thread::get_id());

  const auto reports = serve_all(svc, requests);
  ASSERT_EQ(reports.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(reports[i].session.id, requests[i].id);
  }
  EXPECT_TRUE(reports[0].session.ok) << reports[0].session.error;
  EXPECT_FALSE(reports[1].session.ok);
  EXPECT_NE(reports[1].session.error.find("no-such-model"), std::string::npos);
  EXPECT_TRUE(reports[2].session.ok) << reports[2].session.error;
}

TEST(StreamingTest, UnknownClusterTagFailsAtConstruction) {
  // The master's home cluster is parsed by the one tag parser: anything
  // but a or b is refused before a pool starts or a model trains.
  StreamingOptions options = small_streaming_options(1);
  options.service.cluster = "c";
  try {
    StreamingService svc(options);
    FAIL() << "cluster 'c' built a service";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown cluster 'c' (use a or b)");
  }
  options.service.cluster = "b";
  EXPECT_NO_THROW(StreamingService svc(options));
}

TEST(StreamingTest, ServeFrameStreamEndToEnd) {
  // A framed stream served as the front end's single connection: REPs in
  // request order, the FLSH advancing the epoch between them, and the
  // END tail's flush merging the last request too.
  StreamingService svc(small_streaming_options(2, /*master_steps=*/1));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);

  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":2,\"seed\":3}"},
      {FrameType::kRequest,
       "{\"id\":\"b\",\"workload\":\"PR-D1\",\"steps\":2,\"seed\":4}"},
      {FrameType::kFlush, ""},
      {FrameType::kRequest,
       "{\"id\":\"c\",\"workload\":\"WC-D1\",\"steps\":2,\"seed\":5}"},
      {FrameType::kEnd, ""},
  });
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  net::serve_stream(in, out, svc, net::FrontEndOptions{});
  obs::MetricsRegistry& counts = svc.metrics_registry();
  EXPECT_EQ(counts.counter("net.clean_ends").value(), 1u);
  EXPECT_EQ(counts.counter("net.requests").value(), 3u);
  EXPECT_EQ(counts.counter("net.failed_sessions").value(), 0u);
  EXPECT_EQ(counts.counter("net.protocol_errors").value(), 0u);

  const auto frames = decode_frames(out.str());
  std::vector<FrameType> types;
  std::vector<std::uint64_t> epochs;
  for (const auto& f : frames) {
    types.push_back(f.type);
    if (f.type == FrameType::kReply) {
      const auto pos = f.payload.find("\"model_epoch\":");
      ASSERT_NE(pos, std::string::npos);
      epochs.push_back(std::strtoull(f.payload.c_str() + pos + 14, nullptr, 10));
    }
  }
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kReply,
                       FrameType::kTelemetry, FrameType::kReply,
                       FrameType::kTelemetry, FrameType::kEnd}));
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 1, 2}))
      << "pre-flush requests served by the initial epoch, c by the merged one";
  EXPECT_NE(frames[frames.size() - 2].payload.find("\"sessions\":3"),
            std::string::npos);
  // The end-of-stream flush merged request c's experience too.
  EXPECT_EQ(svc.model_epoch("default"), 3u);
}

TEST(StreamingTest, ScopeKeyFailsTypedInItsSlotAndTheStreamContinues) {
  // A request's "model" is its one routing key: "scope" is an unknown key
  // like any other, answered by a typed ERR in the request's own reply
  // slot, and the REQ after it still serves.
  StreamingService svc(small_streaming_options(1));
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.cluster = r.cluster;
    report.ok = true;
    return report;
  });
  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"scoped\",\"workload\":\"SA-P1\",\"steps\":2,\"seed\":41,"
       "\"scope\":\"workload\"}"},
      {FrameType::kRequest,
       "{\"id\":\"plain\",\"workload\":\"SA-P1\",\"steps\":2,\"seed\":42}"},
      {FrameType::kEnd, ""},
  });
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  net::serve_stream(in, out, svc, net::FrontEndOptions{});

  const auto frames = decode_frames(out.str());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find(
                "request 0: request 'scoped' has an unknown key \\\"scope\\\""),
            std::string::npos)
      << frames[0].payload;
  EXPECT_EQ(frames[1].type, FrameType::kReply);
  EXPECT_EQ(frames[1].payload.rfind("{\"id\":\"plain\"", 0), 0u)
      << frames[1].payload;
  EXPECT_EQ(frames[2].type, FrameType::kTelemetry);
  EXPECT_EQ(frames[3].type, FrameType::kEnd);
  obs::MetricsRegistry& counts = svc.metrics_registry();
  EXPECT_EQ(counts.counter("net.requests").value(), 2u);
  EXPECT_EQ(counts.counter("net.parse_errors").value(), 1u);
  EXPECT_EQ(counts.counter("net.clean_ends").value(), 1u);
  EXPECT_EQ(counts.counter("stream.requests_admitted").value(), 1u);
}

TEST(StreamingReportTest, StreamingReportCarriesTheReAdaptationKeys) {
  SessionReport r;
  r.id = "x";
  r.workload = "SA-P1";
  r.ok = true;
  r.report.objective = sparksim::ObjectiveKind::kBatchLatencyP95;
  sparksim::StreamSummary ss;
  ss.phases = 3;
  ss.windows = 12;
  ss.final_p95_s = 2.5;
  sparksim::ShiftRecord recovered;
  recovered.recovered = true;
  recovered.recovery_evals = 2;
  ss.shifts.push_back(recovered);
  ss.shifts.push_back({});  // unrecovered shift serializes as "-"
  r.report.stream = ss;
  std::ostringstream os;
  write_report_jsonl(os, r);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"objective\":\"batch_latency_p95\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"phases\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"windows\":12"), std::string::npos) << line;
  EXPECT_NE(line.find("\"shifts\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"recovered\":false"), std::string::npos) << line;
  EXPECT_NE(line.find("\"recovery_evals\":\"2,-\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"final_p95_s\":2.5"), std::string::npos) << line;
}

TEST(StreamingReportTest, BatchReportOmitsTheStreamingKeys) {
  SessionReport r;
  r.id = "x";
  r.workload = "TS-D1";
  r.ok = true;
  std::ostringstream os;
  write_report_jsonl(os, r);
  EXPECT_EQ(os.str().find("\"objective\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"recovery_evals\""), std::string::npos);
}

}  // namespace
}  // namespace deepcat::service
