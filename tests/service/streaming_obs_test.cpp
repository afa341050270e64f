// Observability under the streaming determinism contract: with a
// LogicalClock, the deterministic metrics export and the trace structure
// are pure functions of the request set — byte-identical (metrics) and
// structurally identical (trace) across thread counts and arrival
// shuffles — and turning tracing on must not perturb the bit-exact
// master checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "net/server.hpp"
#include "service/jsonl.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions obs_stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;
  return o;
}

std::vector<TuningRequest> obs_stress_requests() {
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

struct ObsRunResult {
  std::string checkpoint;
  std::string metrics_jsonl;    ///< deterministic export only
  std::string trace_signature;  ///< structure, not bytes
  std::string tele_payload;     ///< deterministic TELE payload bytes
};

constexpr std::size_t kStressRing = 64;

ObsRunResult run_with_obs(const std::string& master_blob,
                          const std::vector<TuningRequest>& arrival_order,
                          std::size_t threads) {
  obs::LogicalClock clock;
  // Streaming span export at the default (never-drop) settings: spans
  // leave through the sink as they complete, memory stays O(ring + open).
  std::size_t sunk_spans = 0;
  obs::CallbackSpanSink sink(
      [&sunk_spans](const obs::SpanRecord&) { ++sunk_spans; });
  obs::MetricsRegistry registry;
  obs::TracerOptions tracer_options;
  tracer_options.ring_capacity = kStressRing;
  tracer_options.health = &registry;
  obs::Tracer tracer(clock, sink, tracer_options);
  StreamingOptions options = obs_stress_options(threads);
  options.service.obs = {&registry, &tracer};

  StreamingService svc(options);
  std::istringstream blob(master_blob, std::ios::binary);
  svc.load_model("default", blob);
  (void)serve_all(svc, arrival_order);
  (void)svc.flush();

  ObsRunResult result;
  result.checkpoint = svc.checkpoint_of("default");
  std::ostringstream metrics;
  registry.write_jsonl(metrics, /*include_nondeterministic=*/false);
  result.metrics_jsonl = std::move(metrics).str();
  result.trace_signature = tracer.structure_signature();
  tracer.flush_exporter();
  std::ostringstream tele;
  write_telemetry_payload(tele, svc.metrics(),
                          obs::BuildInfo{"stress", "pinned", false, 1},
                          &registry, /*include_nondeterministic=*/false);
  result.tele_payload = std::move(tele).str();

  // The streaming-export contract, asserted on every run: back-pressure
  // never drops a completed span, the ring never outgrows its capacity,
  // and nothing accumulates in the tracer once the stream drains.
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_GE(tracer.ring_highwater(), 1u);
  EXPECT_LE(tracer.ring_highwater(), kStressRing);
  EXPECT_LE(tracer.retained_spans(), kStressRing);
  EXPECT_EQ(tracer.exported_spans(), sunk_spans);
  EXPECT_GT(sunk_spans, 0u);
  return result;
}

std::string train_blob() {
  StreamingService trainer(obs_stress_options(1));
  trainer.train_model(
      "default", sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 40);
  return trainer.checkpoint_of("default");
}

TEST(StreamingObsDeterminismTest,
     MetricsSnapshotAndTraceStructureSurviveThreadsAndShuffles) {
  const std::string master_blob = train_blob();
  const auto requests = obs_stress_requests();

  const ObsRunResult reference = run_with_obs(master_blob, requests, 1);
  // The instrumented layers all reported: service admission, session
  // outcomes, per-step TD3 losses, Twin-Q probes.
  EXPECT_NE(reference.metrics_jsonl.find("stream.requests_admitted"),
            std::string::npos);
  EXPECT_NE(reference.metrics_jsonl.find("rl.critic1_loss"),
            std::string::npos);
  EXPECT_NE(reference.metrics_jsonl.find("twinq.optimizer_runs"),
            std::string::npos);
  // The scheduling-dependent gauge is excluded from the deterministic set.
  EXPECT_EQ(reference.metrics_jsonl.find("stream.queue_depth"),
            std::string::npos);
  EXPECT_NE(reference.trace_signature.find(">request"), std::string::npos);
  EXPECT_NE(reference.trace_signature.find("request>session"),
            std::string::npos);
  EXPECT_NE(reference.trace_signature.find("session>tune_online"),
            std::string::npos);
  // The deterministic TELE payload leads with the versioned header line
  // and carries the registry's deterministic instruments (including the
  // tracer's own health counters).
  EXPECT_EQ(reference.tele_payload.rfind("{\"tele\":1,\"deterministic\":true,",
                                         0),
            0u);
  EXPECT_NE(reference.tele_payload.find("\"version\":\"stress\""),
            std::string::npos);
  EXPECT_NE(reference.tele_payload.find("obs.spans.emitted"),
            std::string::npos);
  EXPECT_NE(reference.tele_payload.find("stream.rec_seconds"),
            std::string::npos);
  EXPECT_EQ(reference.tele_payload.find("obs.spans.ring_highwater"),
            std::string::npos);

  common::Rng shuffler(0xA11C0DE5ull);
  for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads : {std::size_t{4}, std::size_t{16}}) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const ObsRunResult run = run_with_obs(master_blob, order, threads);
      EXPECT_EQ(run.metrics_jsonl, reference.metrics_jsonl)
          << context << ": deterministic metrics snapshot diverged";
      EXPECT_EQ(run.trace_signature, reference.trace_signature)
          << context << ": trace structure diverged";
      EXPECT_EQ(run.checkpoint, reference.checkpoint)
          << context << ": master checkpoint diverged";
      EXPECT_EQ(run.tele_payload, reference.tele_payload)
          << context << ": deterministic TELE payload diverged";
    }
  }
}

TEST(StreamingObsDeterminismTest, TracingDoesNotPerturbTheMasterCheckpoint) {
  // The whole point of the sink design: observability is read-only.
  // A run with full tracing + metrics must produce the same bit-exact
  // master state as a run with the inert sink.
  const std::string master_blob = train_blob();
  const auto requests = obs_stress_requests();

  std::string plain_checkpoint;
  {
    StreamingService svc(obs_stress_options(4));
    std::istringstream blob(master_blob, std::ios::binary);
    svc.load_model("default", blob);
    (void)serve_all(svc, requests);
    (void)svc.flush();
    plain_checkpoint = svc.checkpoint_of("default");
  }
  const ObsRunResult traced = run_with_obs(master_blob, requests, 4);
  EXPECT_EQ(traced.checkpoint, plain_checkpoint);
}

TEST(StreamingObsDeterminismTest, SpanHealthCountersLandInNondeterministicTele) {
  // The tracer's back-pressure health (dropped spans, ring high-water)
  // is scheduling-dependent, so it ships only in the nondeterministic
  // TELE view — present there by name, absent from the byte-stable one.
  obs::LogicalClock clock;
  obs::MetricsRegistry registry;
  obs::CallbackSpanSink sink([](const obs::SpanRecord&) {});
  obs::TracerOptions tracer_options;
  tracer_options.health = &registry;
  obs::Tracer tracer(clock, sink, tracer_options);
  StreamingOptions options = obs_stress_options(1);
  options.service.obs = {&registry, &tracer};
  StreamingService svc(options);
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    return report;
  });
  TuningRequest request;
  request.id = "span-health";
  request.workload = "WC-D1";
  (void)serve_all(svc, {request});

  const obs::BuildInfo info{"stress", "pinned", false, 1};
  std::ostringstream full;
  write_telemetry_payload(full, svc.metrics(), info, &registry,
                          /*include_nondeterministic=*/true);
  const std::string all = std::move(full).str();
  EXPECT_NE(all.find("\"name\":\"obs.spans.dropped\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"obs.spans.ring_highwater\""),
            std::string::npos);
  EXPECT_NE(all.find("\"name\":\"obs.spans.emitted\""), std::string::npos);

  std::ostringstream stable;
  write_telemetry_payload(stable, svc.metrics(), info, &registry,
                          /*include_nondeterministic=*/false);
  const std::string deterministic = std::move(stable).str();
  EXPECT_EQ(deterministic.find("obs.spans.dropped"), std::string::npos);
  EXPECT_EQ(deterministic.find("obs.spans.ring_highwater"), std::string::npos);
  EXPECT_NE(deterministic.find("obs.spans.emitted"), std::string::npos);
}

TEST(StreamingObsDeterminismTest, SharedForksAreBoundedAndNondeterministic) {
  // rl.forks_shared counts the train-step forks whose second branch ran on
  // the borrowed pool worker, for the steps taken with the pool (startup
  // training and each flush's master steps; sessions never borrow). A
  // value step forks three times; a policy step adds critic 1's forward
  // and input-gradient passes, one fork per actor layer for its backward
  // (three at hidden 128x128), its Adam step and its target's soft update.
  // How many forks the worker takes is the scheduler's call, so the
  // counter is present in the full export only.
  obs::MetricsRegistry registry;
  StreamingOptions options = obs_stress_options(4);
  options.master_update_steps = 4;
  options.service.obs.metrics = &registry;
  StreamingService svc(options);
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 80);
  const std::uint64_t startup_steps =
      registry.counter("rl.train_steps").value();
  ASSERT_GT(startup_steps, 0u) << "startup training must take train steps";
  const std::vector<TuningRequest> requests = obs_stress_requests();
  (void)serve_all(svc, {requests[0], requests[1]});
  (void)svc.flush();
  const std::size_t master_steps = svc.metrics().fine_tune_steps;
  EXPECT_EQ(master_steps, 4u);

  const auto find = [](const std::vector<obs::MetricSnapshot>& all) {
    const auto it = std::find_if(all.begin(), all.end(), [](const auto& m) {
      return m.name == "rl.forks_shared";
    });
    return it == all.end() ? std::optional<obs::MetricSnapshot>{} : *it;
  };
  const std::optional<obs::MetricSnapshot> forks =
      find(registry.snapshot(true));
  ASSERT_TRUE(forks.has_value());
  EXPECT_EQ(forks->kind, obs::MetricKind::kCounter);
  EXPECT_FALSE(forks->deterministic);
  constexpr std::uint64_t kValueStepForks = 3;
  constexpr std::uint64_t kPolicyStepForks = kValueStepForks + 2 + 3 + 1 + 1;
  // policy_delay 2: at most every other step of a run is a policy step.
  const auto bound = [&](std::uint64_t steps) {
    const std::uint64_t policy = (steps + 1) / 2;
    return policy * kPolicyStepForks + (steps - policy) * kValueStepForks;
  };
  EXPECT_LE(forks->counter_value, bound(startup_steps) + bound(master_steps));
  EXPECT_FALSE(find(registry.snapshot(false)).has_value());
}

/// A service on one thread whose fake sessions report ok, each after one
/// evaluation recommended in 2 s.
std::unique_ptr<StreamingService> fake_service(const obs::BuildInfo& build) {
  StreamingOptions options;
  options.service.threads = 1;
  // Golden-style pin: TELE build fields must be exactly what the options
  // injected, not whatever host this test runs on.
  options.build_info = build;
  auto svc = std::make_unique<StreamingService>(options);
  svc->set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    tuners::TuningStepRecord step;
    step.recommendation_seconds = 2;
    report.report.steps.push_back(step);
    rl::Transition t;
    t.state = {1};
    t.action = {1};
    t.reward = 1;
    t.next_state = {1};
    report.new_transitions.push_back(t);
    return report;
  });
  return svc;
}

std::vector<Frame> serve_bytes(StreamingService& svc,
                               const std::string& input,
                               const net::FrontEndOptions& options) {
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  net::serve_stream(in, out, svc, options);
  return decode_frames(std::move(out).str());
}

// stream.rec_seconds has 1-2-5 edges from 1 ms, so the modeled costs of
// served sessions (a few ms to tens of ms) spread over its buckets instead
// of all landing below its first edge.
TEST(StreamingObsTest, RecSecondsBucketsFitServedSessionCosts) {
  obs::MetricsRegistry registry;
  StreamingOptions options;
  options.service.threads = 1;
  options.service.obs.metrics = &registry;
  StreamingService svc(options);
  svc.set_session_runner_for_test([](const TuningRequest& r) {
    SessionReport report;
    report.id = r.id;
    report.workload = r.workload;
    report.ok = true;
    tuners::TuningStepRecord step;
    step.recommendation_seconds = std::stod(r.id);  // the id is the cost
    report.report.steps.push_back(step);
    return report;
  });
  std::vector<TuningRequest> requests;
  for (const char* cost : {"0.005", "0.03", "0.15"}) {
    TuningRequest request;
    request.id = cost;
    request.workload = "TS-D1";
    requests.push_back(request);
  }
  (void)serve_all(svc, requests);
  std::optional<obs::MetricSnapshot> hist;
  for (auto& m : registry.snapshot()) {
    if (m.name == "stream.rec_seconds") hist = std::move(m);
  }
  ASSERT_TRUE(hist.has_value());
  EXPECT_EQ(hist->count, 3u);
  // Each cost in its own (lo, hi] bucket: counts[i] holds edges[i - 1] <
  // v <= edges[i].
  const auto count_in = [&](double lo, double hi) -> std::uint64_t {
    for (std::size_t i = 1; i < hist->edges.size(); ++i) {
      if (hist->edges[i - 1] == lo && hist->edges[i] == hi) {
        return hist->bucket_counts[i];
      }
    }
    ADD_FAILURE() << "no bucket (" << lo << ", " << hi << "]";
    return 0;
  };
  EXPECT_EQ(count_in(0.002, 0.005), 1u);
  EXPECT_EQ(count_in(0.02, 0.05), 1u);
  EXPECT_EQ(count_in(0.1, 0.2), 1u);
}

TEST(StreamingTeleTest, TailTeleCarriesBuildInfoAndStaysParseable) {
  const auto svc =
      fake_service(obs::BuildInfo{"1.2.3-test", "pinned", false, 9});
  const auto frames =
      serve_bytes(*svc,
                  encode_frames({
                      {FrameType::kRequest,
                       "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
                      {FrameType::kEnd, ""},
                  }),
                  net::FrontEndOptions{});
  ASSERT_GE(frames.size(), 2u);
  ASSERT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry);
  const std::string& payload = frames[frames.size() - 2].payload;

  // The flat-JSON reader contract: the aggregate line parses and keeps
  // every aggregate field, with the build labels after them.
  const auto fields = parse_flat_json(payload);
  EXPECT_EQ(fields.at("tele"), "1");
  EXPECT_EQ(fields.at("aggregate"), "true");
  EXPECT_EQ(fields.at("sessions"), "1");
  EXPECT_EQ(fields.at("failed"), "0");
  // The tail TELE is connection-scoped: merges are the service's.
  EXPECT_EQ(fields.at("merges"), "0");
  EXPECT_EQ(fields.at("merged_transitions"), "0");
  EXPECT_EQ(fields.at("fine_tune_steps"), "0");
  EXPECT_EQ(svc->metrics().merges, 1u)
      << "the single connection's END runs the flush barrier";
  // Build-info labels come from the pinned override.
  EXPECT_EQ(fields.at("version"), "1.2.3-test");
  EXPECT_EQ(fields.at("backend"), "pinned");
  EXPECT_EQ(fields.at("simd_compiled"), "false");
  EXPECT_EQ(fields.at("threads"), "9");
}

TEST(StreamingTeleTest, TeleFramesAtEveryProtocolPointAndOnPolls) {
  const auto svc =
      fake_service(obs::BuildInfo{"tele-test", "pinned", false, 1});
  const std::string input = encode_frames({
      {FrameType::kStat, ""},
      {FrameType::kRequest, "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
      {FrameType::kFlush, ""},
      {FrameType::kRequest, "{\"id\":\"b\",\"workload\":\"PR-D1\"}"},
      {FrameType::kStat, "{\"probe\":1}"},
      {FrameType::kStat, "not json at all"},
      {FrameType::kEnd, ""},
  });
  net::FrontEndOptions options;
  options.tele_every = 1;  // one TELE after every REP too
  const auto frames = serve_bytes(*svc, input, options);

  obs::MetricsRegistry& counts = svc->metrics_registry();
  const auto count = [&](const char* name) {
    return counts.counter(name).value();
  };
  EXPECT_EQ(count("net.clean_ends"), 1u);
  EXPECT_EQ(count("net.requests"), 2u);
  EXPECT_EQ(count("net.stat_polls"), 2u);  // the malformed one does not count
  EXPECT_EQ(count("net.parse_errors"), 1u);
  // TELE points: 2 polls + 1 FLSH + 2 per-REP + 1 before END.
  EXPECT_EQ(count("net.tele_frames"), 6u);

  std::size_t tele = 0, err = 0;
  for (const auto& f : frames) {
    if (f.type == FrameType::kTelemetry) {
      ++tele;
      // Every TELE payload leads with the versioned header line and the
      // pinned build labels.
      EXPECT_EQ(f.payload.rfind("{\"tele\":1,", 0), 0u);
      EXPECT_NE(f.payload.find("\"version\":\"tele-test\""),
                std::string::npos);
    } else if (f.type == FrameType::kError) {
      ++err;
      EXPECT_NE(f.payload.find("STAT"), std::string::npos);
    }
  }
  EXPECT_EQ(tele, count("net.tele_frames"));
  EXPECT_EQ(err, 1u);
  // The tail is the connection's TELE, then END.
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[frames.size() - 1].type, FrameType::kEnd);
  EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry);

  // The probe STAT answers in the slot just before the malformed STAT's
  // ERR. It reads the same exact rec-cost quantiles as the tail TELE:
  // every session cost 2 s, which a bucket estimate would put at 1.5.
  const auto err_at = std::find_if(frames.begin(), frames.end(),
                                   [](const Frame& f) {
                                     return f.type == FrameType::kError;
                                   });
  ASSERT_NE(err_at, frames.begin());
  ASSERT_NE(err_at, frames.end());
  const auto stat = parse_flat_json(std::prev(err_at)->payload);
  const auto tail = parse_flat_json(frames[frames.size() - 2].payload);
  EXPECT_EQ(tail.at("p50_rec_seconds"), "2");
  EXPECT_EQ(stat.at("p50_rec_seconds"), tail.at("p50_rec_seconds"));
  EXPECT_EQ(stat.at("p95_rec_seconds"), tail.at("p95_rec_seconds"));
}

TEST(StreamingTeleTest, DeterministicTeleDropsSchedulingDependentFloats) {
  const auto svc =
      fake_service(obs::BuildInfo{"tele-test", "pinned", false, 1});
  net::FrontEndOptions options;
  options.tele_include_nondeterministic = false;
  const auto frames =
      serve_bytes(*svc,
                  encode_frames({
                      {FrameType::kRequest,
                       "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
                      {FrameType::kEnd, ""},
                  }),
                  options);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[frames.size() - 1].type, FrameType::kEnd);
  EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry);
  // The deterministic variant says so and drops the scheduling-dependent
  // float aggregates.
  const std::string& payload = frames[frames.size() - 2].payload;
  EXPECT_EQ(payload.rfind("{\"tele\":1,\"deterministic\":true,", 0), 0u);
  EXPECT_EQ(payload.find("mean_speedup"), std::string::npos);
  EXPECT_NE(payload.find("\"sessions\":1"), std::string::npos);
}

}  // namespace
}  // namespace deepcat::service
