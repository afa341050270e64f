// Trace propagation under the determinism contract: a conversation mixing
// traced and untraced requests, served across thread counts and arrival
// shuffles, must always produce (a) the identical sorted REP transcript —
// trace echo and server span ids included — and (b) the identical trace
// structure_signature(). The server span id is a pure function of (trace
// id, request id), so no pool width or arrival order may leak into what
// the client sees. The opt-in per-stage timing block rides only on traced
// REPs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/server.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/tracer.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"

namespace deepcat::service {
namespace {

StreamingOptions trace_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  return o;
}

/// Deterministic fake runner: every report field is a pure function of the
/// request, so transcript bytes depend only on the request set — exactly
/// the isolation this suite needs (RL determinism has its own suites).
SessionReport pure_report(const TuningRequest& r) {
  SessionReport report;
  report.id = r.id;
  report.workload = r.workload;
  report.cluster = r.cluster;
  report.ok = true;
  report.report.default_time = 100.0;
  report.report.best_time = 60.0 + static_cast<double>(r.seed % 10);
  tuners::TuningStepRecord step;
  step.exec_seconds = 5.0 + static_cast<double>(r.seed % 3);
  step.reward = 0.25 * static_cast<double>(r.seed % 4);
  step.recommendation_seconds = 0.001;
  report.report.steps.push_back(step);
  return report;
}

/// Ten requests over five models, six of them traced — two of those with
/// a client-side parent span.
std::vector<TuningRequest> trace_requests() {
  const char* models[] = {"alpha", "beta", "gamma", "delta", "default"};
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1"};
  std::vector<TuningRequest> reqs;
  for (std::size_t i = 0; i < 10; ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = cases[i % std::size(cases)];
    r.cluster = i % 3 == 2 ? "b" : "a";
    r.model = models[i % std::size(models)];
    r.seed = 100 + i;
    if (i % 3 != 2) {
      r.trace_id = "trace-" + r.id;
      if (i % 2 == 0) r.trace_span = 1000 + i;
    }
    reqs.push_back(r);
  }
  return reqs;
}

struct TraceRunResult {
  std::string transcript;  ///< sorted REP payload lines, '\n'-joined
  std::string signature;   ///< tracer parent>child edge histogram
};

TraceRunResult run_once(const std::vector<TuningRequest>& arrival_order,
                        std::size_t threads) {
  obs::LogicalClock clock;
  obs::CallbackSpanSink sink([](const obs::SpanRecord&) {});
  obs::Tracer tracer(clock, sink);
  StreamingOptions options = trace_options(threads);
  options.service.obs.tracer = &tracer;

  StreamingService svc(options);
  svc.set_session_runner_for_test(pure_report);

  auto reports = serve_all(svc, arrival_order);
  std::sort(reports.begin(), reports.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.session.id < b.session.id;
            });
  TraceRunResult result;
  for (const auto& report : reports) {
    result.transcript += stream_reply_payload(report);
    result.transcript += '\n';
  }
  result.signature = tracer.structure_signature();
  return result;
}

TEST(TracePropTest, TranscriptAndTraceStructureSurviveThreadsAndShuffles) {
  const auto requests = trace_requests();
  const TraceRunResult reference = run_once(requests, 1);

  // The reference transcript carries the trace echo for exactly the six
  // traced requests, each with the deterministic server span id.
  for (const auto& r : requests) {
    const std::string id_key = "\"id\":\"" + r.id + "\"";
    ASSERT_NE(reference.transcript.find(id_key), std::string::npos) << r.id;
    const std::string echo =
        "\"trace\":\"" + r.trace_id + "\",\"span\":" +
        std::to_string(trace_server_span(r.trace_id, r.id));
    const std::size_t line_start = reference.transcript.find(id_key);
    const std::size_t line_end = reference.transcript.find('\n', line_start);
    const std::string line =
        reference.transcript.substr(line_start, line_end - line_start);
    if (r.trace_id.empty()) {
      EXPECT_EQ(line.find("\"trace\":"), std::string::npos)
          << r.id << ": untraced REP must not grow trace keys";
    } else {
      EXPECT_NE(reference.transcript.find(echo), std::string::npos) << r.id;
    }
  }
  // Request spans opened for all ten requests, sessions nested beneath.
  EXPECT_NE(reference.signature.find(">request 10"), std::string::npos)
      << reference.signature;
  EXPECT_NE(reference.signature.find("request>session 10"), std::string::npos)
      << reference.signature;

  common::Rng shuffler(0x7ACEDB05ull);
  for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const TraceRunResult run = run_once(order, threads);
      EXPECT_EQ(run.transcript, reference.transcript)
          << context << ": REP transcript diverged";
      EXPECT_EQ(run.signature, reference.signature)
          << context << ": trace structure diverged";
    }
  }
}

TEST(TracePropTest, ServerSpanIsAPureFunctionOfTraceAndRequestId) {
  const std::uint64_t span = trace_server_span("trace-a", "req-1");
  EXPECT_EQ(trace_server_span("trace-a", "req-1"), span);
  EXPECT_NE(trace_server_span("trace-a", "req-2"), span);
  EXPECT_NE(trace_server_span("trace-b", "req-1"), span);
  EXPECT_NE(span, 0u);
}

TEST(TracePropTest, EveryRequestParentsUnderTheTransportSpan) {
  // The front end stamps its per-connection span into every request's
  // server_parent_span; each "request" span must nest under it, traced
  // or not.
  obs::LogicalClock clock;
  obs::CallbackSpanSink sink([](const obs::SpanRecord&) {});
  obs::Tracer tracer(clock, sink);
  StreamingOptions options = trace_options(1);
  options.service.obs.tracer = &tracer;
  StreamingService svc(options);
  svc.set_session_runner_for_test(pure_report);

  const std::uint64_t conn = tracer.begin_span("conn", 0);
  TuningRequest traced;
  traced.id = "t0";
  traced.workload = "WC-D1";
  traced.trace_id = "trace-t0";
  traced.server_parent_span = conn;

  TuningRequest untraced;
  untraced.id = "u0";
  untraced.workload = "WC-D1";
  untraced.server_parent_span = conn;

  (void)serve_all(svc, {traced, untraced});
  tracer.end_span(conn);

  const std::string signature = tracer.structure_signature();
  EXPECT_NE(signature.find("conn>request 2"), std::string::npos) << signature;
  EXPECT_NE(signature.find("request>session 2"), std::string::npos)
      << signature;

  // The front end does the stamping: a traced and an untraced REQ on one
  // connection both nest conn > request > session.
  obs::Tracer wire_tracer(clock, sink);
  StreamingOptions wire_options = trace_options(1);
  wire_options.service.obs.tracer = &wire_tracer;
  StreamingService wire_svc(wire_options);
  wire_svc.set_session_runner_for_test(pure_report);
  std::istringstream in(
      encode_frames({
          {FrameType::kRequest,
           "{\"id\":\"t1\",\"workload\":\"WC-D1\",\"trace\":\"trace-t1\"}"},
          {FrameType::kRequest, "{\"id\":\"u1\",\"workload\":\"WC-D1\"}"},
          {FrameType::kEnd, ""},
      }),
      std::ios::binary);
  std::ostringstream out(std::ios::binary);
  net::serve_stream(in, out, wire_svc, net::FrontEndOptions{});
  const std::string wire = wire_tracer.structure_signature();
  EXPECT_NE(wire.find("conn>request 2"), std::string::npos) << wire;
  EXPECT_NE(wire.find("request>session 2"), std::string::npos) << wire;
}

/// Serves one traced and one untraced REQ through the front end's
/// byte-stream bridge with a tracer attached and reply_timings set as
/// given; returns, per REP id, the keys of its "t_*_ns" timing block.
std::map<std::string, std::set<std::string>> timing_keys(bool reply_timings) {
  obs::LogicalClock clock;
  obs::CallbackSpanSink sink([](const obs::SpanRecord&) {});
  obs::Tracer tracer(clock, sink);
  StreamingOptions options = trace_options(1);
  options.service.obs.tracer = &tracer;
  options.reply_timings = reply_timings;
  StreamingService svc(options);
  svc.set_session_runner_for_test(pure_report);

  const std::string input = encode_frames({
      {FrameType::kRequest,
       "{\"id\":\"traced\",\"workload\":\"WC-D1\",\"seed\":1,"
       "\"trace\":\"trace-a\"}"},
      {FrameType::kRequest,
       "{\"id\":\"plain\",\"workload\":\"WC-D1\",\"seed\":2}"},
      {FrameType::kEnd, ""},
  });
  std::istringstream in(input, std::ios::binary);
  std::ostringstream out(std::ios::binary);
  net::serve_stream(in, out, svc, net::FrontEndOptions{});

  std::map<std::string, std::set<std::string>> keys;
  for (const Frame& f : decode_frames(out.str())) {
    if (f.type != FrameType::kReply) continue;
    const auto fields = parse_flat_json(f.payload);
    std::set<std::string>& timed = keys[fields.at("id")];
    for (const auto& [key, value] : fields) {
      if (key.rfind("t_", 0) == 0) timed.insert(key);
    }
  }
  return keys;
}

TEST(TracePropTest, ReplyTimingsStampOnlyTracedRepliesWhenEnabled) {
  const auto on = timing_keys(/*reply_timings=*/true);
  ASSERT_EQ(on.size(), 2u);
  EXPECT_EQ(on.at("traced"),
            (std::set<std::string>{"t_decode_ns", "t_queue_ns",
                                   "t_session_ns", "t_merge_ns",
                                   "t_write_ns"}));
  EXPECT_TRUE(on.at("plain").empty());

  const auto off = timing_keys(/*reply_timings=*/false);
  ASSERT_EQ(off.size(), 2u);
  EXPECT_TRUE(off.at("traced").empty());
  EXPECT_TRUE(off.at("plain").empty());
}

}  // namespace
}  // namespace deepcat::service
