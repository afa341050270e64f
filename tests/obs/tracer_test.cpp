// Tracer unit tests: parent/child structure, logical-clock determinism,
// span-cap behavior, Chrome-trace structural validity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/tracer.hpp"

namespace deepcat::obs {
namespace {

/// Sink for tests that read the tracer, not what it exports.
CallbackSpanSink discard([](const SpanRecord&) {});

TEST(ObsTracerTest, LogicalClockTicksMonotonically) {
  LogicalClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  EXPECT_EQ(clock.now_ns(), 1000u);  // one tick = 1 us in the trace
  EXPECT_EQ(clock.now_ns(), 2000u);
  EXPECT_EQ(clock.ticks(), 3u);
  EXPECT_STREQ(clock.kind(), "logical");
}

TEST(ObsTracerTest, SpansNestByExplicitParentIds) {
  LogicalClock clock;
  Tracer tracer(clock, discard);
  const std::uint64_t root = tracer.begin_span("request");
  ASSERT_NE(root, 0u);
  const std::uint64_t child = tracer.begin_span("session", root);
  ASSERT_NE(child, 0u);
  tracer.end_span(child);
  tracer.end_span(root);
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.structure_signature(),
            ">request 1\nrequest>session 1\n");
}

TEST(ObsTracerTest, ScopeEndsSpansOnExit) {
  LogicalClock clock;
  Tracer tracer(clock, discard);
  {
    const auto outer = tracer.scope("outer");
    const auto inner = tracer.scope("inner", outer.id());
    EXPECT_NE(inner.id(), 0u);
  }
  EXPECT_EQ(tracer.span_count(), 2u);
}

TEST(ObsTracerTest, StructureSignatureIsInterleavingInvariant) {
  // The same logical work performed across different thread counts must
  // produce the identical signature — the property the streaming
  // determinism stress asserts end to end.
  auto run = [](std::size_t threads) {
    LogicalClock clock;
    Tracer tracer(clock, discard);
    const std::uint64_t root = tracer.begin_span("batch");
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&tracer, root, threads, t] {
        for (std::size_t i = t; i < 12; i += threads) {
          const std::uint64_t s = tracer.begin_span("session", root);
          const std::uint64_t g = tracer.begin_span("gp.fit", s);
          tracer.end_span(g);
          tracer.end_span(s);
        }
      });
    }
    for (auto& w : workers) w.join();
    tracer.end_span(root);
    return tracer.structure_signature();
  };
  const std::string one = run(1);
  EXPECT_EQ(run(4), one);
  EXPECT_EQ(run(12), one);
  EXPECT_EQ(one, ">batch 1\nbatch>session 12\nsession>gp.fit 12\n");
}

TEST(ObsTracerTest, SpanCapDropsAndCounts) {
  LogicalClock clock;
  Tracer tracer(clock, discard, {.max_spans = 2});
  EXPECT_NE(tracer.begin_span("a"), 0u);
  EXPECT_NE(tracer.begin_span("b"), 0u);
  EXPECT_EQ(tracer.begin_span("c"), 0u);
  EXPECT_EQ(tracer.begin_span("d"), 0u);
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 2u);
}

TEST(ObsTracerTest, EndSpanZeroIsANoOpAndDoubleEndKeepsFirst) {
  LogicalClock clock;
  Tracer tracer(clock, discard);
  tracer.end_span(0);  // must not crash
  const std::uint64_t id = tracer.begin_span("s");
  tracer.end_span(id);
  tracer.end_span(id);  // second end ignored
  EXPECT_EQ(tracer.span_count(), 1u);
}

TEST(ObsTracerTest, ChromeTraceIsStructurallyValid) {
  LogicalClock clock;
  std::ostringstream os;
  ChromeTraceFileSink sink(os, clock.kind());
  Tracer tracer(clock, sink);
  const std::uint64_t root = tracer.begin_span("request");
  const std::uint64_t child = tracer.begin_span("session", root);
  tracer.end_span(child);
  tracer.end_span(root);
  (void)tracer.begin_span("unended");  // never completes, never exports
  tracer.flush_exporter();

  const std::string json = os.str();
  const ChromeTraceCheck check = validate_chrome_trace(json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.complete_events, 2u);
  EXPECT_EQ(json.find("\"unended\""), std::string::npos);
  EXPECT_EQ(tracer.retained_spans(), 1u);  // held open, not lost
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"logical\""), std::string::npos);
}

TEST(ObsTracerTest, ValidatorRejectsBrokenTraces) {
  EXPECT_FALSE(validate_chrome_trace("").ok);
  EXPECT_FALSE(validate_chrome_trace("{}").ok);
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").ok);
  // An X event without dur is malformed.
  EXPECT_FALSE(
      validate_chrome_trace(
          "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,"
          "\"pid\":1,\"tid\":1}]}")
          .ok);
}

TEST(ObsTracerTest, SteadyClockIsMonotonicFromZero) {
  SteadyClock clock;
  const std::uint64_t a = clock.now_ns();
  const std::uint64_t b = clock.now_ns();
  EXPECT_GE(b, a);
  EXPECT_STREQ(clock.kind(), "steady");
}

}  // namespace
}  // namespace deepcat::obs
