// Streaming span export: ring drain semantics (back-pressure, no loss),
// bounded memory, health instruments, the structural signature across
// drains, and the ChromeTraceFileSink valid-at-every-drain framing.
#include "obs/exporter.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace deepcat::obs {
namespace {

TEST(ObsExporterTest, CallbackSinkReceivesCompletedSpansInOrder) {
  std::vector<SpanRecord> seen;
  CallbackSpanSink sink([&seen](const SpanRecord& s) { seen.push_back(s); });
  LogicalClock clock;
  Tracer tracer(clock, sink, {.ring_capacity = 2});

  const std::uint64_t root = tracer.begin_span("request");
  const std::uint64_t child = tracer.begin_span("session", root);
  tracer.end_span(child);
  tracer.end_span(root);  // second completion fills the ring -> drain
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].name, "session");
  EXPECT_EQ(seen[0].parent, root);
  EXPECT_EQ(seen[1].name, "request");
  EXPECT_EQ(seen[1].parent, 0u);
  EXPECT_LE(seen[0].t0, seen[0].t1);
  EXPECT_EQ(tracer.exported_spans(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST(ObsExporterTest, RingDrainBoundsMemoryWithZeroLoss) {
  std::size_t exported = 0;
  CallbackSpanSink sink([&exported](const SpanRecord&) { ++exported; });
  LogicalClock clock;
  constexpr std::size_t kRing = 4;
  Tracer tracer(clock, sink, {.ring_capacity = kRing});

  constexpr std::size_t kSpans = 1000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    const std::uint64_t id = tracer.begin_span("work");
    tracer.end_span(id);
    // Memory stays O(ring + open spans) mid-stream, not O(trace).
    ASSERT_LE(tracer.retained_spans(), kRing);
  }
  tracer.flush_exporter();
  EXPECT_EQ(exported, kSpans);
  EXPECT_EQ(tracer.exported_spans(), kSpans);
  EXPECT_EQ(tracer.span_count(), kSpans);
  EXPECT_EQ(tracer.dropped_spans(), 0u);  // drain, never drop
  EXPECT_GE(tracer.ring_highwater(), 1u);
  EXPECT_LE(tracer.ring_highwater(), kRing);
}

TEST(ObsExporterTest, StreamingCapLimitsOpenSpansOnly) {
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  Tracer tracer(clock, sink, {.max_spans = 2, .ring_capacity = 8});

  const std::uint64_t a = tracer.begin_span("a");
  const std::uint64_t b = tracer.begin_span("b");
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  EXPECT_EQ(tracer.begin_span("c"), 0u);  // 2 already open
  EXPECT_EQ(tracer.dropped_spans(), 1u);
  tracer.end_span(a);
  // Completed spans never count against the cap: room again.
  const std::uint64_t d = tracer.begin_span("d");
  EXPECT_NE(d, 0u);
  tracer.end_span(d);
  tracer.end_span(b);
  tracer.flush_exporter();
  EXPECT_EQ(tracer.exported_spans(), 3u);
}

TEST(ObsExporterTest, DestructorFlushesTheRing) {
  std::size_t exported = 0;
  CallbackSpanSink sink([&exported](const SpanRecord&) { ++exported; });
  LogicalClock clock;
  {
    Tracer tracer(clock, sink, {.ring_capacity = 64});
    for (int i = 0; i < 5; ++i) {
      tracer.end_span(tracer.begin_span("s"));  // never fills the ring
    }
    EXPECT_EQ(exported, 0u);
  }
  EXPECT_EQ(exported, 5u);
}

TEST(ObsExporterTest, StructureSignatureSurvivesRingDrains) {
  // The edge multiset is kept at begin_span, so spans that already left
  // through the sink still count in the signature.
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  Tracer tracer(clock, sink, {.ring_capacity = 2});
  const std::uint64_t root = tracer.begin_span("batch");
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t s = tracer.begin_span("session", root);
    const std::uint64_t g = tracer.begin_span("gp.fit", s);
    tracer.end_span(g);
    tracer.end_span(s);
  }
  tracer.end_span(root);
  EXPECT_GE(tracer.exported_spans(), 12u);
  EXPECT_EQ(tracer.structure_signature(),
            ">batch 1\nbatch>session 6\nsession>gp.fit 6\n");
}

TEST(ObsExporterTest, HealthInstrumentsLandInTheRegistry) {
  MetricsRegistry registry;
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  Tracer tracer(clock, sink,
                {.max_spans = 1, .ring_capacity = 4, .health = &registry});
  const std::uint64_t a = tracer.begin_span("a");
  ASSERT_NE(a, 0u);
  // A child while `a` is open trips the open-span cap.
  EXPECT_EQ(tracer.begin_span("b", a), 0u);
  tracer.end_span(a);
  tracer.flush_exporter();

  bool saw_emitted = false, saw_dropped = false, saw_highwater = false;
  for (const MetricSnapshot& snap : registry.snapshot(true)) {
    if (snap.name == "obs.spans.emitted") {
      saw_emitted = true;
      EXPECT_TRUE(snap.deterministic);
      EXPECT_EQ(snap.counter_value, 1u);
    } else if (snap.name == "obs.spans.dropped") {
      saw_dropped = true;
      EXPECT_FALSE(snap.deterministic);
      EXPECT_EQ(snap.counter_value, 1u);
    } else if (snap.name == "obs.spans.ring_highwater") {
      saw_highwater = true;
      EXPECT_FALSE(snap.deterministic);
    }
  }
  EXPECT_TRUE(saw_emitted);
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_highwater);
}

TEST(ObsExporterTest, ChromeTraceFileIsValidAtEveryFlushBoundary) {
  LogicalClock clock;
  std::ostringstream out;
  {
    ChromeTraceFileSink sink(out, "logical");
    // Valid immediately after construction (zero spans).
    {
      const ChromeTraceCheck empty = validate_chrome_trace(out.str());
      EXPECT_TRUE(empty.ok) << empty.error;
      EXPECT_EQ(empty.complete_events, 0u);
    }
    Tracer tracer(clock, sink, {.ring_capacity = 3});
    for (std::size_t i = 0; i < 10; ++i) {
      const std::uint64_t root = tracer.begin_span("request");
      tracer.end_span(tracer.begin_span("session", root));
      tracer.end_span(root);
      tracer.flush_exporter();
      // The tail-rewind framing keeps the output a complete trace after
      // every flush — a crash here would still leave parseable JSON.
      const ChromeTraceCheck check = validate_chrome_trace(out.str());
      ASSERT_TRUE(check.ok) << "after flush " << i << ": " << check.error;
      ASSERT_EQ(check.complete_events, 2 * (i + 1));
    }
    EXPECT_EQ(tracer.exported_spans(), 20u);
  }
  const std::string json = out.str();
  const ChromeTraceCheck final_check = validate_chrome_trace(json);
  EXPECT_TRUE(final_check.ok) << final_check.error;
  EXPECT_EQ(final_check.complete_events, 20u);
  EXPECT_NE(json.find("\"logical\""), std::string::npos);
}

TEST(ObsExporterTest, ChromeTraceIsValidAfterEveryRingDrain) {
  // A full ring drains without any flush call; each drain leaves the
  // output a complete trace holding every drained span.
  LogicalClock clock;
  std::ostringstream out;
  ChromeTraceFileSink sink(out, "logical");
  Tracer tracer(clock, sink, {.ring_capacity = 2});
  for (std::size_t i = 1; i <= 8; ++i) {
    tracer.end_span(tracer.begin_span("work"));
    const ChromeTraceCheck check = validate_chrome_trace(out.str());
    ASSERT_TRUE(check.ok) << "after span " << i << ": " << check.error;
    ASSERT_EQ(tracer.exported_spans(), i - i % 2);
    ASSERT_EQ(check.complete_events, tracer.exported_spans());
  }
  // Ids count up from 1 in begin order.
  EXPECT_NE(out.str().find("\"args\":{\"id\":8,\"parent\":0}"),
            std::string::npos);
}

TEST(ObsExporterTest, ChromeTraceSinkRefusesAnUnseekableStream) {
  // The tail rewind needs a seekable stream; a pipe is refused up front,
  // not at the first drain.
  struct Unseekable : std::streambuf {
    int overflow(int c) override { return c; }
  } buf;
  std::ostream out(&buf);
  EXPECT_THROW(ChromeTraceFileSink(out, "steady"), std::invalid_argument);
}

TEST(ObsExporterTest, RingCapacityMustBePositiveWithExporter) {
  CallbackSpanSink sink([](const SpanRecord&) {});
  LogicalClock clock;
  EXPECT_THROW(Tracer(clock, sink, {.ring_capacity = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::obs
