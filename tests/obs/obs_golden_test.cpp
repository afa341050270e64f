// Golden trace/metrics transcripts for the obs layer: a fixed
// single-threaded scenario under the LogicalClock must export
// byte-identical metrics JSONL and Chrome trace JSON against the
// committed files in tests/obs/golden/.
//
// Regeneration (after an intentional format change):
//
//   DEEPCAT_UPDATE_GOLDEN=1 ./build/tests/obs_test
//       --gtest_filter='ObsGoldenTest.*'   (one command line)
//
// then commit the rewritten tests/obs/golden/* files. See tests/README.md.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace deepcat::obs {
namespace {

/// Sink for the goldens that read the registry or the signature.
CallbackSpanSink discard([](const SpanRecord&) {});

std::string golden_path(const std::string& name) {
  return std::string(DEEPCAT_OBS_GOLDEN_DIR) + "/" + name;
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("DEEPCAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out.write(actual.data(), static_cast<std::streamsize>(actual.size()));
    GTEST_LOG_(INFO) << "updated golden file " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with DEEPCAT_UPDATE_GOLDEN=1 (see "
                     "tests/README.md)";
  std::ostringstream buf(std::ios::binary);
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << name
      << " diverged from its golden file. If the change is intentional, "
         "regenerate with DEEPCAT_UPDATE_GOLDEN=1 and commit the result.";
}

/// The fixed scenario: a small request-shaped trace plus one of every
/// instrument kind, with values chosen to exercise fixed-point rounding
/// and histogram edges.
void run_scenario(MetricsRegistry& registry, Tracer& tracer) {
  Counter& requests = registry.counter("stream.requests_admitted");
  Gauge& loss = registry.gauge("rl.critic1_loss");
  Gauge& depth = registry.gauge("stream.queue_depth", /*deterministic=*/false);
  Histogram& rec =
      registry.histogram("stream.rec_seconds", {1.0, 5.0, 20.0, 100.0});

  for (int r = 0; r < 3; ++r) {
    const auto request = tracer.scope("request");
    const auto session = tracer.scope("session", request.id());
    const auto tune = tracer.scope("tune_online", session.id());
    requests.add(1);
    depth.set(static_cast<double>(r + 1));
    loss.set(0.125 * (r + 1));
    loss.set(-0.0625 * (r + 1));
    rec.observe(0.5 + 7.0 * r);
  }
  const auto flush = tracer.scope("flush");
  const auto merge = tracer.scope("merge", flush.id());
}

TEST(ObsGoldenTest, MetricsJsonlMatchesGolden) {
  LogicalClock clock;
  Tracer tracer(clock, discard);
  MetricsRegistry registry;
  run_scenario(registry, tracer);
  std::ostringstream os;
  registry.write_jsonl(os);
  check_golden("metrics.jsonl.golden", os.str());
}

TEST(ObsGoldenTest, DeterministicMetricsExportOmitsQueueDepth) {
  LogicalClock clock;
  Tracer tracer(clock, discard);
  MetricsRegistry registry;
  run_scenario(registry, tracer);
  std::ostringstream os;
  registry.write_jsonl(os, /*include_nondeterministic=*/false);
  EXPECT_EQ(os.str().find("queue_depth"), std::string::npos);
  check_golden("metrics_deterministic.jsonl.golden", os.str());
}

TEST(ObsGoldenTest, ChromeTraceMatchesGoldenAndValidates) {
  // Single-threaded + logical clock: tick assignment is fully ordered, so
  // even the trace BYTES are deterministic here (concurrent runs only
  // guarantee structure_signature equality). Events appear in completion
  // order, children before their parents.
  LogicalClock clock;
  std::ostringstream os;
  ChromeTraceFileSink sink(os, clock.kind());
  Tracer tracer(clock, sink);
  MetricsRegistry registry;
  run_scenario(registry, tracer);
  tracer.flush_exporter();
  const ChromeTraceCheck check = validate_chrome_trace(os.str());
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.complete_events, tracer.span_count());
  check_golden("trace.json.golden", os.str());
}

TEST(ObsGoldenTest, StructureSignatureMatchesGolden) {
  LogicalClock clock;
  Tracer tracer(clock, discard);
  MetricsRegistry registry;
  run_scenario(registry, tracer);
  check_golden("trace_structure.txt.golden", tracer.structure_signature());
}

}  // namespace
}  // namespace deepcat::obs
