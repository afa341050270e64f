// Scope-keyed tuning: scoped_model_key routing, the wire "scope" field,
// genesis-seed forking of scoped models, and the REP serialization of the
// scope and streaming keys.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

TuningRequest base_request() {
  TuningRequest r;
  r.id = "r0";
  r.workload = "TS-D1";
  r.cluster = "a";
  r.model = "default";
  return r;
}

TEST(ScopeKeyTest, GlobalScopeIsTheBareModelName) {
  TuningRequest r = base_request();
  EXPECT_EQ(scoped_model_key(r), "default");
}

TEST(ScopeKeyTest, WorkloadScopeKeysByWorkloadId) {
  TuningRequest r = base_request();
  r.scope = TuneScope::kWorkload;
  EXPECT_EQ(scoped_model_key(r), "default@wl:TS-D1");
  r.workload = "SA-P1";
  EXPECT_EQ(scoped_model_key(r), "default@wl:SA-P1");
}

TEST(ScopeKeyTest, HardwareScopeKeysByClusterTag) {
  TuningRequest r = base_request();
  r.scope = TuneScope::kHardware;
  EXPECT_EQ(scoped_model_key(r), "default@hw:a");
  r.cluster = "b";
  EXPECT_EQ(scoped_model_key(r), "default@hw:b");
}

TEST(ScopeKeyTest, BaseOfInvertsTheDerivation) {
  EXPECT_EQ(scope_base_of("default@wl:TS-D1"), "default");
  EXPECT_EQ(scope_base_of("m@hw:b"), "m");
  EXPECT_EQ(scope_base_of("default"), std::nullopt);
  // A marker at position 0 leaves no base name to fork from.
  EXPECT_EQ(scope_base_of("@wl:TS-D1"), std::nullopt);
}

TEST(ScopeKeyTest, ScopeNamesAreStable) {
  EXPECT_EQ(to_string(TuneScope::kGlobal), "global");
  EXPECT_EQ(to_string(TuneScope::kWorkload), "workload");
  EXPECT_EQ(to_string(TuneScope::kHardware), "hardware");
}

TEST(ScopeParseTest, MissingScopeIsGlobal) {
  const TuningRequest r =
      parse_request_json(R"({"workload":"TS-D1"})", 0);
  EXPECT_EQ(r.scope, TuneScope::kGlobal);
}

TEST(ScopeParseTest, NamedScopesParse) {
  EXPECT_EQ(parse_request_json(R"({"workload":"TS-D1","scope":"global"})", 0)
                .scope,
            TuneScope::kGlobal);
  EXPECT_EQ(
      parse_request_json(R"({"workload":"TS-D1","scope":"workload"})", 0)
          .scope,
      TuneScope::kWorkload);
  EXPECT_EQ(
      parse_request_json(R"({"workload":"TS-D1","scope":"hardware"})", 0)
          .scope,
      TuneScope::kHardware);
}

TEST(ScopeParseTest, UnknownScopeIsATypedParseError) {
  // Mirrors the "warm" precedent: never silently fall back to global.
  try {
    (void)parse_request_json(
        R"({"id":"bad","workload":"TS-D1","scope":"regional"})", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'bad'"), std::string::npos) << what;
    EXPECT_NE(what.find("regional"), std::string::npos) << what;
    EXPECT_NE(what.find("global, workload or hardware"), std::string::npos)
        << what;
  }
}

TEST(ScopeReportTest, GlobalReportOmitsTheScopeKey) {
  SessionReport r;
  r.id = "x";
  r.workload = "TS-D1";
  r.ok = true;
  std::ostringstream os;
  write_report_jsonl(os, r);
  EXPECT_EQ(os.str().find("\"scope\""), std::string::npos);
}

TEST(ScopeReportTest, ScopedReportCarriesTheScopeKey) {
  SessionReport r;
  r.id = "x";
  r.workload = "SA-P1";
  r.ok = true;
  r.scope = "workload";
  std::ostringstream os;
  write_report_jsonl(os, r);
  EXPECT_NE(os.str().find("\"scope\":\"workload\""), std::string::npos)
      << os.str();
}

TEST(ScopeReportTest, StreamingReportCarriesTheReAdaptationKeys) {
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

TEST(ScopeReportTest, BatchReportOmitsTheStreamingKeys) {
  SessionReport r;
  r.id = "x";
  r.workload = "TS-D1";
  r.ok = true;
  std::ostringstream os;
  write_report_jsonl(os, r);
  EXPECT_EQ(os.str().find("\"objective\""), std::string::npos);
  EXPECT_EQ(os.str().find("\"recovery_evals\""), std::string::npos);
}

StreamingOptions tiny_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  return o;
}

TEST(ScopeServiceTest, ScopedSessionForksFromTheGenesisCheckpoint) {
  StreamingService svc(tiny_options(1));
  svc.train_model("default",
                  sparksim::make_workload(sparksim::WorkloadType::kTeraSort,
                                          3.2),
                  40);
  const std::string genesis = svc.checkpoint_of("default");

  TuningRequest r = base_request();
  r.scope = TuneScope::kWorkload;
  r.max_steps = 2;
  svc.submit(r);
  auto completed = svc.wait_completed();
  ASSERT_TRUE(completed.has_value());
  EXPECT_TRUE(completed->session.ok) << completed->session.error;
  EXPECT_EQ(completed->session.scope, "workload");
  (void)svc.flush();

  // The scoped model materialized beside the base, which kept its bytes.
  EXPECT_TRUE(svc.has_model("default@wl:TS-D1"));
  EXPECT_TRUE(svc.has_model("default"));
  EXPECT_EQ(svc.checkpoint_of("default"), genesis);
  EXPECT_NE(svc.checkpoint_of("default@wl:TS-D1"), genesis)
      << "the merged scoped model should have evolved past its genesis";
}

TEST(ScopeServiceTest, ScopedModelWithoutABaseIsATypedError) {
  StreamingService svc(tiny_options(1));
  svc.train_model("default",
                  sparksim::make_workload(sparksim::WorkloadType::kTeraSort,
                                          3.2),
                  40);
  TuningRequest r = base_request();
  r.model = "ghost";
  r.scope = TuneScope::kWorkload;
  svc.submit(r);
  auto completed = svc.wait_completed();
  ASSERT_TRUE(completed.has_value());
  EXPECT_FALSE(completed->session.ok);
  EXPECT_NE(completed->session.error.find("ghost"), std::string::npos)
      << completed->session.error;
}

TEST(ScopeServiceTest, ScopesTuneIndependently) {
  StreamingService svc(tiny_options(1));
  svc.train_model("default",
                  sparksim::make_workload(sparksim::WorkloadType::kTeraSort,
                                          3.2),
                  40);
  TuningRequest wl = base_request();
  wl.id = "wl";
  wl.scope = TuneScope::kWorkload;
  wl.max_steps = 2;
  wl.seed = 5;
  TuningRequest hw = base_request();
  hw.id = "hw";
  hw.scope = TuneScope::kHardware;
  hw.max_steps = 2;
  hw.seed = 9;
  svc.submit(wl);
  svc.submit(hw);
  while (svc.wait_completed()) {
  }
  (void)svc.flush();
  EXPECT_TRUE(svc.has_model("default@wl:TS-D1"));
  EXPECT_TRUE(svc.has_model("default@hw:a"));
  // Distinct scoped models, merged from different sessions: bytes differ.
  EXPECT_NE(svc.checkpoint_of("default@wl:TS-D1"),
            svc.checkpoint_of("default@hw:a"));
}

}  // namespace
}  // namespace deepcat::service
