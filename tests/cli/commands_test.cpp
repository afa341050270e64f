#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "obs/build_info.hpp"
#include "obs/tracer.hpp"
#include "service/jsonl.hpp"
#include "service/wire.hpp"

namespace deepcat::cli {
namespace {

TEST(CliObsCommandsTest, InfoReportsVersionBackendAndThreads) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"info"}, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find(std::string("deepcat ") + obs::kDeepCatVersion),
            std::string::npos);
  EXPECT_NE(out.find(common::simd::backend_name()), std::string::npos);
  EXPECT_NE(out.find("thread-pool size:"), std::string::npos);
  EXPECT_NE(out.find("isa ladder:"), std::string::npos);
  EXPECT_NE(out.find(common::simd::isa_ladder()), std::string::npos);
}

TEST(CliObsCommandsTest, InfoJsonIsAFlatParseableObject) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"info", "--json", "1", "--threads", "3"}, os), 0);
  std::string line = os.str();
  ASSERT_FALSE(line.empty());
  if (line.back() == '\n') line.pop_back();
  const auto fields = service::parse_flat_json(line);
  EXPECT_EQ(fields.at("version"), obs::kDeepCatVersion);
  EXPECT_EQ(fields.at("backend"), common::simd::backend_name());
  EXPECT_EQ(fields.at("threads"), "3");
  EXPECT_TRUE(fields.at("simd_compiled") == "true" ||
              fields.at("simd_compiled") == "false");
  // Ladder and detected tier ride along as flat fields (the ladder is a
  // comma-joined string, not an array).
  EXPECT_EQ(fields.at("isa_ladder"), common::simd::isa_ladder());
  EXPECT_EQ(fields.at("detected"),
            common::simd::backend_label(common::simd::detected_backend()));
}

TEST(CliCommandsTest, UnknownCommandPrintsUsageAndFails) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"frobnicate"}, os), 2);
  EXPECT_NE(os.str().find("usage:"), std::string::npos);
}

TEST(CliCommandsTest, NoCommandPrintsUsageAndSucceeds) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({}, os), 0);
  EXPECT_NE(os.str().find("usage:"), std::string::npos);
}

TEST(CliCommandsTest, KnobsListsAllParameters) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"knobs"}, os), 0);
  EXPECT_NE(os.str().find("spark.executor.memory"), std::string::npos);
  EXPECT_NE(os.str().find("dfs.blocksize"), std::string::npos);
  EXPECT_NE(os.str().find("yarn.nodemanager.resource.memory-mb"),
            std::string::npos);
}

TEST(CliCommandsTest, SuiteListsTwelveCases) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"suite"}, os), 0);
  EXPECT_NE(os.str().find("WC-D1"), std::string::npos);
  EXPECT_NE(os.str().find("KM-D3"), std::string::npos);
}

TEST(CliCommandsTest, SimulateRunsWithOverrides) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"simulate", "--workload", "TS", "--size", "3.2",
                     "--set", "spark.executor.instances=8", "--set",
                     "spark.executor.cores=4"},
                    os),
            0);
  EXPECT_NE(os.str().find("TeraSort(3.2GB)"), std::string::npos);
  EXPECT_NE(os.str().find("stages"), std::string::npos);
}

TEST(CliCommandsTest, SimulateRejectsUnknownKnob) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"simulate", "--set", "spark.bogus=1"}, os), 1);
  EXPECT_NE(os.str().find("error:"), std::string::npos);
}

TEST(CliCommandsTest, SimulateRejectsUnknownWorkload) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"simulate", "--workload", "XX"}, os), 1);
}

TEST(CliCommandsTest, BadNumericFlagsFailNamingTheFlag) {
  const std::vector<std::vector<std::string>> cases = {
      {"info", "--threads", "-1"},     {"info", "--threads", "nan"},
      {"info", "--threads", "3abc"},   {"info", "--threads", "2.5"},
      {"simulate", "--runs", "2.5"},   {"simulate", "--size", "inf"},
      {"tune", "--steps", "-3"}};
  for (const auto& argv : cases) {
    std::ostringstream os;
    EXPECT_EQ(run_cli(argv, os), 1) << argv[1] << ' ' << argv[2];
    EXPECT_NE(os.str().find("error: flag " + argv[1]), std::string::npos)
        << os.str();
  }
}

TEST(CliCommandsTest, SimulateMultipleRuns) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"simulate", "--workload", "WC", "--runs", "3"}, os), 0);
  // One summary line per run, stage table suppressed for multi-run.
  std::size_t count = 0, pos = 0;
  const std::string text = os.str();
  while ((pos = text.find("WordCount", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 3u);
}

TEST(CliCommandsTest, TuneEndToEndWithExport) {
  std::ostringstream os;
  // Tiny budgets keep this a smoke test.
  EXPECT_EQ(run_cli({"tune", "--workload", "TS", "--size", "3.2",
                     "--offline-iters", "80", "--steps", "2", "--export",
                     "spark"},
                    os),
            0);
  const std::string text = os.str();
  EXPECT_NE(text.find("online tuning report"), std::string::npos);
  EXPECT_NE(text.find("# generated by DeepCAT"), std::string::npos);
  EXPECT_NE(text.find("spark.executor.memory"), std::string::npos);
}

TEST(CliCommandsTest, TuneRejectsBadExportFormat) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"tune", "--workload", "TS", "--offline-iters", "80",
                     "--steps", "1", "--export", "json"},
                    os),
            1);
}

TEST(CliCommandsTest, ServeStreamEndToEndOverWireFiles) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_stream";
  std::filesystem::remove_all(dir);
  const std::string in_path = dir + "/in.wire";
  const std::string out_path = dir + "/out.wire";
  std::filesystem::create_directories(dir);

  {
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << service::encode_frames({
        {service::FrameType::kRequest,
         "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":3}"},
        {service::FrameType::kFlush, ""},
        {service::FrameType::kRequest,
         "{\"id\":\"b\",\"workload\":\"PR-D1\",\"steps\":1,\"seed\":4}"},
        {service::FrameType::kEnd, ""},
    });
  }

  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--in",
                     in_path, "--out", out_path},
                    os),
            0)
      << os.str();
  EXPECT_NE(os.str().find("published model 'default' v1"), std::string::npos);
  EXPECT_NE(os.str().find("stream done: 2 requests"), std::string::npos);

  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  const auto frames = service::decode_frames(bytes.str());
  std::size_t reps = 0;
  for (const auto& f : frames) {
    if (f.type == service::FrameType::kReply) {
      ++reps;
      EXPECT_NE(f.payload.find("\"ok\":true"), std::string::npos)
          << f.payload;
      EXPECT_NE(f.payload.find("\"model_epoch\":"), std::string::npos);
    }
  }
  EXPECT_EQ(reps, 2u);
  EXPECT_EQ(frames[frames.size() - 2].type, service::FrameType::kTelemetry);
  EXPECT_EQ(frames.back().type, service::FrameType::kEnd);
}

TEST(CliObsCommandsTest, ServeStreamWritesChromeTraceAndMetricsFiles) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_stream_obs";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string in_path = dir + "/in.wire";
  const std::string out_path = dir + "/out.wire";
  const std::string trace_path = dir + "/trace.json";
  const std::string metrics_path = dir + "/metrics.jsonl";
  {
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << service::encode_frames({
        {service::FrameType::kRequest,
         "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":3}"},
        {service::FrameType::kEnd, ""},
    });
  }

  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--in",
                     in_path, "--out", out_path, "--trace-out", trace_path,
                     "--metrics-out", metrics_path, "--clock", "logical"},
                    os),
            0)
      << os.str();
  EXPECT_NE(os.str().find("wrote trace to"), std::string::npos);
  EXPECT_NE(os.str().find("wrote metrics to"), std::string::npos);

  // The trace file must be a structurally valid Chrome trace with the
  // request/session span tree in it.
  std::ifstream trace(trace_path, std::ios::binary);
  ASSERT_TRUE(trace);
  std::ostringstream trace_buf;
  trace_buf << trace.rdbuf();
  const auto check = obs::validate_chrome_trace(trace_buf.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.complete_events, 0u);
  EXPECT_NE(trace_buf.str().find("\"request\""), std::string::npos);
  EXPECT_NE(trace_buf.str().find("\"session\""), std::string::npos);
  EXPECT_NE(trace_buf.str().find("\"logical\""), std::string::npos);

  // Every metrics line parses as a flat JSON object, and the service
  // instruments reported.
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics);
  std::string line;
  std::size_t lines = 0;
  bool saw_admitted = false;
  while (std::getline(metrics, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    // Histogram lines carry arrays, which the flat parser rejects; the
    // flat lines must all parse.
    if (line.find('[') != std::string::npos) continue;
    const auto fields = service::parse_flat_json(line);
    EXPECT_FALSE(fields.at("name").empty());
    if (fields.at("name") == "stream.requests_admitted") {
      saw_admitted = true;
      EXPECT_EQ(fields.at("value"), "1");
    }
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_admitted);

  // The wire transcript itself is unchanged by observability being on.
  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  const auto frames = service::decode_frames(bytes.str());
  EXPECT_EQ(frames[frames.size() - 2].type, service::FrameType::kTelemetry);
  EXPECT_EQ(frames.back().type, service::FrameType::kEnd);
}

TEST(CliObsCommandsTest, ServeStreamIncrementalTraceAndTeleFrames) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_trace_stream";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string in_path = dir + "/in.wire";
  const std::string out_path = dir + "/out.wire";
  const std::string trace_path = dir + "/trace.json";
  {
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << service::encode_frames({
        {service::FrameType::kRequest,
         "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":3}"},
        {service::FrameType::kFlush, ""},
        {service::FrameType::kStat, ""},
        {service::FrameType::kRequest,
         "{\"id\":\"b\",\"workload\":\"PR-D1\",\"steps\":1,\"seed\":4}"},
        {service::FrameType::kEnd, ""},
    });
  }

  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--in",
                     in_path, "--out", out_path, "--trace-stream", trace_path,
                     "--trace-ring", "8", "--clock", "logical",
                     "--tele-every", "1"},
                    os),
            0)
      << os.str();
  // The exporter status line reports what streamed out and that nothing
  // was dropped.
  EXPECT_NE(os.str().find("streamed trace to"), std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("dropped 0"), std::string::npos) << os.str();

  // The incrementally-written file is a complete, valid Chrome trace.
  std::ifstream trace(trace_path, std::ios::binary);
  ASSERT_TRUE(trace);
  std::ostringstream trace_buf;
  trace_buf << trace.rdbuf();
  const auto check = obs::validate_chrome_trace(trace_buf.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.complete_events, 0u);
  EXPECT_NE(trace_buf.str().find("\"request\""), std::string::npos);
  EXPECT_NE(trace_buf.str().find("\"logical\""), std::string::npos);

  // TELE frames appear at the FLSH boundary, the STAT poll, after each
  // REP (tele_every=1) and before END; with --clock logical they carry
  // the deterministic payload variant. Only the STAT answer is the live
  // global poll with the registry's instrument lines; the others are
  // connection-scoped.
  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  const auto frames = service::decode_frames(bytes.str());
  std::size_t tele = 0;
  std::size_t with_instruments = 0;
  for (const auto& f : frames) {
    if (f.type == service::FrameType::kTelemetry) {
      ++tele;
      EXPECT_EQ(f.payload.rfind("{\"tele\":1,\"deterministic\":true,", 0),
                0u)
          << f.payload.substr(0, 80);
      if (f.payload.find("obs.spans.emitted") != std::string::npos) {
        ++with_instruments;
      }
    }
  }
  EXPECT_GE(tele, 5u);
  EXPECT_EQ(with_instruments, 1u);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[frames.size() - 2].type, service::FrameType::kTelemetry);
  EXPECT_EQ(frames.back().type, service::FrameType::kEnd);
}

TEST(CliObsCommandsTest, ServeStreamRejectsBothTraceModes) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_trace_both";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--trace-out",
                     dir + "/a.json", "--trace-stream", dir + "/b.json"},
                    os),
            1);
  EXPECT_NE(os.str().find("--trace-out"), std::string::npos) << os.str();
}

TEST(CliObsCommandsTest, StatsPollsATeleSnapshotOverTheSocket) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_stats";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string sock = dir + "/serve.sock";

  std::ostringstream server_os;
  int server_rc = -1;
  std::thread server([&] {
    server_rc = run_cli({"serve", "--stream", "1", "--checkpoint",
                         dir + "/registry", "--train-iters", "40", "--socket",
                         sock},
                        server_os);
  });
  // The server trains a model before it binds; wait for the socket, then
  // retry the poll over the listen/accept race window.
  for (int i = 0; i < 600 && !std::filesystem::exists(sock); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  int rc = 1;
  std::string out;
  for (int attempt = 0; attempt < 20 && rc != 0; ++attempt) {
    std::ostringstream os;
    rc = run_cli({"stats", "--socket", sock}, os);
    out = os.str();
    if (rc != 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.join();
  EXPECT_EQ(rc, 0) << out << server_os.str();
  EXPECT_EQ(server_rc, 0) << server_os.str();
  // The printed payload is the TELE snapshot: the versioned header line
  // with the aggregate counters and build labels.
  EXPECT_NE(out.find("{\"tele\":1,"), std::string::npos) << out;
  EXPECT_NE(out.find("\"sessions\":0"), std::string::npos) << out;
  EXPECT_NE(out.find("\"version\":"), std::string::npos) << out;
}

TEST(CliCommandsTest, StatsWithoutSocketFlagFails) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"stats"}, os), 1);
  EXPECT_NE(os.str().find("--socket"), std::string::npos);
}

TEST(CliObsCommandsTest, ServeStreamAcceptsJsonlRequestsBridge) {
  // --requests frames each JSONL line as a REQ plus a clean END, so smoke
  // tests can drive the wire path without a frame encoder.
  const std::string dir = ::testing::TempDir() + "deepcat_cli_req_bridge";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string req_path = dir + "/req.jsonl";
  const std::string out_path = dir + "/out.wire";
  {
    std::ofstream req(req_path);
    req << "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":3}\n"
        << "\n"  // blank lines are skipped
        << "{\"id\":\"b\",\"workload\":\"WC-D1\",\"steps\":1,\"seed\":4}\n";
  }
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--requests",
                     req_path, "--out", out_path},
                    os),
            0)
      << os.str();
  EXPECT_NE(os.str().find("stream done: 2 requests"), std::string::npos);

  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  const auto frames = service::decode_frames(bytes.str());
  EXPECT_EQ(frames.back().type, service::FrameType::kEnd);

  std::ostringstream os2;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--requests", req_path, "--in",
                     req_path},
                    os2),
            1);
  EXPECT_NE(os2.str().find("mutually exclusive"), std::string::npos);
}

TEST(CliObsCommandsTest, ServeStreamWithoutOutWritesOnlyWireBytes) {
  // No --out, --socket or --tcp: stdout (here the CLI stream) carries the
  // wire transcript and nothing else — no status line before or after.
  const std::string dir = ::testing::TempDir() + "deepcat_cli_wire_stdout";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string req_path = dir + "/req.jsonl";
  {
    std::ofstream req(req_path);
    req << "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":3}\n";
  }
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--requests",
                     req_path},
                    os),
            0);
  const std::string bytes = os.str();
  const auto frames = service::decode_frames(bytes);
  std::string reencoded = service::encode_stream_header();
  for (const auto& f : frames) reencoded += service::encode_frame(f.type, f.payload);
  EXPECT_EQ(reencoded, bytes) << "bytes outside the wire frames";
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, service::FrameType::kReply);
  EXPECT_EQ(frames[1].type, service::FrameType::kTelemetry);
  EXPECT_EQ(frames[2].type, service::FrameType::kEnd);
}

TEST(CliCommandsTest, ServeBatchIsThreadCountIndependentAndPublishes) {
  // The batch path (REQ* + one flush), trained, served and published at one
  // and at four threads into two registries: the JSONL report and metrics
  // lines are byte-identical, and so are both published versions — the
  // trained master (v1, whose startup train steps borrow a pool worker) and
  // the merged, fine-tuned one --publish 1 writes (v2, whose master steps
  // do too).
  const std::string dir = ::testing::TempDir() + "deepcat_cli_batch";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string req_path = dir + "/req.jsonl";
  {
    std::ofstream req(req_path);
    req << "{\"id\":\"r1\",\"workload\":\"WC-D1\",\"steps\":2,\"seed\":1}\n"
        << "{\"id\":\"r2\",\"workload\":\"TS-D1\",\"steps\":2,\"seed\":2}\n"
        << "{\"id\":\"r3\",\"workload\":\"PR-D1\",\"cluster\":\"b\","
           "\"steps\":2,\"seed\":3}\n"
        << "{\"id\":\"r4\",\"workload\":\"KM-D1\",\"steps\":2,\"seed\":4}\n";
  }
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
  };
  const auto train_and_serve = [&](const std::string& threads) {
    const std::string registry = dir + "/registry" + threads;
    std::ostringstream train_os;
    // Enough offline iterations that the pools hold a TD3 batch (64), so
    // startup training and the post-merge fine-tune actually step.
    EXPECT_EQ(run_cli({"serve", "--checkpoint", registry, "--train-iters",
                       "80", "--threads", threads},
                      train_os),
              0)
        << train_os.str();
    std::ostringstream os;
    const std::string out_path = dir + "/t" + threads + ".jsonl";
    EXPECT_EQ(run_cli({"serve", "--checkpoint", registry, "--requests",
                       req_path, "--out", out_path, "--threads", threads,
                       "--publish", "1"},
                      os),
              0)
        << os.str();
    EXPECT_NE(os.str().find("published post-batch model 'default' v2"),
              std::string::npos)
        << os.str();
    return registry;
  };
  const std::string reg1 = train_and_serve("1");
  const std::string reg4 = train_and_serve("4");
  const std::string one = read_file(dir + "/t1.jsonl");
  EXPECT_EQ(one, read_file(dir + "/t4.jsonl"));
  for (const char* version : {"/default.v1.dckp", "/default.v2.dckp"}) {
    ASSERT_TRUE(std::filesystem::exists(reg1 + version)) << version;
    EXPECT_EQ(read_file(reg1 + version), read_file(reg4 + version))
        << version << " depends on the pool size";
  }

  std::istringstream lines(one);
  std::string line;
  std::vector<std::string> ids;
  std::string aggregate;
  while (std::getline(lines, line)) {
    const auto fields = service::parse_flat_json(line);
    if (fields.count("aggregate") != 0) {
      aggregate = line;
    } else {
      ids.push_back(fields.at("id"));
      EXPECT_EQ(fields.at("ok"), "true") << line;
    }
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"r1", "r2", "r3", "r4"}));
  const auto metrics = service::parse_flat_json(aggregate);
  EXPECT_EQ(metrics.at("sessions"), "4");
  EXPECT_EQ(metrics.at("merges"), "1");
  EXPECT_EQ(metrics.at("fine_tune_steps"), "4") << "--master-steps default";
}

TEST(CliCommandsTest, ServeRejectsThreadCountsAboveTheLimit) {
  // Checked before any service (and so any pool thread) exists.
  const std::string dir = ::testing::TempDir() + "deepcat_cli_limits";
  std::filesystem::remove_all(dir);
  for (const std::string stream : {"0", "1"}) {
    std::ostringstream threads;
    EXPECT_NE(run_cli({"serve", "--stream", stream, "--checkpoint", dir,
                       "--train-iters", "40", "--threads", "1025"},
                      threads),
              0);
    EXPECT_NE(threads.str().find("--threads"), std::string::npos)
        << threads.str();
    EXPECT_NE(threads.str().find("1024"), std::string::npos) << threads.str();

    std::ostringstream shards;
    EXPECT_NE(run_cli({"serve", "--stream", stream, "--checkpoint", dir,
                       "--train-iters", "40", "--shards", "65"},
                      shards),
              0);
    EXPECT_NE(shards.str().find("--shards"), std::string::npos)
        << shards.str();
    EXPECT_NE(shards.str().find("64"), std::string::npos) << shards.str();
  }
  EXPECT_FALSE(std::filesystem::exists(dir)) << "nothing may be trained";
}

TEST(CliObsCommandsTest, ServeStreamRejectsUnknownClock) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_clock_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--trace-out",
                     dir + "/t.json", "--clock", "sundial"},
                    os),
            1);
  EXPECT_NE(os.str().find("--clock"), std::string::npos);
}

TEST(CliCommandsTest, ServeStreamCorruptInputExitsNonzeroWithErrFrame) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_stream_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string in_path = dir + "/in.wire";
  const std::string out_path = dir + "/out.wire";
  {
    std::string stream = service::encode_frames({
        {service::FrameType::kRequest,
         "{\"id\":\"a\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":3}"},
        {service::FrameType::kEnd, ""},
    });
    stream[stream.size() - 1] ^= 0x01;  // corrupt the END frame CRC
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << stream;
  }
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--in",
                     in_path, "--out", out_path},
                    os),
            1)
      << os.str();
  EXPECT_NE(os.str().find("1 protocol errors"), std::string::npos);

  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  bool saw_err = false;
  for (const auto& f : service::decode_frames(bytes.str())) {
    if (f.type == service::FrameType::kError) {
      saw_err = true;
      EXPECT_NE(f.payload.find("checksum"), std::string::npos) << f.payload;
    }
  }
  EXPECT_TRUE(saw_err);
}

TEST(CliCommandsTest, ServeStreamRequiresABootstrappedModel) {
  const std::string dir = ::testing::TempDir() + "deepcat_cli_stream_empty";
  std::filesystem::remove_all(dir);
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint", dir}, os), 1);
  EXPECT_NE(os.str().find("error:"), std::string::npos);
}

}  // namespace
}  // namespace deepcat::cli
