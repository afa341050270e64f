// CLI surface of the warm-start retrieval path: `deepcat info` reports
// the retrieval build parameters, `index build`/`index query` produce and
// interrogate the standalone index container, `serve --warm-index`
// resolves "warm" requests (and types the error without the flag), and
// `stats --requests` drives warm queries over a live socket.
#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deepcat_api.hpp"
#include "retrieval/index.hpp"
#include "rl/replay_rdper.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "service/wire.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::cli {
namespace {

/// Creates a registry with a small published model and returns its dir.
std::string make_registry(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "deepcat_warm_cli_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string in_path = dir + "/empty.wire";
  {
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << service::encode_frames({{service::FrameType::kEnd, ""}});
  }
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--train-iters", "40", "--in",
                     in_path, "--out", dir + "/bootstrap.wire"},
                    os),
            0)
      << os.str();
  return dir;
}

TEST(CliWarmTest, InfoReportsRetrievalBuildParameters) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"info"}, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("warm embedding:   41 dims"), std::string::npos) << out;
  EXPECT_NE(out.find("warm default k:   3"), std::string::npos) << out;
  EXPECT_NE(out.find("index section:    v1"), std::string::npos) << out;

  std::ostringstream js;
  EXPECT_EQ(run_cli({"info", "--json", "1"}, js), 0);
  std::string line = js.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  const auto fields = service::parse_flat_json(line);
  EXPECT_EQ(fields.at("embedding_dim"),
            std::to_string(retrieval::kEmbeddingDim));
  EXPECT_EQ(fields.at("warm_default_k"),
            std::to_string(retrieval::kDefaultNeighbors));
  EXPECT_EQ(fields.at("index_section_version"),
            std::to_string(service::kIndexSectionVersion));
}

TEST(CliWarmTest, IndexBuildQueryAndWarmServeEndToEnd) {
  const std::string dir = make_registry("e2e");
  const std::string index_path = dir + "/experience.dcix";

  // Build a small index from two workloads x one seed.
  std::ostringstream build_os;
  EXPECT_EQ(run_cli({"index", "build", "--checkpoint", dir + "/registry",
                     "--out", index_path, "--workloads", "TS-D1,WC-D1",
                     "--seeds", "1", "--steps", "2"},
                    build_os),
            0)
      << build_os.str();
  EXPECT_NE(build_os.str().find("built index: 2 entries"), std::string::npos)
      << build_os.str();

  // The written container loads and holds exactly those entries.
  const retrieval::ExperienceIndex index =
      service::load_index_file(index_path);
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.entries()[0].workload, "TS-D1");
  EXPECT_EQ(index.entries()[1].workload, "WC-D1");

  // JSON query: rank 0 for a TeraSort case is the TeraSort entry.
  std::ostringstream query_os;
  EXPECT_EQ(run_cli({"index", "query", "--index", index_path, "--workload",
                     "TS-D2", "--k", "2", "--json", "1"},
                    query_os),
            0)
      << query_os.str();
  std::istringstream lines(query_os.str());
  std::string first_line;
  ASSERT_TRUE(std::getline(lines, first_line));
  const auto first = service::parse_flat_json(first_line);
  EXPECT_EQ(first.at("rank"), "0");
  EXPECT_EQ(first.at("workload"), "TS-D1");

  // Table mode renders the neighbor list with the metric in the title.
  std::ostringstream table_os;
  EXPECT_EQ(run_cli({"index", "query", "--index", index_path, "--workload",
                     "WC-D2", "--metric", "l2"},
                    table_os),
            0);
  EXPECT_NE(table_os.str().find("nearest neighbors (l2)"), std::string::npos)
      << table_os.str();

  // Warm serve: REQ with "warm":2 against --warm-index resolves seeds and
  // the REP carries the integer warm field; the cold REQ does not.
  const std::string in_path = dir + "/warm_in.wire";
  {
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << service::encode_frames({
        {service::FrameType::kRequest,
         "{\"id\":\"w\",\"workload\":\"TS-D2\",\"steps\":2,\"seed\":5,"
         "\"warm\":2}"},
        {service::FrameType::kRequest,
         "{\"id\":\"c\",\"workload\":\"TS-D2\",\"steps\":1,\"seed\":6}"},
        {service::FrameType::kEnd, ""},
    });
  }
  const std::string out_path = dir + "/warm_out.wire";
  std::ostringstream serve_os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--warm-index", index_path, "--in",
                     in_path, "--out", out_path},
                    serve_os),
            0)
      << serve_os.str();
  EXPECT_NE(serve_os.str().find("loaded warm index (2 entries)"),
            std::string::npos)
      << serve_os.str();

  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  std::vector<std::string> reps;
  for (const auto& f : service::decode_frames(bytes.str())) {
    if (f.type == service::FrameType::kReply) reps.push_back(f.payload);
  }
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_NE(reps[0].find("\"id\":\"w\""), std::string::npos) << reps[0];
  EXPECT_NE(reps[0].find("\"warm\":2"), std::string::npos) << reps[0];
  EXPECT_NE(reps[1].find("\"id\":\"c\""), std::string::npos) << reps[1];
  EXPECT_EQ(reps[1].find("\"warm\":"), std::string::npos) << reps[1];
}

TEST(CliWarmTest, IndexBuildEqualsSerialSessionsOnTheSameMaster) {
  // index build serves its workloads x seeds side by side on the
  // service's pool; the container must hold the bytes that serial
  // run_session calls on the same master write, entries in request order.
  // An 80-iteration master holds a TD3 batch, so the sessions train.
  const std::string dir = ::testing::TempDir() + "deepcat_warm_cli_serial";
  std::filesystem::remove_all(dir);
  const std::string registry_dir = dir + "/registry";
  std::ostringstream train_os;
  ASSERT_EQ(run_cli({"serve", "--checkpoint", registry_dir, "--train-iters",
                     "80"},
                    train_os),
            0)
      << train_os.str();
  const std::string index_path = dir + "/experience.dcix";
  std::ostringstream build_os;
  ASSERT_EQ(run_cli({"index", "build", "--checkpoint", registry_dir, "--out",
                     index_path, "--workloads", "TS-D1,WC-D1,PR-D2",
                     "--seeds", "2", "--steps", "3", "--cluster", "b"},
                    build_os),
            0)
      << build_os.str();

  const core::DeepCatApiOptions api;
  core::DeepCat master(sparksim::cluster_a(), api);
  const service::ModelRegistry registry(registry_dir);
  registry.load_into("default", *registry.latest_version("default"), master);
  const auto& pools =
      dynamic_cast<const rl::RdperReplay&>(*master.tuner().replay());
  std::shared_mutex pools_mutex;
  retrieval::ExperienceIndex reference;
  for (const char* id : {"TS-D1", "WC-D1", "PR-D2"}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      service::TuningRequest request;
      request.id = std::string(id) + "-s" + std::to_string(seed);
      request.workload = id;
      request.cluster = "b";
      request.max_steps = 3;
      request.seed = seed;
      const service::SessionReport report = service::run_session(
          master.tuner().agent(), api, request, pools, pools_mutex);
      ASSERT_TRUE(report.ok) << report.error;
      reference.add(retrieval::entry_from_report(sparksim::hibench_case(id),
                                                 seed, report.report));
    }
  }
  std::ostringstream want(std::ios::binary);
  service::save_index(want, reference);
  std::ifstream built(index_path, std::ios::binary);
  std::ostringstream got(std::ios::binary);
  got << built.rdbuf();
  EXPECT_EQ(got.str(), want.str());
}

TEST(CliWarmTest, WarmRequestWithoutIndexIsATypedStreamError) {
  const std::string dir = make_registry("noindex");
  const std::string in_path = dir + "/warm_in.wire";
  {
    std::ofstream in(in_path, std::ios::binary | std::ios::trunc);
    in << service::encode_frames({
        {service::FrameType::kRequest,
         "{\"id\":\"w\",\"workload\":\"TS-D1\",\"steps\":1,\"seed\":5,"
         "\"warm\":2}"},
        {service::FrameType::kEnd, ""},
    });
  }
  const std::string out_path = dir + "/warm_out.wire";
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--in", in_path, "--out", out_path},
                    os),
            1)
      << os.str();

  std::ifstream out(out_path, std::ios::binary);
  ASSERT_TRUE(out);
  std::ostringstream bytes(std::ios::binary);
  bytes << out.rdbuf();
  bool saw_err = false;
  for (const auto& f : service::decode_frames(bytes.str())) {
    EXPECT_NE(f.type, service::FrameType::kReply)
        << "no session may run for an unresolvable warm request";
    if (f.type == service::FrameType::kError) {
      saw_err = true;
      EXPECT_NE(f.payload.find("no experience index is loaded"),
                std::string::npos)
          << f.payload;
    }
  }
  EXPECT_TRUE(saw_err);
}

TEST(CliWarmTest, ServeRejectsMissingWarmIndexFile) {
  const std::string dir = make_registry("badpath");
  std::ostringstream os;
  EXPECT_EQ(run_cli({"serve", "--stream", "1", "--checkpoint",
                     dir + "/registry", "--warm-index",
                     dir + "/does_not_exist.dcix", "--in",
                     dir + "/empty.wire", "--out", dir + "/out.wire"},
                    os),
            1);
  EXPECT_NE(os.str().find("error:"), std::string::npos) << os.str();
}

TEST(CliWarmTest, IndexSubcommandValidation) {
  std::ostringstream os;
  EXPECT_EQ(run_cli({"index", "prune"}, os), 1);
  EXPECT_NE(os.str().find("unknown subcommand"), std::string::npos);

  std::ostringstream os2;
  EXPECT_EQ(run_cli({"index", "build"}, os2), 1);
  EXPECT_NE(os2.str().find("--checkpoint"), std::string::npos);

  std::ostringstream os3;
  EXPECT_EQ(run_cli({"index", "query"}, os3), 1);
  EXPECT_NE(os3.str().find("--index"), std::string::npos);

  // A second positional is only meaningful for `index`.
  std::ostringstream os4;
  EXPECT_EQ(run_cli({"info", "build"}, os4), 1);
  EXPECT_NE(os4.str().find("unexpected positional argument"),
            std::string::npos);

  // Querying a file that is not an index container fails typed.
  const std::string bogus = ::testing::TempDir() + "warm_cli_bogus.dcix";
  {
    std::ofstream f(bogus, std::ios::binary | std::ios::trunc);
    f << "not a container";
  }
  std::ostringstream os5;
  EXPECT_EQ(run_cli({"index", "query", "--index", bogus, "--workload",
                     "TS-D1"},
                    os5),
            1);
  EXPECT_NE(os5.str().find("error:"), std::string::npos) << os5.str();
}

TEST(CliWarmTest, StatsRequestsLegDrivesWarmQueriesOverTheSocket) {
  const std::string dir = make_registry("socket");
  const std::string index_path = dir + "/experience.dcix";
  std::ostringstream build_os;
  ASSERT_EQ(run_cli({"index", "build", "--checkpoint", dir + "/registry",
                     "--out", index_path, "--workloads", "TS-D1", "--seeds",
                     "1", "--steps", "2"},
                    build_os),
            0)
      << build_os.str();

  const std::string sock = dir + "/serve.sock";
  std::ostringstream server_os;
  int server_rc = -1;
  std::thread server([&] {
    server_rc = run_cli({"serve", "--stream", "1", "--checkpoint",
                         dir + "/registry", "--warm-index", index_path,
                         "--socket", sock},
                        server_os);
  });
  for (int i = 0; i < 600 && !std::filesystem::exists(sock); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const std::string req_path = dir + "/req.jsonl";
  {
    std::ofstream req(req_path);
    req << "{\"id\":\"w\",\"workload\":\"TS-D2\",\"steps\":1,\"seed\":9,"
           "\"warm\":1}\n";
  }
  int rc = 1;
  std::string out;
  for (int attempt = 0; attempt < 20 && rc != 0; ++attempt) {
    std::ostringstream os;
    rc = run_cli({"stats", "--socket", sock, "--requests", req_path}, os);
    out = os.str();
    if (rc != 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.join();
  EXPECT_EQ(rc, 0) << out << server_os.str();
  EXPECT_EQ(server_rc, 0) << server_os.str();
  EXPECT_NE(out.find("\"id\":\"w\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"warm\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("{\"tele\":1,"), std::string::npos) << out;
}

}  // namespace
}  // namespace deepcat::cli
