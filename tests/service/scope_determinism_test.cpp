// Phase-shift determinism stress: one mixed batch of streaming and scoped
// requests, served across threads {1,4,16} x 3 arrival shuffles, must
// always produce byte-identical REP transcripts (sorted by request id) and
// byte-identical checkpoints for every scoped key — the scope-keyed variant
// of the streaming determinism contract. A scoped fork starts from its base
// model's genesis blob, recorded when the base was loaded: the same
// canonical bytes whatever the thread layout.
#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "service/jsonl.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

StreamingOptions stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;
  // The request set touches 5 scoped keys; keep them all resident so the
  // checkpoint comparison never races LRU eviction.
  o.max_loaded_models = 16;
  return o;
}

std::vector<TuningRequest> stress_requests() {
  // Streaming sessions (phase-shifted, scope-keyed) beside batch sessions,
  // spanning all three scope levels and both clusters.
  struct Spec {
    const char* workload;
    TuneScope scope;
    const char* cluster;
  };
  const Spec specs[] = {
      {"SA-P1", TuneScope::kWorkload, "a"},
      {"SJ-P1", TuneScope::kWorkload, "a"},
      {"SA-P2", TuneScope::kGlobal, "a"},
      {"TS-D1", TuneScope::kHardware, "b"},
      {"WC-D1", TuneScope::kGlobal, "a"},
      {"KM-D1", TuneScope::kWorkload, "b"},
  };
  std::vector<TuningRequest> reqs;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = specs[i].workload;
    r.cluster = specs[i].cluster;
    r.scope = specs[i].scope;
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

/// Every distinct scoped key the request set touches, plus the base.
std::vector<std::string> scoped_keys(const std::vector<TuningRequest>& reqs) {
  std::vector<std::string> keys = {"default"};
  for (const auto& r : reqs) {
    const std::string key = scoped_model_key(r);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  return keys;
}

struct RunResult {
  std::string transcript;                       ///< REP lines sorted by id
  std::map<std::string, std::string> checkpoints;  ///< per scoped key
};

RunResult run_once(const std::string& master_blob,
                   const std::vector<TuningRequest>& arrival_order,
                   std::size_t threads) {
  StreamingService svc(stress_options(threads));
  std::istringstream blob(master_blob, std::ios::binary);
  svc.load_model("default", blob);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<SessionReport> reports;
  for (const auto& r : arrival_order) {
    svc.submit(r, [&](StreamReport rep) {
      std::scoped_lock lock(mutex);
      reports.push_back(std::move(rep.session));
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return reports.size() >= arrival_order.size(); });
  }
  (void)svc.flush();

  std::sort(reports.begin(), reports.end(),
            [](const SessionReport& a, const SessionReport& b) {
              return a.id < b.id;
            });
  RunResult out;
  std::ostringstream os;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    write_report_jsonl(os, r);
  }
  out.transcript = os.str();
  for (const std::string& key : scoped_keys(arrival_order)) {
    out.checkpoints[key] = svc.checkpoint_of(key);
  }
  return out;
}

TEST(ScopeDeterminismTest, TranscriptsAndCheckpointsSurviveEveryLayout) {
  std::string master_blob;
  {
    StreamingService trainer(stress_options(1));
    trainer.train_model(
        "default",
        sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 40);
    master_blob = trainer.checkpoint_of("default");
  }

  const auto requests = stress_requests();
  const RunResult reference = run_once(master_blob, requests, 1);
  ASSERT_FALSE(reference.transcript.empty());
  for (const auto& [key, blob] : reference.checkpoints) {
    EXPECT_FALSE(blob.empty()) << key;
  }
  // Streaming REP lines must carry the re-adaptation keys.
  EXPECT_NE(reference.transcript.find("\"objective\":\"batch_latency_p95\""),
            std::string::npos);
  EXPECT_NE(reference.transcript.find("\"scope\":\"workload\""),
            std::string::npos);

  common::Rng shuffler(0x5C0BE5ull);
  const std::size_t kThreadCounts[] = {1, 4, 16};
  for (std::size_t shuffle = 0; shuffle < 3; ++shuffle) {
    auto order = requests;
    shuffler.shuffle(order);
    for (const std::size_t threads : kThreadCounts) {
      const std::string context = "shuffle " + std::to_string(shuffle) +
                                  ", threads " + std::to_string(threads);
      const RunResult run = run_once(master_blob, order, threads);
      EXPECT_EQ(run.transcript, reference.transcript)
          << context << ": REP transcript diverged";
      ASSERT_EQ(run.checkpoints.size(), reference.checkpoints.size())
          << context;
      for (const auto& [key, blob] : reference.checkpoints) {
        const auto it = run.checkpoints.find(key);
        ASSERT_NE(it, run.checkpoints.end()) << context << ": " << key;
        EXPECT_EQ(it->second, blob)
            << context << ": checkpoint for '" << key << "' diverged";
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::service
