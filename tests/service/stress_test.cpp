// Concurrency stress for the service layer, written to run clean under
// TSan/ASan: many sessions share the master pools while a checkpoint
// writer hammers checkpoint_of from another thread across the batch and
// its merge. Asserts (a) every concurrently-written checkpoint is a
// consistent snapshot (loads cleanly — no torn reads), (b) per-session
// reports are a pure function of their seeds regardless of scheduling,
// and (c) sessions that copy the master's training state late, at their
// first train step, race neither a FLSH issued while they run nor the
// checkpoint reader.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/checkpoint.hpp"
#include "service/streaming.hpp"
#include "sparksim/workloads.hpp"

namespace deepcat::service {
namespace {

using sparksim::WorkloadType;

StreamingOptions stress_options(std::size_t threads) {
  StreamingOptions o;
  o.service.threads = threads;
  o.service.api.tuner.seed = 21;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1021;
  return o;
}

void train(StreamingService& svc) {
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 30);
}

std::vector<SessionReport> batch_sessions(StreamingService& svc,
                                     std::vector<TuningRequest> requests) {
  std::vector<SessionReport> sessions;
  for (auto& r : serve_all(svc, std::move(requests))) {
    sessions.push_back(std::move(r.session));
  }
  (void)svc.flush();
  return sessions;
}

/// The latch for a test that acts while a batch is in flight: each
/// callback moves its report into its request's slot, and the test waits
/// for a count of them (serve_all waits for all).
class CompletionLatch {
 public:
  explicit CompletionLatch(std::size_t slots) : reports_(slots) {}

  [[nodiscard]] StreamingService::CompletionCallback slot(std::size_t i) {
    return [this, i](StreamReport report) {
      std::scoped_lock lock(mutex_);
      reports_[i] = std::move(report);
      ++arrived_;
      arrived_cv_.notify_all();
    };
  }

  /// Blocks until `count` callbacks have run; returns the slots.
  std::vector<StreamReport> wait_for(std::size_t count) {
    std::unique_lock lock(mutex_);
    arrived_cv_.wait(lock, [&] { return arrived_ >= count; });
    return reports_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_cv_;
  std::vector<StreamReport> reports_;
  std::size_t arrived_ = 0;
};

std::vector<TuningRequest> stress_batch(std::size_t n) {
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1"};
  std::vector<TuningRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    TuningRequest r;
    r.id = "stress-" + std::to_string(i);
    r.workload = cases[i % std::size(cases)];
    r.max_steps = 2;
    r.seed = 500 + i;
    reqs.push_back(r);
  }
  return reqs;
}

TEST(ServiceStressTest, ConcurrentCheckpointWritesAreNeverTorn) {
  StreamingService svc(stress_options(4));
  train(svc);

  // Checkpoint writer racing the batch and its merge + fine-tune: every
  // blob it produces must load cleanly into a fresh model — a torn read of
  // half-merged pools or mid-update networks would fail the CRC or the
  // section decoders.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> snapshots{0};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::stringstream ss(svc.checkpoint_of("default"));
      core::DeepCat probe(sparksim::cluster_a(),
                          stress_options(1).service.api);
      EXPECT_NO_THROW(load_checkpoint(ss, probe));
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const auto reports = batch_sessions(svc, stress_batch(12));
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  ASSERT_EQ(reports.size(), 12u);
  for (const auto& r : reports) EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
  EXPECT_GT(snapshots.load(), 0u);
}

TEST(ServiceStressTest, LateCopiesRaceNeitherAFlushNorACheckpointReader) {
  // A master that holds a batch, so sessions of 2 or more steps train and
  // copy its targets and moments late, without a lock. flush() is called
  // while they run, after the first 1-step session has completed: it must
  // wait for the rest before the merge and the master's fine-tune write
  // what they copy. TSan checks that ordering; the reports check the bytes.
  StreamingService svc(stress_options(4));
  svc.train_model("default",
                  sparksim::make_workload(WorkloadType::kTeraSort, 3.2), 80);
  StreamingService twin(stress_options(1));
  {
    std::stringstream blob(svc.checkpoint_of("default"));
    twin.load_model("default", blob);
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::stringstream ss(svc.checkpoint_of("default"));
      core::DeepCat probe(sparksim::cluster_a(),
                          stress_options(1).service.api);
      EXPECT_NO_THROW(load_checkpoint(ss, probe));
    }
  });
  std::vector<TuningRequest> all;
  for (int round = 0; round < 2; ++round) {
    auto batch = stress_batch(8);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].id = "late-" + std::to_string(round) + "-" + std::to_string(i);
      batch[i].max_steps = i == 0 ? 1 : 2 + static_cast<int>(i % 3);
    }
    CompletionLatch latch(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      svc.submit(batch[i], latch.slot(i));
    }
    (void)latch.wait_for(1);
    EXPECT_GT(svc.flush(), 0u);
    const auto reports = latch.wait_for(batch.size());
    EXPECT_EQ(reports.size(), batch.size());  // the writer is still running
    for (const auto& r : reports) {
      EXPECT_TRUE(r.session.ok) << r.session.id << ": " << r.session.error;
      EXPECT_EQ(r.model_epoch, static_cast<std::uint64_t>(round + 1));
    }
    all.insert(all.end(), batch.begin(), batch.end());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(svc.model_epoch(), 3u);

  // The same rounds on one thread, one flush each after every session:
  // same master afterwards, bit for bit.
  for (int round = 0; round < 2; ++round) {
    const std::vector<TuningRequest> batch(all.begin() + 8 * round,
                                           all.begin() + 8 * (round + 1));
    (void)batch_sessions(twin, batch);
  }
  EXPECT_EQ(twin.checkpoint_of("default"), svc.checkpoint_of("default"));
}

TEST(ServiceStressTest, ReportsAreDeterministicPerSessionSeed) {
  // Two services, identically trained, batches run under different pool
  // sizes and scheduling: per-session reports must match field for field.
  StreamingService a(stress_options(4));
  train(a);
  std::stringstream blob(a.checkpoint_of("default"));
  StreamingService b(stress_options(2));
  b.load_model("default", blob);

  const auto batch = stress_batch(12);
  const auto ra = batch_sessions(a, batch);
  const auto rb = batch_sessions(b, batch);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, batch[i].id);
    EXPECT_EQ(ra[i].ok, rb[i].ok);
    EXPECT_EQ(ra[i].report.best_time, rb[i].report.best_time);
    EXPECT_EQ(ra[i].report.default_time, rb[i].report.default_time);
    EXPECT_EQ(ra[i].new_transitions.size(), rb[i].new_transitions.size());
  }

  // Sessions with distinct seeds explore distinct configurations: the
  // batch must not collapse into one shared trajectory.
  bool any_difference = false;
  for (std::size_t i = 1; i < ra.size(); ++i) {
    if (ra[i].workload == ra[0].workload &&
        ra[i].report.best_time != ra[0].report.best_time) {
      any_difference = true;
    }
  }
  // Same workload, different seed => different session (ids 0,4,8 are all
  // WC-D1 with seeds 500, 504, 508).
  EXPECT_TRUE(any_difference);
}

TEST(ServiceStressTest, BackToBackBatchesAccumulateExperience) {
  StreamingService svc(stress_options(3));
  train(svc);

  const auto first = batch_sessions(svc, stress_batch(6));
  const auto second = batch_sessions(svc, stress_batch(6));
  for (const auto& r : first) EXPECT_TRUE(r.ok) << r.error;
  for (const auto& r : second) EXPECT_TRUE(r.ok) << r.error;

  const auto m = svc.metrics();
  EXPECT_EQ(m.sessions_served, 12u);
  EXPECT_EQ(m.sessions_failed, 0u);
  EXPECT_EQ(m.merges, 2u) << "one flush per batch";
  EXPECT_EQ(svc.model_epoch(), 3u);
}

}  // namespace
}  // namespace deepcat::service
