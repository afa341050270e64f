// A guard on how a served session clones its master: it copies only what it
// reads before it trains (the actor and both critics, with their gradient
// buffers) and the training state (targets, optimizer moments) at its first
// train step, so a 1-step session never copies the latter at all. Every
// Matrix buffer comes from nn::CacheAlignedAllocator through the aligned
// operator new, which this binary replaces to count the bytes asked for
// while a flag is up. A clone that copied its targets at construction
// again would allocate twice the bound below.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <shared_mutex>

#include "core/deepcat_api.hpp"
#include "rl/replay_rdper.hpp"
#include "rl/td3.hpp"
#include "service/session.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_aligned_bytes{0};

void* aligned_new(std::size_t n, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_aligned_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n, std::align_val_t a) {
  return aligned_new(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return aligned_new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return aligned_new(n, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return aligned_new(n, a);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace deepcat::service {
namespace {

/// Aligned bytes allocated while `fn` runs.
template <typename Fn>
std::size_t aligned_bytes_of(Fn&& fn) {
  g_aligned_bytes.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_aligned_bytes.load();
}

std::size_t bytes_of(const std::vector<nn::Matrix>& tensors) {
  std::size_t n = 0;
  for (const nn::Matrix& t : tensors) n += t.size() * sizeof(double);
  return n;
}

// Room for everything else a session allocates besides its agent: the
// single-row activations of act and the Twin-Q probes, and the clone's
// input rows. A few KB at the serving shape; the nets are ~0.5 MB.
constexpr std::size_t kSlack = 64 * 1024;

TEST(ServiceCloneAllocTest, AClonePaysForWhatItReadsAndTrainsLate) {
  // The serving shape (hidden 128x128), on a master that holds a batch.
  const core::DeepCatApiOptions api;
  core::DeepCat master(sparksim::cluster_a(), api);
  (void)master.train_offline(
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 80);
  const rl::Td3Agent& frozen = master.tuner().agent();
  const auto& pools =
      dynamic_cast<const rl::RdperReplay&>(*master.tuner().replay());
  ASSERT_GE(pools.size(), api.tuner.td3.batch_size);
  std::shared_mutex mutex;

  // The actor and both critics, parameters only (networks() order).
  const rl::AgentSnapshot state = frozen.snapshot();
  const std::size_t read_nets = bytes_of(state.networks[0]) +
                                bytes_of(state.networks[2]) +
                                bytes_of(state.networks[3]);
  const std::size_t targets = bytes_of(state.networks[1]) +
                              bytes_of(state.networks[4]) +
                              bytes_of(state.networks[5]);
  std::size_t moments = 0;
  for (const auto& opt : state.optimizers) {
    moments += bytes_of(opt.first_moments) + bytes_of(opt.second_moments);
  }

  // Building the clone copies the read nets and their gradient buffers.
  core::DeepCat clone(sparksim::cluster_a(), api);
  const std::size_t built = aligned_bytes_of([&] {
    clone.tuner().materialize(
        frozen, std::make_unique<SharedRdperReplay>(pools, mutex));
  });
  EXPECT_GE(built, 2 * read_nets);
  EXPECT_LE(built, 2 * read_nets + kSlack)
      << "the clone copied more than the actor and critics at construction";

  // Its first train step brings the targets and the optimizers' moments.
  rl::Td3Agent& agent = clone.tuner().agent();
  common::Rng rng(5);
  const std::size_t first_step = aligned_bytes_of(
      [&] { (void)agent.train_step(*clone.tuner().replay(), rng); });
  EXPECT_GE(first_step, targets + moments)
      << "the training state did not arrive at the first train step";

  // A whole 1-step session never trains, so it never pays for that state.
  service::TuningRequest request;
  request.id = "one";
  request.workload = "TS-D1";
  request.max_steps = 1;
  SessionReport report;
  const std::size_t session = aligned_bytes_of(
      [&] { report = run_session(frozen, api, request, pools, mutex); });
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_LE(session, 2 * read_nets + kSlack)
      << "a 1-step session copied state it never reads";
}

}  // namespace
}  // namespace deepcat::service
