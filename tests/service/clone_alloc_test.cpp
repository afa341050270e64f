// A guard on how a served session clones its master: it copies nothing
// until its first train step, reading the master's actor and critics in
// place, and copies the six networks and the optimizer moments there, with
// gradient buffers for the three nets it trains and none for the targets.
// So a 1-step session copies no network at all. Every Matrix buffer comes
// from nn::CacheAlignedAllocator through the aligned operator new, which
// this binary replaces to count the bytes asked for while a flag is up. A
// clone that copied its actor or critics at construction again would
// allocate several times the bound below.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <shared_mutex>
#include <string>

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

// Room for everything a session allocates besides a copy of the master:
// the layer output rows of act and the Twin-Q probes, and their input
// rows. A few KB at the serving shape; the actor alone is 0.18 MB.
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

  // The actor and both critics (networks() order), which train, and the
  // targets, which do not; parameters only.
  const rl::AgentSnapshot state = frozen.snapshot();
  const std::size_t actor = bytes_of(state.networks[0]);
  const std::size_t critics =
      bytes_of(state.networks[2]) + bytes_of(state.networks[3]);
  const std::size_t targets = bytes_of(state.networks[1]) +
                              bytes_of(state.networks[4]) +
                              bytes_of(state.networks[5]);
  std::size_t moments = 0;
  for (const auto& opt : state.optimizers) {
    moments += bytes_of(opt.first_moments) + bytes_of(opt.second_moments);
  }

  // The master trained its actor and critics, never its targets.
  for (const auto& [name, net] : master.tuner().agent().networks()) {
    const bool target = std::string(name).ends_with("_target");
    for (const nn::Param& p : net->params()) {
      EXPECT_EQ(p.grad->empty(), target) << name << " " << p.name;
    }
  }

  // Building the clone copies nothing.
  core::DeepCat clone(sparksim::cluster_a(), api);
  const std::size_t built = aligned_bytes_of([&] {
    clone.tuner().materialize(
        frozen, std::make_unique<SharedRdperReplay>(pools, mutex));
  });
  EXPECT_LE(built, kSlack) << "the clone copied a network when it was built";

  // Its first train step brings all six networks, the gradients of the
  // critics (and, on a policy step, of the actor) and the moments.
  rl::Td3Agent& agent = clone.tuner().agent();
  common::Rng rng(5);
  rl::Td3TrainStats stats;
  const std::size_t first_step = aligned_bytes_of(
      [&] { stats = agent.train_step(*clone.tuner().replay(), rng); });
  const std::size_t trained_grads =
      critics + (stats.actor_loss.has_value() ? actor : 0);
  EXPECT_GE(first_step,
            actor + critics + targets + trained_grads + moments)
      << "the state did not arrive at the first train step";
  for (const auto& [name, net] : agent.networks()) {
    if (!std::string(name).ends_with("_target")) continue;
    for (const nn::Param& p : net->params()) {
      EXPECT_TRUE(p.grad->empty())
          << name << " " << p.name << " holds a gradient buffer";
    }
  }

  // A whole 1-step session never trains, so it copies nothing either.
  service::TuningRequest request;
  request.id = "one";
  request.workload = "TS-D1";
  request.max_steps = 1;
  SessionReport report;
  const std::size_t session = aligned_bytes_of(
      [&] { report = run_session(frozen, api, request, pools, mutex); });
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_LE(session, kSlack) << "a 1-step session copied state it never reads";
}

}  // namespace
}  // namespace deepcat::service
