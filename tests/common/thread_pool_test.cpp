#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace deepcat::common {
namespace {

TEST(ThreadPoolTest, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto f = pool.submit([&] { counter.fetch_add(1); });
  f.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) {
                                     throw std::runtime_error("chunk failed");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 200; ++i) {
    futures.push_back(pool.submit([&total, i] { total.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 200 * 201 / 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      (void)pool.submit([&] { done.fetch_add(1); });
    }
  }  // destructor joins after queue drains
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, ParallelForFirstSubmittedExceptionWins) {
  // All chunks are awaited (no early cancellation), and the exception from
  // the earliest-submitted failing chunk is the one rethrown — here both
  // the first and last chunk throw, with different types.
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 3) throw std::runtime_error("low");
      if (i == 97) throw std::logic_error("high");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "low");
  }
  // A throwing chunk skips its own remaining indices; the other three
  // 25-index chunks are still awaited and run (at least up to their throw).
  EXPECT_GE(executed.load(), 2 * 25 + 2);
  EXPECT_LT(executed.load(), 100);
}

TEST(ThreadPoolTest, ParallelMapPlacesResultsByIndex) {
  ThreadPool pool(4);
  const auto out =
      parallel_map(pool, 123, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 123u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPoolTest, ParallelMapIsIdenticalForAnyPoolSize) {
  // Per-index seeding (mix_seed) makes the result a pure function of the
  // index: 1-thread and 7-thread pools must produce identical vectors.
  auto job = [](std::size_t i) {
    Rng rng(mix_seed(99, i));
    double acc = 0.0;
    for (int k = 0; k < 50; ++k) acc += rng.normal();
    return acc;
  };
  ThreadPool serial(1), wide(7);
  const auto a = parallel_map(serial, 64, job);
  const auto b = parallel_map(wide, 64, job);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ThreadPoolTest, MixSeedSeparatesNeighboringIndices) {
  // Adjacent indices must yield well-separated streams; identical inputs
  // must reproduce the seed exactly (it is a pure function).
  EXPECT_EQ(mix_seed(7, 0), mix_seed(7, 0));
  EXPECT_NE(mix_seed(7, 0), mix_seed(7, 1));
  EXPECT_NE(mix_seed(7, 0), mix_seed(8, 0));
  Rng a(mix_seed(7, 0)), b(mix_seed(7, 1));
  int agree = 0;
  for (int i = 0; i < 64; ++i) agree += a() == b() ? 1 : 0;
  EXPECT_EQ(agree, 0);
}

// ---- Partner: one borrowed worker, two branches side by side -------------

TEST(PartnerTest, BothBranchesRunOnceWithAndWithoutAPool) {
  ThreadPool pool(2);
  for (ThreadPool* helpers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Partner partner(helpers);
    // Plain ints: the join must order the worker's write before the read.
    int a = 0;
    int b = 0;
    const bool shared = partner.both([&] { ++a; }, [&] { ++b; });
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
    if (helpers == nullptr) {
      EXPECT_FALSE(shared);
    }
  }
}

TEST(PartnerTest, NoPoolRunsAThenBOnTheCaller) {
  Partner partner;
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  EXPECT_FALSE(partner.both(
      [&] {
        order.push_back(1);
        threads.push_back(std::this_thread::get_id());
      },
      [&] {
        order.push_back(2);
        threads.push_back(std::this_thread::get_id());
      }));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(threads, (std::vector<std::thread::id>{caller, caller}));
}

TEST(PartnerTest, BusyPoolRunsBInlineWithoutWaiting) {
  // The pool's only worker is blocked, so the partner's task sits queued.
  // both() must take b back and run it on the caller instead of waiting;
  // the watchdog frees the worker after 10 s, so a regression that waits
  // fails (b would then run on the worker) rather than hanging.
  ThreadPool pool(1);
  std::latch release(1);
  std::atomic<bool> returned{false};
  auto blocker = pool.submit([&] { release.wait(); });
  std::thread watchdog([&] {
    for (int i = 0; i < 1000 && !returned.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    release.count_down();
  });
  std::thread::id b_thread;
  bool shared = true;
  {
    Partner partner(&pool);
    shared = partner.both([] {},
                          [&] { b_thread = std::this_thread::get_id(); });
    returned.store(true);
  }  // destroyed before its task ever starts: the task must see the stop
  watchdog.join();
  blocker.get();
  EXPECT_FALSE(shared);
  EXPECT_EQ(b_thread, std::this_thread::get_id());
}

TEST(PartnerTest, ExceptionFromAArrivesOnlyAfterBFinished) {
  ThreadPool pool(2);
  for (ThreadPool* helpers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Partner partner(helpers);
    bool b_done = false;
    EXPECT_THROW(partner.both([] { throw std::runtime_error("a"); },
                              [&] {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(20));
                                b_done = true;
                              }),
                 std::runtime_error);
    EXPECT_TRUE(b_done);
    // The slot is reset: the partner keeps working after a throw.
    int a_after = 0;
    int b_after = 0;
    (void)partner.both([&] { ++a_after; }, [&] { ++b_after; });
    EXPECT_EQ(a_after + b_after, 2);
  }
}

TEST(PartnerTest, ExceptionFromBArrivesOnlyAfterAFinished) {
  ThreadPool pool(2);
  for (ThreadPool* helpers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Partner partner(helpers);
    bool a_done = false;
    EXPECT_THROW(partner.both(
                     [&] {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(20));
                       a_done = true;
                     },
                     [] { throw std::logic_error("b"); }),
                 std::logic_error);
    EXPECT_TRUE(a_done);
    int a_after = 0;
    int b_after = 0;
    (void)partner.both([&] { ++a_after; }, [&] { ++b_after; });
    EXPECT_EQ(a_after + b_after, 2);
  }
}

TEST(PartnerTest, WhenBothThrowTheCallerSeesA) {
  ThreadPool pool(2);
  Partner partner(&pool);
  EXPECT_THROW(partner.both([] { throw std::runtime_error("a"); },
                            [] { throw std::logic_error("b"); }),
               std::runtime_error);
}

TEST(PartnerTest, TenThousandForksOnOneAndFourWorkers) {
  constexpr std::size_t kForks = 10000;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    Partner partner(&pool);
    std::vector<int> a_hits(kForks, 0);
    std::vector<int> b_hits(kForks, 0);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < kForks; ++i) {
      shared += partner.both([&] { ++a_hits[i]; }, [&] { ++b_hits[i]; });
    }
    EXPECT_EQ(std::accumulate(a_hits.begin(), a_hits.end(), 0),
              static_cast<int>(kForks));
    EXPECT_EQ(std::accumulate(b_hits.begin(), b_hits.end(), 0),
              static_cast<int>(kForks));
    EXPECT_TRUE(std::all_of(b_hits.begin(), b_hits.end(),
                            [](int hits) { return hits == 1; }));
    EXPECT_LE(shared, kForks);
  }
}

}  // namespace
TEST(PartnerTest, SplitsInTwoAtAlignedHalvesOnlyWithAPool) {
  ThreadPool pool(1);
  Partner serial;
  Partner helped(&pool);
  EXPECT_EQ(serial.parts(), 1u);
  EXPECT_EQ(helped.parts(), 2u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{9},
                              std::size_t{63}, std::size_t{64}}) {
    const Partner::Range whole = serial.range(0, n, 4);
    EXPECT_EQ(whole.begin, 0u);
    EXPECT_EQ(whole.end, n);
    const Partner::Range first = helped.range(0, n, 4);
    const Partner::Range second = helped.range(1, n, 4);
    EXPECT_EQ(first.begin, 0u);
    EXPECT_EQ(first.end % 4, 0u) << n;
    EXPECT_LE(first.end, n / 2) << n;
    EXPECT_EQ(second.begin, first.end);
    EXPECT_EQ(second.end, n);
  }
  EXPECT_EQ(helped.range(0, 64, 4).end, 32u);
  EXPECT_EQ(helped.range(0, 41, 4).end, 20u);
  EXPECT_EQ(helped.range(0, 1152, 8).end, 576u);

  // each_part runs every part once, part 0 on the caller.
  for (Partner* partner : {&serial, &helped}) {
    std::vector<int> ran(2, 0);
    std::thread::id first_thread;
    partner->each_part([&](std::size_t part) {
      ++ran[part];
      if (part == 0) first_thread = std::this_thread::get_id();
    });
    EXPECT_EQ(ran[0], 1);
    EXPECT_EQ(ran[1], partner->parts() == 2 ? 1 : 0);
    EXPECT_EQ(first_thread, std::this_thread::get_id());
  }
}

TEST(PartnerTest, CountsTheForksItsWorkerRan) {
  ThreadPool pool(1);
  for (ThreadPool* helpers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Partner partner(helpers);
    std::size_t shared = 0;
    for (int i = 0; i < 50; ++i) {
      shared += partner.both([] {}, [] {}) ? 1u : 0u;
    }
    partner.each_part([](std::size_t) {});
    if (helpers == nullptr) {
      EXPECT_EQ(partner.forks_shared(), 0u);
    } else {
      EXPECT_GE(partner.forks_shared(), shared);
      EXPECT_LE(partner.forks_shared(), shared + 1);
    }
  }
}

}  // namespace deepcat::common
