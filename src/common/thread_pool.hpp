// Fixed-size thread pool with parallel_for/parallel_map helpers. The
// experiment harnesses use it to evaluate independent work items
// concurrently (Fig. 2's 200 random configs, Fig. 6/7's workload sweeps,
// repeated-seed loops). Partner borrows one idle worker to run a pair of
// independent passes side by side (the TD3 train step's twin critics), or
// one pass split in two (the actor update's rows and elements). All
// parallelism in the library is explicit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/math_util.hpp"

namespace deepcat::common {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future surfaces exceptions to the caller.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n), blocking until all complete.
  ///
  /// Work is block-partitioned into at most size() contiguous chunks — one
  /// task per worker, not one per index — and fn is invoked directly (no
  /// per-index std::function hop). Within a chunk, indices run in
  /// increasing order on a single worker thread.
  ///
  /// Thread-safety contract for `fn`: it is called concurrently from
  /// multiple worker threads with distinct indices. It must not mutate
  /// shared state without synchronization; writing to disjoint per-index
  /// slots (e.g. out[i]) is safe. For deterministic results independent of
  /// the pool size, derive all randomness from the index (see mix_seed in
  /// common/rng.hpp) instead of sharing an RNG across indices.
  ///
  /// Exceptions: a throwing chunk skips its own remaining indices, but the
  /// other chunks are never cancelled — all are awaited. If several chunks
  /// throw, the earliest-submitted chunk's exception is rethrown here.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (n == 1) {  // run inline: nothing to overlap, skip the queue
      fn(std::size_t{0});
      return;
    }
    const std::size_t chunks = std::min(n, size());
    const std::size_t per_chunk = ceil_div(n, chunks);
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      const std::size_t end = std::min(n, begin + per_chunk);
      futures.push_back(submit([&fn, begin, end] {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }));
    }
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Borrows one worker of a pool for its lifetime and runs pairs of
/// independent tasks side by side: both(a, b) runs a on the caller while
/// the worker runs b.
///
/// The constructor submits one task that spins on an atomic job slot until
/// the partner is destroyed; the destructor waits for a started task to
/// leave its loop, so the worker is back in the pool when it returns. The
/// task shares its state through a shared_ptr, so one that starts late
/// finds the partner gone and returns. both() posts b, runs a, then tries to
/// take b back: if the worker has not claimed b yet, the caller runs b
/// itself, otherwise it spins until the worker is done. Nothing ever waits
/// on a queued task, so a busy pool (or a caller on one of its own workers)
/// costs only the serial time and cannot deadlock. With no pool, both()
/// runs a then b on the caller.
///
/// A split pass runs as parts(): two with a borrowed worker, split at
/// range(), one covering everything without. How many parts a pass runs
/// as depends only on whether a pool was given, never on whether the
/// worker claimed a branch, so the results are the same either way.
///
/// Meant for a pool that is otherwise idle: while a partner lives, its
/// worker is busy spinning (a few _mm_pause, then yielding). One thread
/// calls both() at a time.
class Partner {
 public:
  /// `pool == nullptr` means no helper.
  explicit Partner(ThreadPool* pool = nullptr);
  ~Partner();

  Partner(const Partner&) = delete;
  Partner& operator=(const Partner&) = delete;

  /// Runs a() and b() once each, a on the calling thread. Returns true when
  /// b ran on the borrowed worker. If either throws, the exception reaches
  /// the caller only after both have finished (a's first if both throw).
  template <typename A, typename B>
  bool both(A&& a, B&& b) {
    return fork({&invoke<A>, &a}, {&invoke<B>, &b});
  }

  /// 2 with a borrowed worker, 1 without.
  [[nodiscard]] std::size_t parts() const noexcept { return state_ ? 2 : 1; }

  /// Runs part(i) for every i < parts(): part(0) and part(1) through
  /// both(), or part(0) alone.
  template <typename Part>
  void each_part(Part&& part) {
    if (parts() == 1) {
      part(std::size_t{0});
      return;
    }
    both([&] { part(std::size_t{0}); }, [&] { part(std::size_t{1}); });
  }

  /// The half-open index range [begin, end) of one part.
  struct Range {
    std::size_t begin;
    std::size_t end;
  };
  /// Part `index` of [0, n): all of it as the one part; of two, the first
  /// ends at n / 2 rounded down to a multiple of `align`. Aligned to a
  /// kernel's row block or vector width, every element then takes the
  /// path it takes in one call over [0, n).
  [[nodiscard]] Range range(std::size_t index, std::size_t n,
                            std::size_t align) const noexcept {
    if (parts() == 1) return {0, n};
    const std::size_t cut = n / 2 / align * align;
    return index == 0 ? Range{0, cut} : Range{cut, n};
  }

  /// Forks whose second branch ran on the borrowed worker so far.
  [[nodiscard]] std::size_t forks_shared() const noexcept {
    return forks_shared_;
  }

 private:
  struct Job {
    void (*fn)(void*);
    void* ctx;
  };
  template <typename F>
  static void invoke(void* f) {
    (*static_cast<std::remove_reference_t<F>*>(f))();
  }
  bool fork(Job a, Job b);

  struct State;  // shared with the borrowed worker's task
  std::shared_ptr<State> state_;
  std::size_t forks_shared_ = 0;  // the calling thread's alone
};

/// Evaluates fn(i) for i in [0, n) on the pool and returns the results
/// indexed by i. Because each result lands in its own slot and fn should
/// depend only on i (per-index seeding), the returned vector is identical
/// for any pool size — the harness determinism guarantee rests on this.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace deepcat::common
