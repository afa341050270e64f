#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/math_util.hpp"

namespace deepcat::common {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread failed to start: the ones already running must be joined
    // before the vector destroys them, or ~thread calls std::terminate.
    {
      const std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const std::scoped_lock lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

/// Busy-wait step: a CPU pause for a bounded number of calls, then a yield,
/// so a spinner gives way on an oversubscribed host.
class Backoff {
 public:
  void pause() {
    if (spins_ < kSpinLimit) {
      ++spins_;
#if defined(__x86_64__)
      _mm_pause();
#else
      std::this_thread::yield();
#endif
    } else {
      std::this_thread::yield();
    }
  }
  void reset() { spins_ = 0; }

 private:
  static constexpr int kSpinLimit = 64;
  int spins_ = 0;
};

enum Slot : int { kIdle, kPosted, kClaimed, kDone };
enum Phase : int { kQueued, kServing, kStopping, kReturned };

std::exception_ptr run_caught(void (*fn)(void*), void* ctx) {
  try {
    fn(ctx);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

// The job slot's transitions: the caller posts (kIdle -> kPosted, release,
// after writing `job`); exactly one of the worker's claim (kPosted ->
// kClaimed) and the caller's take-back (kPosted -> kIdle) wins; the worker
// publishes kDone (release, after writing `error`), and the caller, having
// seen it (acquire), resets the slot to kIdle. `phase` tracks the borrowed
// worker: the task moves it kQueued -> kServing when it starts, and the
// partner's destructor sets kStopping, then waits for kReturned only if the
// task was serving (one that never started just returns when it does).
struct Partner::State {
  std::atomic<int> slot{kIdle};
  std::atomic<int> phase{kQueued};
  Job job{};
  std::exception_ptr error;
};

Partner::Partner(ThreadPool* pool) {
  if (pool == nullptr) return;
  state_ = std::make_shared<State>();
  (void)pool->submit([state = state_] {
    int queued = kQueued;
    if (!state->phase.compare_exchange_strong(queued, kServing,
                                              std::memory_order_acquire)) {
      return;  // the partner is gone already
    }
    Backoff backoff;
    while (state->phase.load(std::memory_order_acquire) == kServing) {
      int posted = kPosted;
      if (state->slot.load(std::memory_order_relaxed) == kPosted &&
          state->slot.compare_exchange_strong(posted, kClaimed,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
        state->error = run_caught(state->job.fn, state->job.ctx);
        state->slot.store(kDone, std::memory_order_release);
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    state->phase.store(kReturned, std::memory_order_release);
  });
}

Partner::~Partner() {
  // both() never returns with a job posted, so a serving worker is only
  // spinning: it sees kStopping at once, and the wait hands it back to the
  // pool before the caller goes on (a session admitted next finds it free).
  if (!state_) return;
  if (state_->phase.exchange(kStopping, std::memory_order_acq_rel) !=
      kServing) {
    return;
  }
  Backoff backoff;
  while (state_->phase.load(std::memory_order_acquire) != kReturned) {
    backoff.pause();
  }
}

bool Partner::fork(Job a, Job b) {
  State* s = state_.get();
  if (s != nullptr) {
    s->job = b;
    s->slot.store(kPosted, std::memory_order_release);
  }
  const std::exception_ptr a_error = run_caught(a.fn, a.ctx);
  std::exception_ptr b_error;
  int posted = kPosted;
  const bool shared =
      s != nullptr &&
      !s->slot.compare_exchange_strong(posted, kIdle,
                                       std::memory_order_relaxed);
  if (shared) {
    Backoff backoff;
    while (s->slot.load(std::memory_order_acquire) != kDone) backoff.pause();
    b_error = std::exchange(s->error, nullptr);
    s->slot.store(kIdle, std::memory_order_relaxed);
    ++forks_shared_;
  } else {
    b_error = run_caught(b.fn, b.ctx);
  }
  if (a_error) std::rethrow_exception(a_error);
  if (b_error) std::rethrow_exception(b_error);
  return shared;
}

}  // namespace deepcat::common
