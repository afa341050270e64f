// Deterministic, seedable pseudo-random number generation for the whole
// library. Every stochastic component (NN init, exploration noise, simulator
// jitter, replay sampling) draws from an explicitly seeded Rng so that
// experiments are reproducible bit-for-bit across runs.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace deepcat::common {

/// The full serializable state of an Rng: the four xoshiro lanes plus the
/// Marsaglia-polar spare cache. Restoring it resumes the stream exactly
/// where it left off — the checkpoint layer depends on this to make
/// save→load→tune bit-identical to tune-without-save.
struct RngState {
  std::array<std::uint64_t, 4> s{};
  double spare = 0.0;
  bool has_spare = false;
};

/// SplitMix64 finalizer over `base ^ index`. Gives every loop index its own
/// well-mixed 64-bit seed so parallel_for bodies can build a private Rng per
/// index: results then depend only on (base, index), never on which thread
/// ran the index or how the pool chunked the loop.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t base,
                                               std::uint64_t index) noexcept {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation), wrapped in a value-semantic class. Satisfies
/// UniformRandomBitGenerator so it can drive <random> distributions,
/// although we provide our own distribution helpers to guarantee identical
/// streams across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64, which is the
  /// canonical way to expand a single word into a full xoshiro state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit word.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Uniform index in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

  /// Standard normal via Marsaglia polar method (cached spare).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// out[i] = normal(mean, stddev) for i in [0, n), in order: the same
  /// values, the same draws and the same state after (a pair's second
  /// value left as the spare, and once handed out, left stale in it, as
  /// normal() leaves it). Candidate pairs are drawn in blocks with a
  /// branch-free acceptance test, then the accepted pairs take their logs.
  void normals(double* out, std::size_t n, double mean,
               double stddev) noexcept;

  /// Bernoulli draw with probability `p` of true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      using std::swap;
      swap(v[i], v[index(i + 1)]);
    }
  }

  /// Derives an independent child stream; used to hand each worker thread
  /// or sub-component its own generator without sharing state.
  [[nodiscard]] Rng split() noexcept;

  /// Snapshot / exact-resume of the generator state.
  [[nodiscard]] RngState state() const noexcept;
  void restore(const RngState& state) noexcept;

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace deepcat::common
