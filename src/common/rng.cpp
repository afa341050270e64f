#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

namespace deepcat::common {

namespace {

constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>((*this)() % span);
}

std::size_t Rng::index(std::size_t n) noexcept {
  return static_cast<std::size_t>((*this)() % n);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

void Rng::normals(double* out, std::size_t n, double mean,
                  double stddev) noexcept {
  std::size_t i = 0;
  if (n > 0 && has_spare_) {
    has_spare_ = false;
    out[i++] = mean + stddev * spare_;
  }
  constexpr std::size_t kBlock = 64;
  double us[kBlock], vs[kBlock], ss[kBlock];
  while (i < n) {
    // normal()'s loop, without its branch: every candidate is stored, and
    // only an accepted one advances the count, so the next overwrites a
    // rejected one. It draws exactly the pairs normal() would.
    const std::size_t pairs = std::min(kBlock, (n - i + 1) / 2);
    std::size_t accepted = 0;
    while (accepted < pairs) {
      const double u = uniform(-1.0, 1.0);
      const double v = uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      us[accepted] = u;
      vs[accepted] = v;
      ss[accepted] = s;
      accepted += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
    }
    for (std::size_t p = 0; p < pairs; ++p) {
      const double s = ss[p];
      const double m = std::sqrt(-2.0 * std::log(s) / s);
      out[i++] = mean + stddev * (us[p] * m);
      spare_ = vs[p] * m;
      if (i < n) {
        out[i++] = mean + stddev * spare_;
      } else {
        has_spare_ = true;
      }
    }
  }
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::split() noexcept { return Rng((*this)() ^ 0xA5A5A5A55A5A5A5AULL); }

RngState Rng::state() const noexcept {
  RngState st;
  st.s = {s_[0], s_[1], s_[2], s_[3]};
  st.spare = spare_;
  st.has_spare = has_spare_;
  return st;
}

void Rng::restore(const RngState& state) noexcept {
  for (std::size_t i = 0; i < 4; ++i) s_[i] = state.s[i];
  spare_ = state.spare;
  has_spare_ = state.has_spare;
}

}  // namespace deepcat::common
