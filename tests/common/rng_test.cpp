#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace deepcat::common {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng rng(0);
  // The all-zero state is forbidden for xoshiro; seeding must avoid it.
  std::uint64_t x = rng();
  for (int i = 0; i < 10; ++i) x |= rng();
  EXPECT_NE(x, 0u);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 7.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.5);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, IndexStaysBelowN) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

// normals(out, n, mean, stddev) is n calls of normal(mean, stddev): every
// value bit for bit, and the whole state after, lanes and spare both. That
// includes the stale spare normal() leaves once it has handed a pair's
// second draw out, which checkpoints and the Twin-Q screen's state restores
// carry. Both spare states are covered: a fresh generator has none, and one
// that has drawn an odd number of normals holds one.
TEST(RngTest, NormalsEqualOneCallAtATime) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const bool spare : {false, true}) {
    for (std::size_t n = 0; n <= 300; ++n) {
      SCOPED_TRACE("spare " + std::to_string(spare) + ", n " +
                   std::to_string(n));
      Rng one(1000 + n), batched(1000 + n);
      if (spare) {
        (void)one.normal();
        (void)batched.normal();
      }
      const double mean = 0.25;
      const double stddev = n % 2 == 0 ? 0.2 : 1.5;
      std::vector<double> want(n), got(n + 1, -7.0);
      for (double& x : want) x = one.normal(mean, stddev);
      batched.normals(got.data(), n, mean, stddev);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(got[i]), bits(want[i])) << "at " << i;
      }
      EXPECT_EQ(got[n], -7.0);  // nothing written past the end
      const RngState a = one.state();
      const RngState b = batched.state();
      EXPECT_EQ(a.s, b.s);
      EXPECT_EQ(bits(a.spare), bits(b.spare));
      EXPECT_EQ(a.has_spare, b.has_spare);
      // The streams go on as one.
      EXPECT_EQ(bits(one.normal()), bits(batched.normal()));
      EXPECT_EQ(one(), batched());
    }
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
    sum3 += z * z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
  EXPECT_NEAR(sum3 / n, 0.0, 0.05);  // symmetry
}

TEST(RngTest, NormalWithParams) {
  Rng rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal(10.0, 2.0);
    sum += z;
    sum2 += z * z;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateProbabilities) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), original.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleHandlesTinyVectors) {
  Rng rng(37);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one.front(), 42);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 3);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  (void)rng();
}

}  // namespace
}  // namespace deepcat::common
