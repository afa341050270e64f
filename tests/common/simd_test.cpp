// Property tests for the SIMD dispatch layer: every vectorized double
// primitive must match a naive scalar reference within 1e-12, and every
// float one within its float bound, across odd lengths (0, 1,
// non-multiples of the vector width); force_backend() must actually switch
// the backend, and the per-thread dispatch counters must add up.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace deepcat::common::simd {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

std::vector<float> random_fvec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

constexpr auto kFloatEps = static_cast<double>(FLT_EPSILON);

// Plain accumulation-order references, independent of the library kernels.
double ref_dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ref_sqdist(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

// Odd lengths around the 4-lane / 16-element unroll boundaries.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                31, 32, 33, 63, 64, 65, 100, 1023};

class BackendGuard {
 public:
  BackendGuard() { force_backend(Backend::kAvx512); }
  ~BackendGuard() { force_backend(Backend::kAvx512); }
};

// Every tier selectable in this process, lowest first — the loops below
// compare each against the scalar reference.
std::vector<Backend> selectable_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (backend_selectable(b)) out.push_back(b);
  }
  return out;
}

TEST(SimdTest, BackendNameMatchesActiveState) {
  BackendGuard guard;
  EXPECT_STREQ(backend_name(), backend_label(active_backend()));
  if (vectorized_active()) {
    EXPECT_NE(active_backend(), Backend::kScalar);
  } else {
    EXPECT_STREQ(backend_name(), "scalar");
  }
  force_backend(Backend::kScalar);
  EXPECT_FALSE(vectorized_active());
  EXPECT_STREQ(backend_name(), "scalar");
}

TEST(SimdTest, LadderOrderAndLabelsAreStable) {
  BackendGuard guard;
  EXPECT_STREQ(backend_label(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_label(Backend::kAvx2), "avx2+fma");
  EXPECT_STREQ(backend_label(Backend::kAvx512), "avx512");
  // scalar is always selectable; the ladder string starts with it.
  EXPECT_TRUE(backend_selectable(Backend::kScalar));
  EXPECT_EQ(std::string(isa_ladder()).rfind("scalar", 0), 0u);
  // max_backend caps active_backend, and detection never reports a tier
  // the compile flags exclude.
  EXPECT_LE(static_cast<int>(active_backend()),
            static_cast<int>(max_backend()));
  EXPECT_LE(static_cast<int>(max_backend()),
            static_cast<int>(detected_backend()));
  if (!vector_compiled()) {
    EXPECT_EQ(detected_backend(), Backend::kScalar);
  }
}

TEST(SimdTest, ForceBackendClampsToSelectableTiers) {
  BackendGuard guard;
  for (Backend b : selectable_backends()) {
    force_backend(b);
    EXPECT_EQ(active_backend(), b) << backend_label(b);
    EXPECT_STREQ(backend_name(), backend_label(b));
  }
  // Requesting a tier above the process cap clamps to the cap instead of
  // activating an unsupported kernel set.
  force_backend(Backend::kAvx512);
  EXPECT_EQ(active_backend(), max_backend());
}

TEST(SimdTest, DispatchCountsFollowTheActiveTier) {
  BackendGuard guard;
  Rng rng(17);
  const std::size_t m = 8, n = 8, k = 8;
  const auto a = random_fvec(m * k, rng);
  const auto b = random_fvec(k * n, rng);
  std::vector<float> c(m * n, 0.0f);
  for (Backend be : selectable_backends()) {
    force_backend(be);
    reset_dispatch_counts();
    gemm_nn(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    const DispatchCounts counts = dispatch_counts();
    const unsigned long long expected_scalar =
        be == Backend::kScalar ? 1ull : 0ull;
    const unsigned long long expected_avx2 =
        be == Backend::kAvx2 ? 1ull : 0ull;
    const unsigned long long expected_avx512 =
        be == Backend::kAvx512 ? 1ull : 0ull;
    EXPECT_EQ(counts.scalar_calls, expected_scalar) << backend_label(be);
    EXPECT_EQ(counts.avx2_calls, expected_avx2) << backend_label(be);
    EXPECT_EQ(counts.avx512_calls, expected_avx512) << backend_label(be);
  }
  force_backend(Backend::kAvx512);
  reset_dispatch_counts();
}

// Each thread counts in its own slot; dispatch_counts() sums them all, so
// four threads making N GEMM calls each add exactly 4N on the active tier.
TEST(SimdTest, DispatchCountsSumEveryThreadsCalls) {
  BackendGuard guard;
  constexpr std::size_t kThreads = 4;
  constexpr unsigned long long kCalls = 1000;
  Rng rng(18);
  const auto a = random_fvec(4 * 16, rng);
  const auto b = random_fvec(16 * 16, rng);
  reset_dispatch_counts();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, &b] {
      std::vector<float> c(4 * 16, 0.0f);
      for (unsigned long long i = 0; i < kCalls; ++i) {
        gemm_nn(4, 16, 16, a.data(), 16, b.data(), 16, c.data(), 16);
      }
    });
  }
  for (auto& th : threads) th.join();
  const DispatchCounts counts = dispatch_counts();
  const unsigned long long total = kThreads * kCalls;
  const Backend be = active_backend();
  EXPECT_EQ(counts.scalar_calls, be == Backend::kScalar ? total : 0ull);
  EXPECT_EQ(counts.avx2_calls, be == Backend::kAvx2 ? total : 0ull);
  EXPECT_EQ(counts.avx512_calls, be == Backend::kAvx512 ? total : 0ull);
  reset_dispatch_counts();
  const DispatchCounts zero = dispatch_counts();
  EXPECT_EQ(zero.scalar_calls + zero.avx2_calls + zero.avx512_calls, 0ull);
}

TEST(SimdTest, DotMatchesReferenceAcrossOddLengths) {
  BackendGuard guard;
  Rng rng(11);
  for (std::size_t n : kLengths) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    const double expected = ref_dot(a.data(), b.data(), n);
    const double tol = 1e-12 * std::max(1.0, std::abs(expected));
    EXPECT_NEAR(dot(a.data(), b.data(), n), expected, tol) << "n=" << n;
    force_backend(Backend::kScalar);
    EXPECT_DOUBLE_EQ(dot(a.data(), b.data(), n), expected) << "n=" << n;
    force_backend(Backend::kAvx512);
  }
}

TEST(SimdTest, SquaredDistanceMatchesReference) {
  BackendGuard guard;
  Rng rng(12);
  for (std::size_t n : kLengths) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    const double expected = ref_sqdist(a.data(), b.data(), n);
    const double tol = 1e-12 * std::max(1.0, expected);
    EXPECT_NEAR(squared_distance(a.data(), b.data(), n), expected, tol)
        << "n=" << n;
  }
}

TEST(SimdTest, SumAndSumSquaresMatchReference) {
  BackendGuard guard;
  Rng rng(13);
  for (std::size_t n : kLengths) {
    const auto a = random_vec(n, rng);
    double ref_sum = 0.0, ref_sq = 0.0;
    for (double x : a) {
      ref_sum += x;
      ref_sq += x * x;
    }
    const double tol_sum = 1e-12 * std::max(1.0, std::abs(ref_sum));
    const double tol_sq = 1e-12 * std::max(1.0, ref_sq);
    EXPECT_NEAR(sum(a.data(), n), ref_sum, tol_sum) << "n=" << n;
    EXPECT_NEAR(sum_squares(a.data(), n), ref_sq, tol_sq) << "n=" << n;
  }
}

TEST(SimdTest, AxpyMatchesReference) {
  BackendGuard guard;
  Rng rng(14);
  for (std::size_t n : kLengths) {
    const auto x = random_vec(n, rng);
    const auto y0 = random_vec(n, rng);
    const double alpha = rng.normal();

    auto y_vec = y0;
    axpy(alpha, x.data(), y_vec.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = y0[i] + alpha * x[i];
      EXPECT_NEAR(y_vec[i], expected,
                  1e-12 * std::max(1.0, std::abs(expected)))
          << "n=" << n << " i=" << i;
    }
  }
}

// The float dot against a double reference: within (n + 2) * FLT_EPSILON
// * sum |a_i * b_i| on every tier.
TEST(SimdTest, FloatDotMeetsItsBoundOnEveryTier) {
  BackendGuard guard;
  Rng rng(21);
  for (std::size_t n : kLengths) {
    const auto a = random_fvec(n, rng);
    const auto b = random_fvec(n, rng);
    double exact = 0.0, abs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = static_cast<double>(a[i]) * static_cast<double>(b[i]);
      exact += p;
      abs += std::abs(p);
    }
    for (Backend be : selectable_backends()) {
      force_backend(be);
      EXPECT_NEAR(dot(a.data(), b.data(), n), exact,
                  static_cast<double>(n + 2) * kFloatEps * abs)
          << backend_label(be) << " n=" << n;
    }
  }
}

/// One Adam step in double from float inputs, and per element the bound a
/// float evaluation meets. Each moment blend rounds its two products and
/// their sum (or fuses one product into the sum), each within FLT_EPSILON / 2
/// of its result, so a stored moment is within 2 FLT_EPSILON of its terms'
/// magnitudes: |beta1 m| + |(1 - beta1) g| for m (its blend can cancel),
/// |beta2 v| + |(1 - beta2) g^2| for v. A first moment below FLT_MIN is
/// stored as +0 (the floor). The value's roundings (scale, the two moment
/// blends, the bias divides, sqrt, + eps, * lr, / and -) compound to under
/// 12 FLT_EPSILON of the update (with the first moment taken at its terms'
/// magnitude) plus one of the value.
struct AdamReference {
  std::vector<double> value, tol;
  std::vector<double> m, m_tol;
  std::vector<double> v, v_tol;
};

AdamReference adam_reference(const std::vector<float>& value,
                             const std::vector<float>& grad,
                             const std::vector<float>& m,
                             const std::vector<float>& v, double beta1,
                             double beta2, double bc1, double bc2, double lr,
                             double eps) {
  constexpr auto kFloatMin = static_cast<double>(FLT_MIN);
  AdamReference ref;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const auto g = static_cast<double>(grad[i]);
    const double m_term = beta1 * static_cast<double>(m[i]);
    const double v_term = beta2 * static_cast<double>(v[i]);
    double mi = m_term + (1.0 - beta1) * g;
    if (std::abs(mi) < kFloatMin) mi = 0.0;
    const double vi = v_term + (1.0 - beta2) * g * g;
    const double denom = std::sqrt(vi / bc2) + eps;
    const double next = static_cast<double>(value[i]) - lr * (mi / bc1) / denom;
    const double m_abs = std::abs(m_term) + std::abs((1.0 - beta1) * g);
    const double v_abs = std::abs(v_term) + std::abs((1.0 - beta2) * g * g);
    ref.value.push_back(next);
    ref.tol.push_back(12.0 * kFloatEps * lr * (m_abs / bc1) / denom +
                      kFloatEps * std::abs(next));
    ref.m.push_back(mi);
    ref.m_tol.push_back(2.0 * kFloatEps * m_abs);
    ref.v.push_back(vi);
    ref.v_tol.push_back(2.0 * kFloatEps * v_abs);
  }
  return ref;
}

/// Checks a float Adam step's value and both stored moments against the
/// double reference; a floored first moment must be stored as +0.
void expect_adam_matches(const std::vector<float>& value,
                         const std::vector<float>& m,
                         const std::vector<float>& v,
                         const AdamReference& want, const std::string& where) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const std::string at = where + " i=" + std::to_string(i);
    EXPECT_NEAR(value[i], want.value[i], want.tol[i]) << at;
    if (want.m[i] == 0.0) {
      EXPECT_EQ(m[i], 0.0f) << at;
      EXPECT_FALSE(std::signbit(m[i])) << at;
    } else {
      EXPECT_NEAR(m[i], want.m[i], want.m_tol[i]) << at;
    }
    EXPECT_NEAR(v[i], want.v[i], want.v_tol[i]) << at;
  }
}

TEST(SimdTest, AdamUpdateMatchesScalarBackendExactly) {
  // Both tiers evaluate the same float formula; each meets the float bound
  // of the double reference.
  BackendGuard guard;
  Rng rng(15);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{33}, std::size_t{257}}) {
    const auto value0 = random_fvec(n, rng);
    const auto m0 = random_fvec(n, rng);
    auto v0 = random_fvec(n, rng);
    for (float& x : v0) x = std::abs(x);  // second moment is non-negative
    const auto grad = random_fvec(n, rng);

    const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
    const double bc1 = 1.0 - std::pow(beta1, 7.0);
    const double bc2 = 1.0 - std::pow(beta2, 7.0);
    const auto f = [](double x) { return static_cast<float>(x); };
    // The reference uses the float-rounded hyperparameters the kernel sees.
    const auto d = [&f](double x) { return static_cast<double>(f(x)); };
    const AdamReference want =
        adam_reference(value0, grad, m0, v0, d(beta1), d(beta2), d(bc1),
                       d(bc2), d(lr), d(eps));

    for (Backend be : {Backend::kScalar, Backend::kAvx512}) {
      force_backend(be);
      auto value = value0;
      auto m = m0;
      auto v = v0;
      adam_update(value.data(), grad.data(), m.data(), v.data(), n, 1.0f,
                  f(beta1), f(beta2), f(bc1), f(bc2), f(lr), f(eps));
      expect_adam_matches(value, m, v, want,
                          std::string(backend_label(active_backend())) +
                              " n=" + std::to_string(n));
    }
  }
}

TEST(SimdTest, AllSelectableBackendsAgreeOnPrimitives) {
  // Every tier the process can select must meet the 1e-12 contract against
  // the plain-order references for the whole level-1 family.
  BackendGuard guard;
  Rng rng(19);
  for (std::size_t n : kLengths) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    const double ref_d = ref_dot(a.data(), b.data(), n);
    const double ref_sq = ref_sqdist(a.data(), b.data(), n);
    double ref_s = 0.0, ref_ss = 0.0;
    for (double x : a) {
      ref_s += x;
      ref_ss += x * x;
    }
    for (Backend be : selectable_backends()) {
      force_backend(be);
      EXPECT_NEAR(dot(a.data(), b.data(), n), ref_d,
                  1e-12 * std::max(1.0, std::abs(ref_d)))
          << backend_label(be) << " n=" << n;
      EXPECT_NEAR(squared_distance(a.data(), b.data(), n), ref_sq,
                  1e-12 * std::max(1.0, ref_sq))
          << backend_label(be) << " n=" << n;
      EXPECT_NEAR(sum(a.data(), n), ref_s,
                  1e-12 * std::max(1.0, std::abs(ref_s)))
          << backend_label(be) << " n=" << n;
      EXPECT_NEAR(sum_squares(a.data(), n), ref_ss,
                  1e-12 * std::max(1.0, ref_ss))
          << backend_label(be) << " n=" << n;
    }
    force_backend(Backend::kAvx512);
  }
}

TEST(SimdTest, AdamUpdateAgreesAcrossSelectableBackends) {
  BackendGuard guard;
  Rng rng(20);
  const std::size_t n = 257;
  const auto value0 = random_fvec(n, rng);
  auto m0 = random_fvec(n, rng);
  auto v0 = random_fvec(n, rng);
  for (float& x : v0) x = std::abs(x);
  auto grad = random_fvec(n, rng);
  // A dead unit's weight in the vector body and in the scalar tail: its
  // first moment shrinks below FLT_MIN and is floored to +0.
  for (const std::size_t i : {std::size_t{5}, n - 1}) {
    m0[i] = FLT_MIN * 1.05f;
    grad[i] = 0.0f;
  }
  const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
  const double bc1 = 1.0 - std::pow(beta1, 5.0);
  const double bc2 = 1.0 - std::pow(beta2, 5.0);
  const auto f = [](double x) { return static_cast<float>(x); };
  const auto d = [&f](double x) { return static_cast<double>(f(x)); };
  const AdamReference want =
      adam_reference(value0, grad, m0, v0, d(beta1), d(beta2), d(bc1), d(bc2),
                     d(lr), d(eps));

  for (Backend be : selectable_backends()) {
    force_backend(be);
    auto value = value0;
    auto m = m0;
    auto v = v0;
    adam_update(value.data(), grad.data(), m.data(), v.data(), n, 1.0f,
                f(beta1), f(beta2), f(bc1), f(bc2), f(lr), f(eps));
    expect_adam_matches(value, m, v, want, backend_label(be));
  }
  force_backend(Backend::kAvx512);
}

TEST(SimdTest, GemmDispatchesMatchScalarBackend) {
  // Direct scalar-vs-dispatch comparison at the gemm API level; shape
  // coverage (odd sizes, transposes, fused epilogues) lives in
  // tests/nn/kernels_test.cpp on top of the Tensor wrappers. Each tier is
  // within (k + 2) * FLT_EPSILON * (|c| + sum |a b|) of the exact sum, so
  // the two within twice that.
  BackendGuard guard;
  Rng rng(16);
  const std::size_t m = 5, n = 11, k = 7;
  const auto a = random_fvec(m * k, rng);
  const auto b = random_fvec(k * n, rng);
  std::vector<float> c_scalar(m * n, 0.5f), c_vector(m * n, 0.5f);

  force_backend(Backend::kScalar);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c_scalar.data(), n);
  force_backend(Backend::kAvx512);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c_vector.data(), n);

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double abs = 0.5;
      for (std::size_t p = 0; p < k; ++p) {
        abs += std::abs(static_cast<double>(a[i * k + p] * b[p * n + j]));
      }
      EXPECT_NEAR(c_vector[i * n + j], c_scalar[i * n + j],
                  2.0 * static_cast<double>(k + 2) * kFloatEps * abs)
          << "(" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace deepcat::common::simd
