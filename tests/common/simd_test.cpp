// Property tests for the SIMD dispatch layer: every vectorized primitive
// must match a naive scalar reference within 1e-12 across odd lengths
// (0, 1, non-multiples of the vector width), and force_backend() must
// actually switch the backend.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace deepcat::common::simd {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

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
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<double> c(m * n, 0.0);
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

TEST(SimdTest, AdamUpdateMatchesScalarBackendExactly) {
  // The vector path divides by the same bias-corrected denominators as the
  // scalar formula; per-element results must agree to ~1 ulp-scale noise.
  BackendGuard guard;
  Rng rng(15);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                        std::size_t{33}, std::size_t{257}}) {
    auto value_s = random_vec(n, rng);
    auto m_s = random_vec(n, rng);
    auto v_s = random_vec(n, rng);
    for (double& x : v_s) x = std::abs(x);  // second moment is non-negative
    const auto grad = random_vec(n, rng);
    auto value_v = value_s;
    auto m_v = m_s;
    auto v_v = v_s;

    const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
    const double bc1 = 1.0 - std::pow(beta1, 7.0);
    const double bc2 = 1.0 - std::pow(beta2, 7.0);

    force_backend(Backend::kScalar);
    adam_update(value_s.data(), grad.data(), m_s.data(), v_s.data(), n, 1.0,
                beta1, beta2, bc1, bc2, lr, eps);
    force_backend(Backend::kAvx512);
    adam_update(value_v.data(), grad.data(), m_v.data(), v_v.data(), n, 1.0,
                beta1, beta2, bc1, bc2, lr, eps);

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(value_v[i], value_s[i],
                  1e-12 * std::max(1.0, std::abs(value_s[i])))
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(m_v[i], m_s[i], 1e-12) << "n=" << n << " i=" << i;
      EXPECT_NEAR(v_v[i], v_s[i], 1e-12) << "n=" << n << " i=" << i;
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
  const auto value0 = random_vec(n, rng);
  const auto m0 = random_vec(n, rng);
  auto v0 = random_vec(n, rng);
  for (double& x : v0) x = std::abs(x);
  const auto grad = random_vec(n, rng);
  const double beta1 = 0.9, beta2 = 0.999, lr = 1e-3, eps = 1e-8;
  const double bc1 = 1.0 - std::pow(beta1, 5.0);
  const double bc2 = 1.0 - std::pow(beta2, 5.0);

  force_backend(Backend::kScalar);
  auto value_ref = value0;
  auto m_ref = m0;
  auto v_ref = v0;
  adam_update(value_ref.data(), grad.data(), m_ref.data(), v_ref.data(), n,
              1.0, beta1, beta2, bc1, bc2, lr, eps);

  for (Backend be : selectable_backends()) {
    force_backend(be);
    auto value = value0;
    auto m = m0;
    auto v = v0;
    adam_update(value.data(), grad.data(), m.data(), v.data(), n, 1.0, beta1,
                beta2, bc1, bc2, lr, eps);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(value[i], value_ref[i],
                  1e-12 * std::max(1.0, std::abs(value_ref[i])))
          << backend_label(be) << " i=" << i;
      EXPECT_NEAR(m[i], m_ref[i], 1e-12) << backend_label(be) << " i=" << i;
      EXPECT_NEAR(v[i], v_ref[i], 1e-12) << backend_label(be) << " i=" << i;
    }
  }
  force_backend(Backend::kAvx512);
}

TEST(SimdTest, GemmDispatchesMatchScalarBackend) {
  // Direct scalar-vs-dispatch comparison at the gemm API level; shape
  // coverage (odd sizes, transposes, fused epilogues) lives in
  // tests/nn/kernels_test.cpp on top of the Matrix wrappers.
  BackendGuard guard;
  Rng rng(16);
  const std::size_t m = 5, n = 11, k = 7;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<double> c_scalar(m * n, 0.5), c_vector(m * n, 0.5);

  force_backend(Backend::kScalar);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c_scalar.data(), n);
  force_backend(Backend::kAvx512);
  gemm_nn(m, n, k, a.data(), k, b.data(), n, c_vector.data(), n);

  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_vector[i], c_scalar[i],
                1e-12 * std::max(1.0, std::abs(c_scalar[i])))
        << "i=" << i;
  }
}

}  // namespace
}  // namespace deepcat::common::simd
