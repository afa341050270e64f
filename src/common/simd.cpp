#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if (defined(__x86_64__) || defined(__amd64__)) && defined(__GNUC__) && \
    !defined(DEEPCAT_DISABLE_SIMD)
#define DEEPCAT_SIMD_X86 1
#include <immintrin.h>
#else
#define DEEPCAT_SIMD_X86 0
#endif

#if DEEPCAT_SIMD_X86
#define DEEPCAT_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define DEEPCAT_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma")))
#endif

namespace deepcat::common::simd {

namespace {

constexpr Backend min_backend(Backend a, Backend b) noexcept {
  return static_cast<int>(a) < static_cast<int>(b) ? a : b;
}

Backend detect_cpu_backend() noexcept {
#if DEEPCAT_SIMD_X86
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return Backend::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend::kAvx2;
  }
#endif
  return Backend::kScalar;
}

// Environment cap, read once at static init: DEEPCAT_SIMD names the
// highest tier the process may use. Unknown values leave the ladder
// uncapped.
Backend parse_env_cap() noexcept {
  Backend cap = Backend::kAvx512;
  if (const char* v = std::getenv("DEEPCAT_SIMD"); v != nullptr) {
    if (std::strcmp(v, "scalar") == 0) cap = Backend::kScalar;
    else if (std::strcmp(v, "avx2") == 0) cap = Backend::kAvx2;
    else if (std::strcmp(v, "avx512") == 0) cap = Backend::kAvx512;
  }
  return cap;
}

// CPU capability and the env cap are fixed at static init; the
// programmatic cap (force_backend) layers on top and can only lower
// dispatch below g_max_backend.
const Backend g_detected_backend = detect_cpu_backend();
const Backend g_max_backend = min_backend(g_detected_backend, parse_env_cap());
Backend g_forced_cap = Backend::kAvx512;

// Dispatch accounting for the chunky kernels (GEMM family + Adam).
// Relaxed single atomics, not stripes: these kernels run for microseconds
// per call, so one fetch_add per call is noise.
std::atomic<unsigned long long> g_scalar_calls{0};
std::atomic<unsigned long long> g_avx2_calls{0};
std::atomic<unsigned long long> g_avx512_calls{0};

inline void count_dispatch(Backend be) noexcept {
  switch (be) {
    case Backend::kAvx512:
      g_avx512_calls.fetch_add(1, std::memory_order_relaxed);
      break;
    case Backend::kAvx2:
      g_avx2_calls.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      g_scalar_calls.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

// ---- scalar reference kernels ------------------------------------------

double dot_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double squared_distance_scalar(const double* a, const double* b,
                               std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double sum_scalar(const double* a, std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i];
  return s;
}

void axpy_scalar(double alpha, const double* x, double* y,
                 std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void relu_scalar(double* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void relu_mask_scalar(double* g, const double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] <= 0.0) g[i] = 0.0;
  }
}

// kUnitBc1: bc1 == 1.0, where m / bc1 is m itself for every double (signed
// zeros, subnormals, infinities and NaN included), so the divide is
// skipped. 1 - 0.9^t rounds to exactly 1.0 from t = 356 on. Out of line:
// the vector tiers hand it their tails, and inlined there its a * b + c
// would contract to FMA and change those elements' bits.
template <bool kUnitBc1>
[[gnu::noinline]] void adam_update_scalar(double* value, const double* grad,
                                          double* m, double* v, std::size_t n,
                                          double scale, double beta1,
                                          double beta2, double bc1, double bc2,
                                          double lr, double eps) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double g = grad[i] * scale;
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double m_hat = kUnitBc1 ? m[i] : m[i] / bc1;
    const double v_hat = v[i] / bc2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

void gemm_nn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  // ikj order streams B and C rows; the zero-skip makes post-ReLU
  // (sparse) left operands cheap.
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * ldc;
    const double* arow = a + i * lda;
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = arow[p];
      if (aip == 0.0) continue;
      const double* brow = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

void gemm_tn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  for (std::size_t p = 0; p < k; ++p) {
    const double* arow = a + p * lda;
    const double* brow = b + p * ldb;
    for (std::size_t i = 0; i < m; ++i) {
      const double api = arow[i];
      if (api == 0.0) continue;
      double* crow = c + i * ldc;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

void gemm_nt_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] += dot_scalar(arow, b + j * ldb, k);
    }
  }
}

// Shared cosine epilogue — the identical scalar formula on every tier, so
// cross-tier divergence comes only from the three reductions feeding it.
inline double cosine_from_parts(double qq, double rr, double qr) noexcept {
  const double denom = std::sqrt(qq * rr);
  if (denom == 0.0) return 1.0;
  return 1.0 - qr / denom;
}

void squared_distances_scalar(const double* query, const double* rows,
                              std::size_t n_rows, std::size_t dim,
                              double* out) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = squared_distance_scalar(query, rows + r * dim, dim);
  }
}

void cosine_distances_scalar(const double* query, const double* rows,
                             std::size_t n_rows, std::size_t dim,
                             double* out) noexcept {
  const double qq = dot_scalar(query, query, dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * dim;
    out[r] = cosine_from_parts(qq, dot_scalar(row, row, dim),
                               dot_scalar(query, row, dim));
  }
}

#if DEEPCAT_SIMD_X86

// ---- AVX2+FMA kernels ---------------------------------------------------

DEEPCAT_TARGET_AVX2 inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

DEEPCAT_TARGET_AVX2 double dot_avx2(const double* a, const double* b,
                                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                           _mm256_loadu_pd(b + i), acc0);
  }
  double s = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

DEEPCAT_TARGET_AVX2 double squared_distance_avx2(const double* a,
                                                 const double* b,
                                                 std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

DEEPCAT_TARGET_AVX2 void squared_distances_avx2(const double* query,
                                                const double* rows,
                                                std::size_t n_rows,
                                                std::size_t dim,
                                                double* out) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = squared_distance_avx2(query, rows + r * dim, dim);
  }
}

DEEPCAT_TARGET_AVX2 void cosine_distances_avx2(const double* query,
                                               const double* rows,
                                               std::size_t n_rows,
                                               std::size_t dim,
                                               double* out) noexcept {
  const double qq = dot_avx2(query, query, dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * dim;
    out[r] = cosine_from_parts(qq, dot_avx2(row, row, dim),
                               dot_avx2(query, row, dim));
  }
}

DEEPCAT_TARGET_AVX2 double sum_avx2(const double* a, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i];
  return s;
}

DEEPCAT_TARGET_AVX2 void axpy_avx2(double alpha, const double* x, double* y,
                                   std::size_t n) noexcept {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

// max_pd(x, 0) returns its second operand unless x > 0, so NaN and -0.0
// become +0.0 exactly as in the scalar `x > 0 ? x : 0` — without the
// compare-and-branch GCC emits for that expression on mixed-sign data.
DEEPCAT_TARGET_AVX2 void relu_avx2(double* x, std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
  }
  for (; i < n; ++i) {
    _mm_store_sd(x + i, _mm_max_sd(_mm_load_sd(x + i), _mm_setzero_pd()));
  }
}

// Ordered <= compare: a NaN output keeps its gradient, as in the scalar
// `if (y <= 0) g = 0`.
DEEPCAT_TARGET_AVX2 void relu_mask_avx2(double* g, const double* y,
                                        std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dead =
        _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_LE_OQ);
    _mm256_storeu_pd(g + i, _mm256_andnot_pd(dead, _mm256_loadu_pd(g + i)));
  }
  for (; i < n; ++i) {
    if (y[i] <= 0.0) g[i] = 0.0;
  }
}

template <bool kUnitBc1>
DEEPCAT_TARGET_AVX2 void adam_update_avx2(
    double* value, const double* grad, double* m, double* v, std::size_t n,
    double scale, double beta1, double beta2, double bc1, double bc2,
    double lr, double eps) noexcept {
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vb1 = _mm256_set1_pd(beta1);
  const __m256d vb2 = _mm256_set1_pd(beta2);
  const __m256d vomb1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d vomb2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grad + i), vscale);
    const __m256d mi = _mm256_fmadd_pd(vb1, _mm256_loadu_pd(m + i),
                                       _mm256_mul_pd(vomb1, g));
    const __m256d vi = _mm256_fmadd_pd(vb2, _mm256_loadu_pd(v + i),
                                       _mm256_mul_pd(vomb2, _mm256_mul_pd(g, g)));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d m_hat = kUnitBc1 ? mi : _mm256_div_pd(mi, vbc1);
    const __m256d v_hat = _mm256_div_pd(vi, vbc2);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), veps);
    const __m256d update =
        _mm256_div_pd(_mm256_mul_pd(vlr, m_hat), denom);
    _mm256_storeu_pd(value + i,
                     _mm256_sub_pd(_mm256_loadu_pd(value + i), update));
  }
  if (i < n) {
    adam_update_scalar<kUnitBc1>(value + i, grad + i, m + i, v + i, n - i,
                                 scale, beta1, beta2, bc1, bc2, lr, eps);
  }
}

// gemm_nn columns [j0, n) that no vector tile covers, for 4 rows: each
// output keeps its own sequential ascending-k chain (s += a*b from 0, then
// added to C), but the four chains run side by side so the FMA latency
// overlaps. This is the critic's n=1 output layer. Inlined into each tier,
// so the chains contract to FMA there, like the one-row path's chain.
[[gnu::always_inline]] inline void nn_tail_4rows(
    std::size_t n, std::size_t k, std::size_t j0, const double* a0,
    const double* a1, const double* a2, const double* a3, const double* b,
    std::size_t ldb, double* c, std::size_t ldc) noexcept {
  for (std::size_t j = j0; j < n; ++j) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      const double bv = b[p * ldb + j];
      s0 += a0[p] * bv;
      s1 += a1[p] * bv;
      s2 += a2[p] * bv;
      s3 += a3[p] * bv;
    }
    c[j] += s0;
    c[ldc + j] += s1;
    c[2 * ldc + j] += s2;
    c[3 * ldc + j] += s3;
  }
}

// 4x8 register-blocked micro-kernel: 8 accumulator registers stay resident
// across the whole k loop; A elements are broadcast, B rows are streamed.
DEEPCAT_TARGET_AVX2 void gemm_nn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + (i + 0) * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c00 = _mm256_loadu_pd(c + (i + 0) * ldc + j);
      __m256d c01 = _mm256_loadu_pd(c + (i + 0) * ldc + j + 4);
      __m256d c10 = _mm256_loadu_pd(c + (i + 1) * ldc + j);
      __m256d c11 = _mm256_loadu_pd(c + (i + 1) * ldc + j + 4);
      __m256d c20 = _mm256_loadu_pd(c + (i + 2) * ldc + j);
      __m256d c21 = _mm256_loadu_pd(c + (i + 2) * ldc + j + 4);
      __m256d c30 = _mm256_loadu_pd(c + (i + 3) * ldc + j);
      __m256d c31 = _mm256_loadu_pd(c + (i + 3) * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * ldb + j;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        __m256d av = _mm256_set1_pd(a0[p]);
        c00 = _mm256_fmadd_pd(av, b0, c00);
        c01 = _mm256_fmadd_pd(av, b1, c01);
        av = _mm256_set1_pd(a1[p]);
        c10 = _mm256_fmadd_pd(av, b0, c10);
        c11 = _mm256_fmadd_pd(av, b1, c11);
        av = _mm256_set1_pd(a2[p]);
        c20 = _mm256_fmadd_pd(av, b0, c20);
        c21 = _mm256_fmadd_pd(av, b1, c21);
        av = _mm256_set1_pd(a3[p]);
        c30 = _mm256_fmadd_pd(av, b0, c30);
        c31 = _mm256_fmadd_pd(av, b1, c31);
      }
      _mm256_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm256_storeu_pd(c + (i + 0) * ldc + j + 4, c01);
      _mm256_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm256_storeu_pd(c + (i + 1) * ldc + j + 4, c11);
      _mm256_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm256_storeu_pd(c + (i + 2) * ldc + j + 4, c21);
      _mm256_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm256_storeu_pd(c + (i + 3) * ldc + j + 4, c31);
    }
    for (; j + 4 <= n; j += 4) {
      __m256d c0 = _mm256_loadu_pd(c + (i + 0) * ldc + j);
      __m256d c1 = _mm256_loadu_pd(c + (i + 1) * ldc + j);
      __m256d c2 = _mm256_loadu_pd(c + (i + 2) * ldc + j);
      __m256d c3 = _mm256_loadu_pd(c + (i + 3) * ldc + j);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d bv = _mm256_loadu_pd(b + p * ldb + j);
        c0 = _mm256_fmadd_pd(_mm256_set1_pd(a0[p]), bv, c0);
        c1 = _mm256_fmadd_pd(_mm256_set1_pd(a1[p]), bv, c1);
        c2 = _mm256_fmadd_pd(_mm256_set1_pd(a2[p]), bv, c2);
        c3 = _mm256_fmadd_pd(_mm256_set1_pd(a3[p]), bv, c3);
      }
      _mm256_storeu_pd(c + (i + 0) * ldc + j, c0);
      _mm256_storeu_pd(c + (i + 1) * ldc + j, c1);
      _mm256_storeu_pd(c + (i + 2) * ldc + j, c2);
      _mm256_storeu_pd(c + (i + 3) * ldc + j, c3);
    }
    nn_tail_4rows(n, k, j, a0, a1, a2, a3, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c0 = _mm256_loadu_pd(c + i * ldc + j);
      __m256d c1 = _mm256_loadu_pd(c + i * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(arow[p]);
        c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j + 4), c1);
      }
      _mm256_storeu_pd(c + i * ldc + j, c0);
      _mm256_storeu_pd(c + i * ldc + j + 4, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * b[p * ldb + j];
      c[i * ldc + j] += s;
    }
  }
}

// Same 4x8 block shape as gemm_nn; only the A access changes (column i of
// the stored (k x m) A, i.e. strided broadcasts).
DEEPCAT_TARGET_AVX2 void gemm_tn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c00 = _mm256_loadu_pd(c + (i + 0) * ldc + j);
      __m256d c01 = _mm256_loadu_pd(c + (i + 0) * ldc + j + 4);
      __m256d c10 = _mm256_loadu_pd(c + (i + 1) * ldc + j);
      __m256d c11 = _mm256_loadu_pd(c + (i + 1) * ldc + j + 4);
      __m256d c20 = _mm256_loadu_pd(c + (i + 2) * ldc + j);
      __m256d c21 = _mm256_loadu_pd(c + (i + 2) * ldc + j + 4);
      __m256d c30 = _mm256_loadu_pd(c + (i + 3) * ldc + j);
      __m256d c31 = _mm256_loadu_pd(c + (i + 3) * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double* brow = b + p * ldb + j;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        __m256d av = _mm256_set1_pd(acol[0]);
        c00 = _mm256_fmadd_pd(av, b0, c00);
        c01 = _mm256_fmadd_pd(av, b1, c01);
        av = _mm256_set1_pd(acol[1]);
        c10 = _mm256_fmadd_pd(av, b0, c10);
        c11 = _mm256_fmadd_pd(av, b1, c11);
        av = _mm256_set1_pd(acol[2]);
        c20 = _mm256_fmadd_pd(av, b0, c20);
        c21 = _mm256_fmadd_pd(av, b1, c21);
        av = _mm256_set1_pd(acol[3]);
        c30 = _mm256_fmadd_pd(av, b0, c30);
        c31 = _mm256_fmadd_pd(av, b1, c31);
      }
      _mm256_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm256_storeu_pd(c + (i + 0) * ldc + j + 4, c01);
      _mm256_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm256_storeu_pd(c + (i + 1) * ldc + j + 4, c11);
      _mm256_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm256_storeu_pd(c + (i + 2) * ldc + j + 4, c21);
      _mm256_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm256_storeu_pd(c + (i + 3) * ldc + j + 4, c31);
    }
    for (; j < n; ++j) {
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double bv = b[p * ldb + j];
        s0 += acol[0] * bv;
        s1 += acol[1] * bv;
        s2 += acol[2] * bv;
        s3 += acol[3] * bv;
      }
      c[(i + 0) * ldc + j] += s0;
      c[(i + 1) * ldc + j] += s1;
      c[(i + 2) * ldc + j] += s2;
      c[(i + 3) * ldc + j] += s3;
    }
  }
  for (; i < m; ++i) {
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d c0 = _mm256_loadu_pd(c + i * ldc + j);
      __m256d c1 = _mm256_loadu_pd(c + i * ldc + j + 4);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(a[p * lda + i]);
        c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b + p * ldb + j + 4), c1);
      }
      _mm256_storeu_pd(c + i * ldc + j, c0);
      _mm256_storeu_pd(c + i * ldc + j + 4, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a[p * lda + i] * b[p * ldb + j];
      c[i * ldc + j] += s;
    }
  }
}

// The k tail of one output: s += a*b for p in [kv, k), ascending. Compiled
// with FMA (the AVX-512 kernels use it too), so each step contracts to one
// fused multiply-add on every path that reaches it — the one-row and the
// row-blocked paths must agree on that for their outputs to match.
DEEPCAT_TARGET_AVX2 inline double nt_tail(double s, std::size_t kv,
                                          std::size_t k, const double* arow,
                                          const double* brow) noexcept {
  for (std::size_t p = kv; p < k; ++p) s += arow[p] * brow[p];
  return s;
}

// hsum's tree — (v0 + v2) + (v1 + v3) — for four vectors at once. Returns
// {hsum(w), hsum(y), hsum(x), hsum(z)}.
DEEPCAT_TARGET_AVX2 inline __m256d reduce4_avx2(__m256d w, __m256d x,
                                                __m256d y,
                                                __m256d z) noexcept {
  const __m256d wx = _mm256_add_pd(_mm256_permute2f128_pd(w, x, 0x20),
                                   _mm256_permute2f128_pd(w, x, 0x31));
  const __m256d yz = _mm256_add_pd(_mm256_permute2f128_pd(y, z, 0x20),
                                   _mm256_permute2f128_pd(y, z, 0x31));
  return _mm256_add_pd(_mm256_unpacklo_pd(wx, yz),
                       _mm256_unpackhi_pd(wx, yz));
}

// Both operands are k-contiguous, so this is a batch of vector dots. Each
// output (i, j) runs 4-lane FMA chains over p < kv, the hsum tree, then its
// k tail in ascending p, and is then added to C. Row blocking (R A rows
// share every B-row load, 4 B rows at a time) and reducing four outputs'
// accumulators side by side (reduce4_avx2) change which outputs run
// together, never the order inside one output — so one call over m rows
// equals m one-row calls (which reduce each output with hsum) bit for bit.
// Leftover columns go through dot_avx2, exactly as a one-row call does.
template <std::size_t R>
DEEPCAT_TARGET_AVX2 void gemm_nt_rows_avx2(std::size_t n, std::size_t k,
                                           const double* a, std::size_t lda,
                                           const double* b, std::size_t ldb,
                                           double* c,
                                           std::size_t ldc) noexcept {
  const std::size_t kv = k & ~std::size_t{3};
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* bq[4] = {b + j * ldb, b + (j + 1) * ldb, b + (j + 2) * ldb,
                           b + (j + 3) * ldb};
    __m256d acc[R][4];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_pd();
    }
    for (std::size_t p = 0; p < kv; p += 4) {
      __m256d bv[4];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) bv[q] = _mm256_loadu_pd(bq[q] + p);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d av = _mm256_loadu_pd(a + r * lda + p);
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          acc[r][q] = _mm256_fmadd_pd(av, bv[q], acc[r][q]);
        }
      }
    }
    if constexpr (R == 1) {
      for (std::size_t q = 0; q < 4; ++q) {
        c[j + q] += nt_tail(hsum(acc[0][q]), kv, k, a, bq[q]);
      }
    } else {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        double* crow = c + r * ldc + j;
        const __m256d sums =
            reduce4_avx2(acc[r][0], acc[r][2], acc[r][1], acc[r][3]);
        if (kv == k) {
          _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), sums));
          continue;
        }
        alignas(32) double part[4];
        _mm256_store_pd(part, sums);
        for (std::size_t q = 0; q < 4; ++q) {
          crow[q] += nt_tail(part[q], kv, k, a + r * lda, bq[q]);
        }
      }
    }
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      c[r * ldc + j] += dot_avx2(a + r * lda, b + j * ldb, k);
    }
  }
}

// k below the lane width: the vector loop never runs, so there is nothing to
// reduce (a one-row call's hsum of all-zero accumulators is +0.0). Each
// output is C + (0 + a_0 b_0 + a_1 b_1 + ...) as ascending FMAs, four
// columns at a time with B gathered at stride ldb. The critic's 128->1
// output layer makes this k=1 call in every backward pass.
DEEPCAT_TARGET_AVX2 void gemm_nt_small_k_avx2(std::size_t m, std::size_t n,
                                              std::size_t k, const double* a,
                                              std::size_t lda, const double* b,
                                              std::size_t ldb, double* c,
                                              std::size_t ldc) noexcept {
  const auto stride = static_cast<long long>(ldb);
  const __m256i idx = _mm256_set_epi64x(3 * stride, 2 * stride, stride, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      __m256d sum = _mm256_setzero_pd();
      for (std::size_t p = 0; p < k; ++p) {
        sum = _mm256_fmadd_pd(_mm256_set1_pd(arow[p]),
                              _mm256_i64gather_pd(b + j * ldb + p, idx, 8),
                              sum);
      }
      _mm256_storeu_pd(crow + j, _mm256_add_pd(_mm256_loadu_pd(crow + j), sum));
    }
    for (; j < n; ++j) crow[j] += nt_tail(0.0, 0, k, arow, b + j * ldb);
  }
}

DEEPCAT_TARGET_AVX2 void gemm_nt_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const double* a,
                                      std::size_t lda, const double* b,
                                      std::size_t ldb, double* c,
                                      std::size_t ldc) noexcept {
  if (k < 4) {
    gemm_nt_small_k_avx2(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    gemm_nt_rows_avx2<2>(n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    gemm_nt_rows_avx2<1>(n, k, a + i * lda, lda, b, ldb, c + i * ldc, ldc);
  }
}

// ---- AVX-512 kernels -----------------------------------------------------
// Same shapes as the AVX2 tier, twice the lane width. Broadcast-style GEMM
// keeps per-element ascending-k FMA chains (bit-compatible with the AVX2
// tier); the dot-family reductions use wider accumulator trees and meet
// the 1e-12 contract only.

DEEPCAT_TARGET_AVX512 double dot_avx512(const double* a, const double* b,
                                        std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd(), acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i),
                           _mm512_loadu_pd(b + i), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16),
                           _mm512_loadu_pd(b + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24),
                           _mm512_loadu_pd(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i),
                           _mm512_loadu_pd(b + i), acc0);
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(
      _mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

DEEPCAT_TARGET_AVX512 double squared_distance_avx512(const double* a,
                                                     const double* b,
                                                     std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    const __m512d d1 =
        _mm512_sub_pd(_mm512_loadu_pd(a + i + 8), _mm512_loadu_pd(b + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

DEEPCAT_TARGET_AVX512 void squared_distances_avx512(const double* query,
                                                    const double* rows,
                                                    std::size_t n_rows,
                                                    std::size_t dim,
                                                    double* out) noexcept {
  for (std::size_t r = 0; r < n_rows; ++r) {
    out[r] = squared_distance_avx512(query, rows + r * dim, dim);
  }
}

DEEPCAT_TARGET_AVX512 void cosine_distances_avx512(const double* query,
                                                   const double* rows,
                                                   std::size_t n_rows,
                                                   std::size_t dim,
                                                   double* out) noexcept {
  const double qq = dot_avx512(query, query, dim);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* row = rows + r * dim;
    out[r] = cosine_from_parts(qq, dot_avx512(row, row, dim),
                               dot_avx512(query, row, dim));
  }
}

DEEPCAT_TARGET_AVX512 double sum_avx512(const double* a,
                                        std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
    acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(a + i + 8));
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
  }
  double s = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i];
  return s;
}

DEEPCAT_TARGET_AVX512 void axpy_avx512(double alpha, const double* x,
                                       double* y, std::size_t n) noexcept {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
    _mm512_storeu_pd(
        y + i + 8, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i + 8),
                                   _mm512_loadu_pd(y + i + 8)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

DEEPCAT_TARGET_AVX512 void relu_avx512(double* x, std::size_t n) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_max_pd(_mm512_loadu_pd(x + i), zero));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        x + i, tail, _mm512_max_pd(_mm512_maskz_loadu_pd(tail, x + i), zero));
  }
}

// Stores +0.0 under the y <= 0 (ordered) mask; g is never loaded.
DEEPCAT_TARGET_AVX512 void relu_mask_avx512(double* g, const double* y,
                                            std::size_t n) noexcept {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_mask_storeu_pd(
        g + i, _mm512_cmp_pd_mask(_mm512_loadu_pd(y + i), zero, _CMP_LE_OQ),
        zero);
  }
  if (i < n) {
    const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        g + i,
        _mm512_mask_cmp_pd_mask(tail, _mm512_maskz_loadu_pd(tail, y + i),
                                zero, _CMP_LE_OQ),
        zero);
  }
}

template <bool kUnitBc1>
DEEPCAT_TARGET_AVX512 void adam_update_avx512(
    double* value, const double* grad, double* m, double* v, std::size_t n,
    double scale, double beta1, double beta2, double bc1, double bc2,
    double lr, double eps) noexcept {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vb1 = _mm512_set1_pd(beta1);
  const __m512d vb2 = _mm512_set1_pd(beta2);
  const __m512d vomb1 = _mm512_set1_pd(1.0 - beta1);
  const __m512d vomb2 = _mm512_set1_pd(1.0 - beta2);
  const __m512d vbc1 = _mm512_set1_pd(bc1);
  const __m512d vbc2 = _mm512_set1_pd(bc2);
  const __m512d vlr = _mm512_set1_pd(lr);
  const __m512d veps = _mm512_set1_pd(eps);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d g = _mm512_mul_pd(_mm512_loadu_pd(grad + i), vscale);
    const __m512d mi = _mm512_fmadd_pd(vb1, _mm512_loadu_pd(m + i),
                                       _mm512_mul_pd(vomb1, g));
    const __m512d vi = _mm512_fmadd_pd(
        vb2, _mm512_loadu_pd(v + i),
        _mm512_mul_pd(vomb2, _mm512_mul_pd(g, g)));
    _mm512_storeu_pd(m + i, mi);
    _mm512_storeu_pd(v + i, vi);
    const __m512d m_hat = kUnitBc1 ? mi : _mm512_div_pd(mi, vbc1);
    const __m512d v_hat = _mm512_div_pd(vi, vbc2);
    const __m512d denom = _mm512_add_pd(_mm512_sqrt_pd(v_hat), veps);
    const __m512d update = _mm512_div_pd(_mm512_mul_pd(vlr, m_hat), denom);
    _mm512_storeu_pd(value + i,
                     _mm512_sub_pd(_mm512_loadu_pd(value + i), update));
  }
  if (i < n) {
    adam_update_scalar<kUnitBc1>(value + i, grad + i, m + i, v + i, n - i,
                                 scale, beta1, beta2, bc1, bc2, lr, eps);
  }
}

// 4x32 register-blocked micro-kernel: four zmm columns per row, 16
// resident accumulators, so one broadcast feeds four FMAs; then the AVX2
// 4x8 tile widened to 4x16 and 4x8 for narrower remainders. Every output
// keeps its ascending-k chain from C, so the column blocking changes no
// bit.
DEEPCAT_TARGET_AVX512 void gemm_nn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + (i + 0) * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    const double* arow[4] = {a0, a1, a2, a3};
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m512d acc[4][4];
#pragma GCC unroll 4
      for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          acc[r][q] = _mm512_loadu_pd(c + (i + r) * ldc + j + 8 * q);
        }
      }
      for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * ldb + j;
        __m512d bv[4];
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          bv[q] = _mm512_loadu_pd(brow + 8 * q);
        }
#pragma GCC unroll 4
        for (std::size_t r = 0; r < 4; ++r) {
          const __m512d av = _mm512_set1_pd(arow[r][p]);
#pragma GCC unroll 4
          for (std::size_t q = 0; q < 4; ++q) {
            acc[r][q] = _mm512_fmadd_pd(av, bv[q], acc[r][q]);
          }
        }
      }
#pragma GCC unroll 4
      for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          _mm512_storeu_pd(c + (i + r) * ldc + j + 8 * q, acc[r][q]);
        }
      }
    }
    for (; j + 16 <= n; j += 16) {
      __m512d c00 = _mm512_loadu_pd(c + (i + 0) * ldc + j);
      __m512d c01 = _mm512_loadu_pd(c + (i + 0) * ldc + j + 8);
      __m512d c10 = _mm512_loadu_pd(c + (i + 1) * ldc + j);
      __m512d c11 = _mm512_loadu_pd(c + (i + 1) * ldc + j + 8);
      __m512d c20 = _mm512_loadu_pd(c + (i + 2) * ldc + j);
      __m512d c21 = _mm512_loadu_pd(c + (i + 2) * ldc + j + 8);
      __m512d c30 = _mm512_loadu_pd(c + (i + 3) * ldc + j);
      __m512d c31 = _mm512_loadu_pd(c + (i + 3) * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const double* brow = b + p * ldb + j;
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
        __m512d av = _mm512_set1_pd(a0[p]);
        c00 = _mm512_fmadd_pd(av, b0, c00);
        c01 = _mm512_fmadd_pd(av, b1, c01);
        av = _mm512_set1_pd(a1[p]);
        c10 = _mm512_fmadd_pd(av, b0, c10);
        c11 = _mm512_fmadd_pd(av, b1, c11);
        av = _mm512_set1_pd(a2[p]);
        c20 = _mm512_fmadd_pd(av, b0, c20);
        c21 = _mm512_fmadd_pd(av, b1, c21);
        av = _mm512_set1_pd(a3[p]);
        c30 = _mm512_fmadd_pd(av, b0, c30);
        c31 = _mm512_fmadd_pd(av, b1, c31);
      }
      _mm512_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm512_storeu_pd(c + (i + 0) * ldc + j + 8, c01);
      _mm512_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm512_storeu_pd(c + (i + 1) * ldc + j + 8, c11);
      _mm512_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm512_storeu_pd(c + (i + 2) * ldc + j + 8, c21);
      _mm512_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm512_storeu_pd(c + (i + 3) * ldc + j + 8, c31);
    }
    for (; j + 8 <= n; j += 8) {
      __m512d c0 = _mm512_loadu_pd(c + (i + 0) * ldc + j);
      __m512d c1 = _mm512_loadu_pd(c + (i + 1) * ldc + j);
      __m512d c2 = _mm512_loadu_pd(c + (i + 2) * ldc + j);
      __m512d c3 = _mm512_loadu_pd(c + (i + 3) * ldc + j);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d bv = _mm512_loadu_pd(b + p * ldb + j);
        c0 = _mm512_fmadd_pd(_mm512_set1_pd(a0[p]), bv, c0);
        c1 = _mm512_fmadd_pd(_mm512_set1_pd(a1[p]), bv, c1);
        c2 = _mm512_fmadd_pd(_mm512_set1_pd(a2[p]), bv, c2);
        c3 = _mm512_fmadd_pd(_mm512_set1_pd(a3[p]), bv, c3);
      }
      _mm512_storeu_pd(c + (i + 0) * ldc + j, c0);
      _mm512_storeu_pd(c + (i + 1) * ldc + j, c1);
      _mm512_storeu_pd(c + (i + 2) * ldc + j, c2);
      _mm512_storeu_pd(c + (i + 3) * ldc + j, c3);
    }
    nn_tail_4rows(n, k, j, a0, a1, a2, a3, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    const double* arow = a + i * lda;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512d c0 = _mm512_loadu_pd(c + i * ldc + j);
      __m512d c1 = _mm512_loadu_pd(c + i * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d av = _mm512_set1_pd(arow[p]);
        c0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j + 8), c1);
      }
      _mm512_storeu_pd(c + i * ldc + j, c0);
      _mm512_storeu_pd(c + i * ldc + j + 8, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * b[p * ldb + j];
      c[i * ldc + j] += s;
    }
  }
}

// gemm_tn_avx512's columns [j0, n) past its last 16-column tile, for the
// four C rows starting at `c` (A columns from `a`): each output is its own
// ascending-k chain from 0, then added to C, whichever row block it is in.
// Inlined, so the chains contract to FMA as the one-row path's chain does.
[[gnu::always_inline]] inline void tn_tail_4rows_avx512(
    std::size_t n, std::size_t k, std::size_t j0, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc) noexcept {
  for (std::size_t j = j0; j < n; ++j) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t p = 0; p < k; ++p) {
      const double* acol = a + p * lda;
      const double bv = b[p * ldb + j];
      s0 += acol[0] * bv;
      s1 += acol[1] * bv;
      s2 += acol[2] * bv;
      s3 += acol[3] * bv;
    }
    c[j] += s0;
    c[ldc + j] += s1;
    c[2 * ldc + j] += s2;
    c[3 * ldc + j] += s3;
  }
}

// The 4x16 gemm_nn_avx512 tile with the A access changed (column i of the
// stored (k x m) A, i.e. strided broadcasts), grown to 8x16 with 16
// resident accumulators: one pair of B loads feeds 16 FMAs. The last
// m mod 8 rows run the 4x16 tile and the one-row path, and columns past
// the last 16-column tile run the scalar tail. Every output keeps its own
// ascending-k chain, so the row blocking changes no bit.
DEEPCAT_TARGET_AVX512 void gemm_tn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512d acc[8][2];
#pragma GCC unroll 8
      for (std::size_t r = 0; r < 8; ++r) {
        acc[r][0] = _mm512_loadu_pd(c + (i + r) * ldc + j);
        acc[r][1] = _mm512_loadu_pd(c + (i + r) * ldc + j + 8);
      }
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double* brow = b + p * ldb + j;
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
#pragma GCC unroll 8
        for (std::size_t r = 0; r < 8; ++r) {
          const __m512d av = _mm512_set1_pd(acol[r]);
          acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
        }
      }
#pragma GCC unroll 8
      for (std::size_t r = 0; r < 8; ++r) {
        _mm512_storeu_pd(c + (i + r) * ldc + j, acc[r][0]);
        _mm512_storeu_pd(c + (i + r) * ldc + j + 8, acc[r][1]);
      }
    }
    tn_tail_4rows_avx512(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
    tn_tail_4rows_avx512(n, k, j, a + i + 4, lda, b, ldb,
                         c + (i + 4) * ldc, ldc);
  }
  for (; i + 4 <= m; i += 4) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512d c00 = _mm512_loadu_pd(c + (i + 0) * ldc + j);
      __m512d c01 = _mm512_loadu_pd(c + (i + 0) * ldc + j + 8);
      __m512d c10 = _mm512_loadu_pd(c + (i + 1) * ldc + j);
      __m512d c11 = _mm512_loadu_pd(c + (i + 1) * ldc + j + 8);
      __m512d c20 = _mm512_loadu_pd(c + (i + 2) * ldc + j);
      __m512d c21 = _mm512_loadu_pd(c + (i + 2) * ldc + j + 8);
      __m512d c30 = _mm512_loadu_pd(c + (i + 3) * ldc + j);
      __m512d c31 = _mm512_loadu_pd(c + (i + 3) * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const double* acol = a + p * lda + i;
        const double* brow = b + p * ldb + j;
        const __m512d b0 = _mm512_loadu_pd(brow);
        const __m512d b1 = _mm512_loadu_pd(brow + 8);
        __m512d av = _mm512_set1_pd(acol[0]);
        c00 = _mm512_fmadd_pd(av, b0, c00);
        c01 = _mm512_fmadd_pd(av, b1, c01);
        av = _mm512_set1_pd(acol[1]);
        c10 = _mm512_fmadd_pd(av, b0, c10);
        c11 = _mm512_fmadd_pd(av, b1, c11);
        av = _mm512_set1_pd(acol[2]);
        c20 = _mm512_fmadd_pd(av, b0, c20);
        c21 = _mm512_fmadd_pd(av, b1, c21);
        av = _mm512_set1_pd(acol[3]);
        c30 = _mm512_fmadd_pd(av, b0, c30);
        c31 = _mm512_fmadd_pd(av, b1, c31);
      }
      _mm512_storeu_pd(c + (i + 0) * ldc + j, c00);
      _mm512_storeu_pd(c + (i + 0) * ldc + j + 8, c01);
      _mm512_storeu_pd(c + (i + 1) * ldc + j, c10);
      _mm512_storeu_pd(c + (i + 1) * ldc + j + 8, c11);
      _mm512_storeu_pd(c + (i + 2) * ldc + j, c20);
      _mm512_storeu_pd(c + (i + 2) * ldc + j + 8, c21);
      _mm512_storeu_pd(c + (i + 3) * ldc + j, c30);
      _mm512_storeu_pd(c + (i + 3) * ldc + j + 8, c31);
    }
    tn_tail_4rows_avx512(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512d c0 = _mm512_loadu_pd(c + i * ldc + j);
      __m512d c1 = _mm512_loadu_pd(c + i * ldc + j + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512d av = _mm512_set1_pd(a[p * lda + i]);
        c0 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j), c0);
        c1 = _mm512_fmadd_pd(av, _mm512_loadu_pd(b + p * ldb + j + 8), c1);
      }
      _mm512_storeu_pd(c + i * ldc + j, c0);
      _mm512_storeu_pd(c + i * ldc + j + 8, c1);
    }
    for (; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s += a[p * lda + i] * b[p * ldb + j];
      c[i * ldc + j] += s;
    }
  }
}

// The gemm_nt_avx2 scheme with 8-lane chains, four A rows per block and
// _mm512_reduce_add_pd's tree as the per-output reduction.

// {hi4(x) + lo4(x), hi4(y) + lo4(y)}: the first step of the tree below.
DEEPCAT_TARGET_AVX512 inline __m512d add_halves(__m512d x,
                                                __m512d y) noexcept {
  return _mm512_add_pd(_mm512_shuffle_f64x2(x, y, 0xEE),
                       _mm512_shuffle_f64x2(x, y, 0x44));
}

// Per 4-lane half h of x and y: hi2(h) + lo2(h), the tree's second step.
DEEPCAT_TARGET_AVX512 inline __m512d add_quarters(__m512d x,
                                                  __m512d y) noexcept {
  return _mm512_add_pd(_mm512_shuffle_f64x2(x, y, 0xDD),
                       _mm512_shuffle_f64x2(x, y, 0x88));
}

// _mm512_reduce_add_pd's tree — high half + low half, then high quarter +
// low quarter, then lane 0 + lane 1 — for eight vectors at once. Returns
// {r(v0), r(v4), r(v1), r(v5), r(v2), r(v6), r(v3), r(v7)}.
DEEPCAT_TARGET_AVX512 inline __m512d reduce8_avx512(
    __m512d v0, __m512d v1, __m512d v2, __m512d v3, __m512d v4, __m512d v5,
    __m512d v6, __m512d v7) noexcept {
  const __m512d lo = add_quarters(add_halves(v0, v1), add_halves(v2, v3));
  const __m512d hi = add_quarters(add_halves(v4, v5), add_halves(v6, v7));
  return _mm512_add_pd(_mm512_unpacklo_pd(lo, hi),
                       _mm512_unpackhi_pd(lo, hi));
}

template <std::size_t R>
DEEPCAT_TARGET_AVX512 void gemm_nt_rows_avx512(
    std::size_t n, std::size_t k, const double* a, std::size_t lda,
    const double* b, std::size_t ldb, double* c, std::size_t ldc) noexcept {
  static_assert(R == 1 || R % 2 == 0);
  const std::size_t kv = k & ~std::size_t{7};
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const double* bq[4] = {b + j * ldb, b + (j + 1) * ldb, b + (j + 2) * ldb,
                           b + (j + 3) * ldb};
    __m512d acc[R][4];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) acc[r][q] = _mm512_setzero_pd();
    }
    for (std::size_t p = 0; p < kv; p += 8) {
      __m512d bv[4];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) bv[q] = _mm512_loadu_pd(bq[q] + p);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        const __m512d av = _mm512_loadu_pd(a + r * lda + p);
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          acc[r][q] = _mm512_fmadd_pd(av, bv[q], acc[r][q]);
        }
      }
    }
    if constexpr (R == 1) {
      for (std::size_t q = 0; q < 4; ++q) {
        c[j + q] += nt_tail(_mm512_reduce_add_pd(acc[0][q]), kv, k, a,
                                   bq[q]);
      }
    } else {
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; r += 2) {
        // Lanes 0-3: row r, columns j..j+3; lanes 4-7: row r + 1.
        const __m512d sums =
            reduce8_avx512(acc[r][0], acc[r][2], acc[r + 1][0],
                           acc[r + 1][2], acc[r][1], acc[r][3],
                           acc[r + 1][1], acc[r + 1][3]);
        double* c0 = c + r * ldc + j;
        double* c1 = c0 + ldc;
        if (kv == k) {
          _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0),
                                             _mm512_castpd512_pd256(sums)));
          _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1),
                                             _mm512_extractf64x4_pd(sums, 1)));
          continue;
        }
        alignas(64) double part[8];
        _mm512_store_pd(part, sums);
        for (std::size_t q = 0; q < 4; ++q) {
          c0[q] += nt_tail(part[q], kv, k, a + r * lda, bq[q]);
          c1[q] += nt_tail(part[4 + q], kv, k, a + (r + 1) * lda,
                                  bq[q]);
        }
      }
    }
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      c[r * ldc + j] += dot_avx512(a + r * lda, b + j * ldb, k);
    }
  }
}

// gemm_nt_small_k_avx2 at 8 lanes.
DEEPCAT_TARGET_AVX512 void gemm_nt_small_k_avx512(
    std::size_t m, std::size_t n, std::size_t k, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc) noexcept {
  const auto stride = static_cast<long long>(ldb);
  const __m512i idx =
      _mm512_set_epi64(7 * stride, 6 * stride, 5 * stride, 4 * stride,
                       3 * stride, 2 * stride, stride, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m512d sum = _mm512_setzero_pd();
      for (std::size_t p = 0; p < k; ++p) {
        sum = _mm512_fmadd_pd(_mm512_set1_pd(arow[p]),
                              _mm512_i64gather_pd(idx, b + j * ldb + p, 8),
                              sum);
      }
      _mm512_storeu_pd(crow + j, _mm512_add_pd(_mm512_loadu_pd(crow + j), sum));
    }
    for (; j < n; ++j) crow[j] += nt_tail(0.0, 0, k, arow, b + j * ldb);
  }
}

DEEPCAT_TARGET_AVX512 void gemm_nt_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const double* a,
                                          std::size_t lda, const double* b,
                                          std::size_t ldb, double* c,
                                          std::size_t ldc) noexcept {
  if (k < 8) {
    gemm_nt_small_k_avx512(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // 16 B rows at a time against every A row block, so those B rows stay
  // in L1 across the blocks. Groups start at multiples of 4 columns, so
  // each output reduces exactly as in one pass over all n.
  for (std::size_t j = 0; j < n; j += 16) {
    const std::size_t nj = std::min<std::size_t>(16, n - j);
    const double* bj = b + j * ldb;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      gemm_nt_rows_avx512<4>(nj, k, a + i * lda, lda, bj, ldb,
                             c + i * ldc + j, ldc);
    }
    for (; i < m; ++i) {
      gemm_nt_rows_avx512<1>(nj, k, a + i * lda, lda, bj, ldb,
                             c + i * ldc + j, ldc);
    }
  }
}

#endif  // DEEPCAT_SIMD_X86

}  // namespace

Backend active_backend() noexcept {
  return min_backend(g_max_backend, g_forced_cap);
}

Backend detected_backend() noexcept { return g_detected_backend; }

Backend max_backend() noexcept { return g_max_backend; }

bool backend_selectable(Backend b) noexcept {
  return static_cast<int>(b) >= static_cast<int>(Backend::kScalar) &&
         static_cast<int>(b) <= static_cast<int>(g_max_backend);
}

const char* backend_label(Backend b) noexcept {
  switch (b) {
    case Backend::kAvx512:
      return "avx512";
    case Backend::kAvx2:
      return "avx2+fma";
    default:
      return "scalar";
  }
}

const char* backend_name() noexcept {
  return backend_label(active_backend());
}

const char* isa_ladder() noexcept {
  switch (g_detected_backend) {
    case Backend::kAvx512:
      return "scalar,avx2+fma,avx512";
    case Backend::kAvx2:
      return "scalar,avx2+fma";
    default:
      return "scalar";
  }
}

void force_backend(Backend cap) noexcept { g_forced_cap = cap; }

bool vectorized_active() noexcept {
  return active_backend() != Backend::kScalar;
}

bool vector_compiled() noexcept { return DEEPCAT_SIMD_X86 != 0; }

DispatchCounts dispatch_counts() noexcept {
  DispatchCounts counts;
  counts.scalar_calls = g_scalar_calls.load(std::memory_order_relaxed);
  counts.avx2_calls = g_avx2_calls.load(std::memory_order_relaxed);
  counts.avx512_calls = g_avx512_calls.load(std::memory_order_relaxed);
  return counts;
}

void reset_dispatch_counts() noexcept {
  g_scalar_calls.store(0, std::memory_order_relaxed);
  g_avx2_calls.store(0, std::memory_order_relaxed);
  g_avx512_calls.store(0, std::memory_order_relaxed);
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return dot_avx512(a, b, n);
    case Backend::kAvx2:
      return dot_avx2(a, b, n);
    default:
      break;
  }
#endif
  return dot_scalar(a, b, n);
}

double squared_distance(const double* a, const double* b,
                        std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return squared_distance_avx512(a, b, n);
    case Backend::kAvx2:
      return squared_distance_avx2(a, b, n);
    default:
      break;
  }
#endif
  return squared_distance_scalar(a, b, n);
}

void squared_distances(const double* query, const double* rows,
                       std::size_t n_rows, std::size_t dim,
                       double* out) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      squared_distances_avx512(query, rows, n_rows, dim, out);
      return;
    case Backend::kAvx2:
      squared_distances_avx2(query, rows, n_rows, dim, out);
      return;
    default:
      break;
  }
#endif
  squared_distances_scalar(query, rows, n_rows, dim, out);
}

void cosine_distances(const double* query, const double* rows,
                      std::size_t n_rows, std::size_t dim,
                      double* out) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      cosine_distances_avx512(query, rows, n_rows, dim, out);
      return;
    case Backend::kAvx2:
      cosine_distances_avx2(query, rows, n_rows, dim, out);
      return;
    default:
      break;
  }
#endif
  cosine_distances_scalar(query, rows, n_rows, dim, out);
}

double sum(const double* a, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return sum_avx512(a, n);
    case Backend::kAvx2:
      return sum_avx2(a, n);
    default:
      break;
  }
#endif
  return sum_scalar(a, n);
}

double sum_squares(const double* a, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      return dot_avx512(a, a, n);
    case Backend::kAvx2:
      return dot_avx2(a, a, n);
    default:
      break;
  }
#endif
  return dot_scalar(a, a, n);
}

void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      axpy_avx512(alpha, x, y, n);
      return;
    case Backend::kAvx2:
      axpy_avx2(alpha, x, y, n);
      return;
    default:
      break;
  }
#endif
  axpy_scalar(alpha, x, y, n);
}

void relu(double* x, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      relu_avx512(x, n);
      return;
    case Backend::kAvx2:
      relu_avx2(x, n);
      return;
    default:
      break;
  }
#endif
  relu_scalar(x, n);
}

void relu_mask(double* g, const double* y, std::size_t n) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      relu_mask_avx512(g, y, n);
      return;
    case Backend::kAvx2:
      relu_mask_avx2(g, y, n);
      return;
    default:
      break;
  }
#endif
  relu_mask_scalar(g, y, n);
}

void adam_update(double* value, const double* grad, double* m, double* v,
                 std::size_t n, double scale, double beta1, double beta2,
                 double bc1, double bc2, double lr, double eps) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
  const bool unit_bc1 = bc1 == 1.0;
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      (unit_bc1 ? adam_update_avx512<true> : adam_update_avx512<false>)(
          value, grad, m, v, n, scale, beta1, beta2, bc1, bc2, lr, eps);
      return;
    case Backend::kAvx2:
      (unit_bc1 ? adam_update_avx2<true> : adam_update_avx2<false>)(
          value, grad, m, v, n, scale, beta1, beta2, bc1, bc2, lr, eps);
      return;
    default:
      break;
  }
#endif
  (unit_bc1 ? adam_update_scalar<true> : adam_update_scalar<false>)(
      value, grad, m, v, n, scale, beta1, beta2, bc1, bc2, lr, eps);
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      gemm_nn_avx512(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case Backend::kAvx2:
      gemm_nn_avx2(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    default:
      break;
  }
#endif
  gemm_nn_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      gemm_tn_avx512(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case Backend::kAvx2:
      gemm_tn_avx2(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    default:
      break;
  }
#endif
  gemm_tn_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      gemm_nt_avx512(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    case Backend::kAvx2:
      gemm_nt_avx2(m, n, k, a, lda, b, ldb, c, ldc);
      return;
    default:
      break;
  }
#endif
  gemm_nt_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace deepcat::common::simd
