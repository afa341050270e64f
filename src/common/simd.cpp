#include "common/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cfloat>
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

// Dispatch accounting for the chunky kernels (GEMM family, Adam, distance
// scans): one slot per thread, each on its own cache line, so threads
// running kernels side by side (four sessions probing one master) never
// write a shared line. Slots are handed out round-robin; threads past
// kDispatchSlots share one, and the atomic increments keep that exact.
struct alignas(64) DispatchSlot {
  std::atomic<unsigned long long> calls[3]{};  // indexed by Backend
};
constexpr std::size_t kDispatchSlots = 64;
DispatchSlot g_dispatch_slots[kDispatchSlots];
std::atomic<std::size_t> g_next_dispatch_slot{0};

inline void count_dispatch(Backend be) noexcept {
  constexpr std::size_t kUnassigned = ~std::size_t{0};
  thread_local std::size_t slot = kUnassigned;
  if (slot == kUnassigned) {
    slot = g_next_dispatch_slot.fetch_add(1, std::memory_order_relaxed) %
           kDispatchSlots;
  }
  g_dispatch_slots[slot].calls[static_cast<std::size_t>(be)].fetch_add(
      1, std::memory_order_relaxed);
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

// The network kernels below take floats (simd.hpp); the scalar tier is
// their reference.

float dot_scalar(const float* a, const float* b, std::size_t n) noexcept {
  float s = 0.0f;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void relu_scalar(float* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_mask_scalar(float* g, const float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] <= 0.0f) g[i] = 0.0f;
  }
}

// kUnitBc1: bc1 == 1.0f, where m / bc1 is m itself for every float (signed
// zeros, subnormals, infinities and NaN included), so the divide is
// skipped. A first moment below FLT_MIN in magnitude is stored as +0 (the
// floor; NaN is kept), on every tier: simd.hpp. Out of line: the vector
// tiers hand it their tails, and inlined there its a * b + c would
// contract to FMA and change those elements' bits.
template <bool kUnitBc1>
[[gnu::noinline]] void adam_update_scalar(float* value, const float* grad,
                                          float* m, float* v, std::size_t n,
                                          float scale, float beta1,
                                          float beta2, float bc1, float bc2,
                                          float lr, float eps) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = grad[i] * scale;
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    if (std::fabs(m[i]) < FLT_MIN) m[i] = 0.0f;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = kUnitBc1 ? m[i] : m[i] / bc1;
    const float v_hat = v[i] / bc2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

// Baseline x86-64 code has no FMA, so these products are never fused. Out
// of line: the vector tiers hand it their tails, and inlined there the
// optimizer would contract t * s + keep * d into an FMA.
[[gnu::noinline]] void soft_update_scalar(float* d, const float* s,
                                          std::size_t n, float t,
                                          float keep) noexcept {
  for (std::size_t i = 0; i < n; ++i) d[i] = t * s[i] + keep * d[i];
}

[[gnu::noinline]] void add_column_sums_scalar(float* acc, const float* x,
                                              std::size_t m, std::size_t n,
                                              std::size_t ldx) noexcept {
  for (std::size_t r = 0; r < m; ++r) {
    const float* row = x + r * ldx;
    for (std::size_t j = 0; j < n; ++j) acc[j] += row[j];
  }
}

void gemm_nn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc,
                    Epilogue epilogue) noexcept {
  // ikj order streams B and C rows; the zero-skip makes post-ReLU
  // (sparse) left operands cheap.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    if (epilogue.bias != nullptr) std::copy_n(epilogue.bias, n, crow);
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = arow[p];
      if (aip == 0.0f) continue;
      const float* brow = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
    if (epilogue.relu) relu_scalar(crow, n);
  }
}

void gemm_tn_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc) noexcept {
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * lda;
    const float* brow = b + p * ldb;
    for (std::size_t i = 0; i < m; ++i) {
      const float api = arow[i];
      if (api == 0.0f) continue;
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

void gemm_nt_scalar(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
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
// max_ps(x, 0) returns its second operand unless x > 0, so NaN and -0.0
// become +0.0 exactly as in the scalar `x > 0 ? x : 0` — without the
// compare-and-branch GCC emits for that expression on mixed-sign data.
DEEPCAT_TARGET_AVX2 void relu_avx2(float* x, std::size_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) {
    _mm_store_ss(x + i, _mm_max_ss(_mm_load_ss(x + i), _mm_setzero_ps()));
  }
}

// Ordered <= compare: a NaN output keeps its gradient, as in the scalar
// `if (y <= 0) g = 0`.
DEEPCAT_TARGET_AVX2 void relu_mask_avx2(float* g, const float* y,
                                        std::size_t n) noexcept {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 dead =
        _mm256_cmp_ps(_mm256_loadu_ps(y + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(g + i, _mm256_andnot_ps(dead, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    if (y[i] <= 0.0f) g[i] = 0.0f;
  }
}

// Two rounded products and a rounded sum. This function is compiled with
// FMA, and an optimized build would contract t * s + keep * d into one:
// the empty asm hands both products over as opaque values, so the add
// cannot absorb either.
DEEPCAT_TARGET_AVX2 void soft_update_avx2(float* d, const float* s,
                                          std::size_t n, float t,
                                          float keep) noexcept {
  const __m256 vt = _mm256_set1_ps(t);
  const __m256 vkeep = _mm256_set1_ps(keep);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 ts = _mm256_mul_ps(vt, _mm256_loadu_ps(s + i));
    __m256 kd = _mm256_mul_ps(vkeep, _mm256_loadu_ps(d + i));
    asm("" : "+x"(ts), "+x"(kd));
    _mm256_storeu_ps(d + i, _mm256_add_ps(ts, kd));
  }
  if (i < n) soft_update_scalar(d + i, s + i, n - i, t, keep);
}

// V ymm strips of columns side by side, each summed down the rows in order
// in a register.
template <std::size_t V>
[[gnu::always_inline]] DEEPCAT_TARGET_AVX2 inline void column_strips_avx2(
    float* acc, const float* x, std::size_t m, std::size_t ldx) noexcept {
  __m256 sum[V];
#pragma GCC unroll 8
  for (std::size_t q = 0; q < V; ++q) sum[q] = _mm256_loadu_ps(acc + 8 * q);
  for (std::size_t r = 0; r < m; ++r) {
    const float* row = x + r * ldx;
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) {
      sum[q] = _mm256_add_ps(sum[q], _mm256_loadu_ps(row + 8 * q));
    }
  }
#pragma GCC unroll 8
  for (std::size_t q = 0; q < V; ++q) _mm256_storeu_ps(acc + 8 * q, sum[q]);
}

DEEPCAT_TARGET_AVX2 void add_column_sums_avx2(float* acc, const float* x,
                                              std::size_t m, std::size_t n,
                                              std::size_t ldx) noexcept {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) column_strips_avx2<4>(acc + j, x + j, m, ldx);
  for (; j + 8 <= n; j += 8) column_strips_avx2<1>(acc + j, x + j, m, ldx);
  if (j < n) add_column_sums_scalar(acc + j, x + j, m, n - j, ldx);
}

template <bool kUnitBc1>
DEEPCAT_TARGET_AVX2 void adam_update_avx2(
    float* value, const float* grad, float* m, float* v, std::size_t n,
    float scale, float beta1, float beta2, float bc1, float bc2, float lr,
    float eps) noexcept {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vomb1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vomb2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 vbc1 = _mm256_set1_ps(bc1);
  const __m256 vbc2 = _mm256_set1_ps(bc2);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  const __m256 vfloor = _mm256_set1_ps(FLT_MIN);
  const __m256 vsign = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(_mm256_loadu_ps(grad + i), vscale);
    __m256 mi = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(m + i),
                                _mm256_mul_ps(vomb1, g));
    // Below the floor (ordered, so NaN stays): +0.
    mi = _mm256_andnot_ps(
        _mm256_cmp_ps(_mm256_andnot_ps(vsign, mi), vfloor, _CMP_LT_OQ), mi);
    const __m256 vi = _mm256_fmadd_ps(
        vb2, _mm256_loadu_ps(v + i), _mm256_mul_ps(vomb2, _mm256_mul_ps(g, g)));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 m_hat = kUnitBc1 ? mi : _mm256_div_ps(mi, vbc1);
    const __m256 v_hat = _mm256_div_ps(vi, vbc2);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
    const __m256 update = _mm256_div_ps(_mm256_mul_ps(vlr, m_hat), denom);
    _mm256_storeu_ps(value + i,
                     _mm256_sub_ps(_mm256_loadu_ps(value + i), update));
  }
  if (i < n) {
    adam_update_scalar<kUnitBc1>(value + i, grad + i, m + i, v + i, n - i,
                                 scale, beta1, beta2, bc1, bc2, lr, eps);
  }
}

// Element (r, p) of a GEMM's left operand: row r of A for gemm_nn, column r
// of the stored (k x m) A for gemm_tn.
template <bool kTransA>
[[gnu::always_inline]] inline float a_at(const float* a, std::size_t lda,
                                         std::size_t r,
                                         std::size_t p) noexcept {
  return kTransA ? a[p * lda + r] : a[r * lda + p];
}

// The epilogue of the tile at column j: its bias columns start at j.
[[gnu::always_inline]] inline Epilogue from_column(Epilogue e,
                                                   std::size_t j) noexcept {
  if (e.bias != nullptr) e.bias += j;
  return e;
}

// Columns [j0, n) of R C rows that no vector tile covers: each output keeps
// its own sequential ascending-k chain (s += a*b from 0), the R chains side
// by side so the FMA latency overlaps, then adds it to C, or to the bias
// (what C holds after a bias copy), and stores it, through the ReLU if
// asked. This is the critic's n=1 output layer. Inlined into each tier, so
// the chains contract to FMA there whichever row path runs them.
template <bool kTransA, std::size_t R>
[[gnu::always_inline]] inline void tail_rows(
    std::size_t n, std::size_t k, std::size_t j0, const float* a,
    std::size_t lda, const float* b, std::size_t ldb, float* c,
    std::size_t ldc, Epilogue epilogue = {}) noexcept {
  for (std::size_t j = j0; j < n; ++j) {
    float s[R] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const float bv = b[p * ldb + j];
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        s[r] += a_at<kTransA>(a, lda, r, p) * bv;
      }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      float& out = c[r * ldc + j];
      const float sum =
          (epilogue.bias != nullptr ? epilogue.bias[j] : out) + s[r];
      out = epilogue.relu ? (sum > 0.0f ? sum : 0.0f) : sum;
    }
  }
}

// R C rows x V ymm columns += A * B, in R * V accumulators that stay
// resident across the whole k loop, each keeping its outputs'
// ascending-k chains from C (or from the epilogue's bias, the same values
// a bias copy would leave in C), so tile shapes change no bit. A elements
// are broadcast, B rows streamed: one B load feeds R FMAs. The ReLU, if
// asked, is relu_avx2's max_ps at the store.
template <bool kTransA, std::size_t R, std::size_t V>
[[gnu::always_inline]] DEEPCAT_TARGET_AVX2 inline void tile_avx2(
    std::size_t k, const float* a, std::size_t lda, const float* b,
    std::size_t ldb, float* c, std::size_t ldc,
    Epilogue epilogue = {}) noexcept {
  const bool seeded = epilogue.bias != nullptr;
  const float* seed = seeded ? epilogue.bias : c;
  const std::size_t ld_seed = seeded ? 0 : ldc;
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) {
      acc[r][q] = _mm256_loadu_ps(seed + r * ld_seed + 8 * q);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    __m256 bv[V];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) bv[q] = _mm256_loadu_ps(brow + 8 * q);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a_at<kTransA>(a, lda, r, p));
#pragma GCC unroll 8
      for (std::size_t q = 0; q < V; ++q) {
        acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
      }
    }
  }
  if (epilogue.relu) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
      for (std::size_t q = 0; q < V; ++q) {
        acc[r][q] = _mm256_max_ps(acc[r][q], _mm256_setzero_ps());
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) {
      _mm256_storeu_ps(c + r * ldc + 8 * q, acc[r][q]);
    }
  }
}

// 4x16, then 4x8 tiles; rows past the last 4-row block run 1x64 (8
// accumulators, so the FMAs of one k overlap), then 1x16 and 1x8. Both row
// paths leave the same n mod 8 columns to the scalar tail.
DEEPCAT_TARGET_AVX2 void gemm_nn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const float* a,
                                      std::size_t lda, const float* b,
                                      std::size_t ldb, float* c,
                                      std::size_t ldc,
                                      Epilogue epilogue) noexcept {
  const Epilogue& e = epilogue;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      tile_avx2<false, 4, 2>(k, ai, lda, b + j, ldb, ci + j, ldc,
                             from_column(e, j));
    }
    for (; j + 8 <= n; j += 8) {
      tile_avx2<false, 4, 1>(k, ai, lda, b + j, ldb, ci + j, ldc,
                             from_column(e, j));
    }
    tail_rows<false, 4>(n, k, j, ai, lda, b, ldb, ci, ldc, e);
  }
  for (; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 64 <= n; j += 64) {
      tile_avx2<false, 1, 8>(k, ai, lda, b + j, ldb, ci + j, ldc,
                             from_column(e, j));
    }
    for (; j + 16 <= n; j += 16) {
      tile_avx2<false, 1, 2>(k, ai, lda, b + j, ldb, ci + j, ldc,
                             from_column(e, j));
    }
    for (; j + 8 <= n; j += 8) {
      tile_avx2<false, 1, 1>(k, ai, lda, b + j, ldb, ci + j, ldc,
                             from_column(e, j));
    }
    tail_rows<false, 1>(n, k, j, ai, lda, b, ldb, ci, ldc, e);
  }
}

// The 4x16 gemm_nn tile with strided A broadcasts; every row path covers
// the same multiples of 16 columns.
DEEPCAT_TARGET_AVX2 void gemm_tn_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const float* a,
                                      std::size_t lda, const float* b,
                                      std::size_t ldb, float* c,
                                      std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      tile_avx2<true, 4, 2>(k, a + i, lda, b + j, ldb, c + i * ldc + j, ldc);
    }
    tail_rows<true, 4>(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      tile_avx2<true, 1, 2>(k, a + i, lda, b + j, ldb, c + i * ldc + j, ldc);
    }
    tail_rows<true, 1>(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
  }
}

// hsum8's tree: high 128 + low 128, then lanes {0,1} + lanes {2,3}, then
// lane 0 + lane 1.
DEEPCAT_TARGET_AVX2 inline float hsum8(__m256 v) noexcept {
  const __m128 h =
      _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 q = _mm_add_ps(h, _mm_movehl_ps(h, h));
  return _mm_cvtss_f32(_mm_add_ss(q, _mm_movehdup_ps(q)));
}

DEEPCAT_TARGET_AVX2 float dot_avx2(const float* a, const float* b,
                                   std::size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float s = hsum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                _mm256_add_ps(acc2, acc3)));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

// The k tail of one output: s += a*b for p in [kv, k), ascending. Compiled
// with FMA (the AVX-512 kernels use it too), so each step contracts to one
// fused multiply-add on every path that reaches it.
DEEPCAT_TARGET_AVX2 inline float nt_tail(float s, std::size_t kv,
                                         std::size_t k, const float* arow,
                                         const float* brow) noexcept {
  for (std::size_t p = kv; p < k; ++p) s += arow[p] * brow[p];
  return s;
}

// hsum8's tree for eight vectors at once. Returns {hsum8(v0), hsum8(v2),
// hsum8(v4), hsum8(v6), hsum8(v1), hsum8(v3), hsum8(v5), hsum8(v7)}: no
// lane ever meets another vector's, so a zero input costs nothing but its
// own output lane.
DEEPCAT_TARGET_AVX2 inline __m256 reduce8_avx2(const __m256 (&v)[8]) noexcept {
  __m256 h[4];  // [lo128 + hi128 of v[2i] | of v[2i + 1]]
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    h[i] = _mm256_add_ps(_mm256_permute2f128_ps(v[2 * i], v[2 * i + 1], 0x20),
                         _mm256_permute2f128_ps(v[2 * i], v[2 * i + 1], 0x31));
  }
  // Lanes {0,1} + lanes {2,3} of each half, two vectors per 128-bit lane.
  const __m256 q01 = _mm256_add_ps(_mm256_shuffle_ps(h[0], h[1], 0x44),
                                   _mm256_shuffle_ps(h[0], h[1], 0xEE));
  const __m256 q23 = _mm256_add_ps(_mm256_shuffle_ps(h[2], h[3], 0x44),
                                   _mm256_shuffle_ps(h[2], h[3], 0xEE));
  return _mm256_hadd_ps(q01, q23);
}

// Both operands are k-contiguous, so this is a batch of vector dots. Each
// output (i, j) runs one 8-lane FMA chain over p < kv, hsum8's tree, then
// its k tail in ascending p, and is then added to C. Row blocking (R A rows
// share every B-row load, 4 B rows at a time) and reducing the block's
// accumulators side by side change which outputs run together, never the
// order inside one output — so one call over m rows equals m one-row calls
// bit for bit. Leftover columns go through dot_avx2, exactly as a one-row
// call does.
template <std::size_t R>
DEEPCAT_TARGET_AVX2 void gemm_nt_rows_avx2(std::size_t n, std::size_t k,
                                           const float* a, std::size_t lda,
                                           const float* b, std::size_t ldb,
                                           float* c,
                                           std::size_t ldc) noexcept {
  static_assert(R == 1 || R == 2);
  const std::size_t kv = k & ~std::size_t{7};
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* bq[4] = {b + j * ldb, b + (j + 1) * ldb, b + (j + 2) * ldb,
                          b + (j + 3) * ldb};
    __m256 acc[2][4];  // a one-row block's second row stays zero
#pragma GCC unroll 2
    for (std::size_t r = 0; r < 2; ++r) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < kv; p += 8) {
      __m256 bv[4];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) bv[q] = _mm256_loadu_ps(bq[q] + p);
#pragma GCC unroll 2
      for (std::size_t r = 0; r < R; ++r) {
        const __m256 av = _mm256_loadu_ps(a + r * lda + p);
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
        }
      }
    }
    // Lanes 0-3: row 0, columns j..j+3; lanes 4-7: row 1.
    const __m256 sums = reduce8_avx2({acc[0][0], acc[1][0], acc[0][1],
                                      acc[1][1], acc[0][2], acc[1][2],
                                      acc[0][3], acc[1][3]});
    const __m128 row_sums[2] = {_mm256_castps256_ps128(sums),
                                _mm256_extractf128_ps(sums, 1)};
#pragma GCC unroll 2
    for (std::size_t r = 0; r < R; ++r) {
      float* crow = c + r * ldc + j;
      if (kv == k) {
        _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), row_sums[r]));
        continue;
      }
      alignas(16) float part[4];
      _mm_store_ps(part, row_sums[r]);
      for (std::size_t q = 0; q < 4; ++q) {
        crow[q] += nt_tail(part[q], kv, k, a + r * lda, bq[q]);
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
// reduce. Each output is C + (0 + a_0 b_0 + a_1 b_1 + ...) as ascending
// FMAs, eight columns at a time with B gathered at stride ldb, or loaded
// when ldb == 1: the critic's 128->1 output layer makes that k=1 call in
// every backward pass.
DEEPCAT_TARGET_AVX2 void gemm_nt_small_k_avx2(std::size_t m, std::size_t n,
                                              std::size_t k, const float* a,
                                              std::size_t lda, const float* b,
                                              std::size_t ldb, float* c,
                                              std::size_t ldc) noexcept {
  const __m256i idx =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(ldb)));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 sum = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const float* column = b + j * ldb + p;
        sum = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                              ldb == 1 ? _mm256_loadu_ps(column)
                                       : _mm256_i32gather_ps(column, idx, 4),
                              sum);
      }
      _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j), sum));
    }
    for (; j < n; ++j) crow[j] += nt_tail(0.0f, 0, k, arow, b + j * ldb);
  }
}

DEEPCAT_TARGET_AVX2 void gemm_nt_avx2(std::size_t m, std::size_t n,
                                      std::size_t k, const float* a,
                                      std::size_t lda, const float* b,
                                      std::size_t ldb, float* c,
                                      std::size_t ldc) noexcept {
  if (k < 8) {
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
// tier wherever both leave the same columns to the scalar tail); the
// dot-family reductions use wider accumulator trees and meet the tier
// contract only (simd.hpp).

// _mm512_reduce_add_pd's tree, high 256 + low 256, then high 128 + low
// 128, then lane 0 + lane 1, written out in zero-masked forms with every
// lane selected: GCC 12's unmasked 256-bit extract merges into an
// undefined register, which -Wmaybe-uninitialized flags once inlined. The
// GP and retrieval read these bits.
DEEPCAT_TARGET_AVX512 inline double reduce_add(__m512d v) noexcept {
  const __m256d h = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xF, v, 1),
                                  _mm512_maskz_extractf64x4_pd(0xF, v, 0));
  const __m128d q = _mm_add_pd(_mm256_extractf128_pd(h, 1),
                               _mm256_extractf128_pd(h, 0));
  return _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q));
}

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
  double s = reduce_add(_mm512_add_pd(
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
  double s = reduce_add(_mm512_add_pd(acc0, acc1));
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
  double s = reduce_add(_mm512_add_pd(acc0, acc1));
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

// GCC 12's unmasked forms of the max, sqrt, shuffle, extract and gather
// below merge into _mm512_undefined_ps(), which its -Wmaybe-uninitialized
// flags once inlined; the zero-masked forms with every lane selected are
// the same instructions.
constexpr __mmask16 kAllLanes = 0xFFFF;

DEEPCAT_TARGET_AVX512 void relu_avx512(float* x, std::size_t n) noexcept {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        x + i, _mm512_maskz_max_ps(kAllLanes, _mm512_loadu_ps(x + i), zero));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        x + i, tail,
        _mm512_maskz_max_ps(tail, _mm512_maskz_loadu_ps(tail, x + i), zero));
  }
}

// Stores +0.0 under the y <= 0 (ordered) mask; g is never loaded.
DEEPCAT_TARGET_AVX512 void relu_mask_avx512(float* g, const float* y,
                                            std::size_t n) noexcept {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_mask_storeu_ps(
        g + i, _mm512_cmp_ps_mask(_mm512_loadu_ps(y + i), zero, _CMP_LE_OQ),
        zero);
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(
        g + i,
        _mm512_mask_cmp_ps_mask(tail, _mm512_maskz_loadu_ps(tail, y + i),
                                zero, _CMP_LE_OQ),
        zero);
  }
}

// soft_update_avx2 at 16 lanes, the tail under a mask.
DEEPCAT_TARGET_AVX512 void soft_update_avx512(float* d, const float* s,
                                              std::size_t n, float t,
                                              float keep) noexcept {
  const __m512 vt = _mm512_set1_ps(t);
  const __m512 vkeep = _mm512_set1_ps(keep);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 ts = _mm512_mul_ps(vt, _mm512_loadu_ps(s + i));
    __m512 kd = _mm512_mul_ps(vkeep, _mm512_loadu_ps(d + i));
    asm("" : "+v"(ts), "+v"(kd));
    _mm512_storeu_ps(d + i, _mm512_add_ps(ts, kd));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1u << (n - i)) - 1u);
    __m512 ts = _mm512_mul_ps(vt, _mm512_maskz_loadu_ps(tail, s + i));
    __m512 kd = _mm512_mul_ps(vkeep, _mm512_maskz_loadu_ps(tail, d + i));
    asm("" : "+v"(ts), "+v"(kd));
    _mm512_mask_storeu_ps(d + i, tail, _mm512_add_ps(ts, kd));
  }
}

// column_strips_avx2 at 16 lanes; the last n mod 16 columns under a mask.
template <std::size_t V>
[[gnu::always_inline]] DEEPCAT_TARGET_AVX512 inline void column_strips_avx512(
    float* acc, const float* x, std::size_t m, std::size_t ldx,
    __mmask16 lanes = kAllLanes) noexcept {
  __m512 sum[V];
#pragma GCC unroll 8
  for (std::size_t q = 0; q < V; ++q) {
    sum[q] = _mm512_maskz_loadu_ps(lanes, acc + 16 * q);
  }
  for (std::size_t r = 0; r < m; ++r) {
    const float* row = x + r * ldx;
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) {
      sum[q] =
          _mm512_add_ps(sum[q], _mm512_maskz_loadu_ps(lanes, row + 16 * q));
    }
  }
#pragma GCC unroll 8
  for (std::size_t q = 0; q < V; ++q) {
    _mm512_mask_storeu_ps(acc + 16 * q, lanes, sum[q]);
  }
}

DEEPCAT_TARGET_AVX512 void add_column_sums_avx512(float* acc, const float* x,
                                                  std::size_t m, std::size_t n,
                                                  std::size_t ldx) noexcept {
  std::size_t j = 0;
  for (; j + 64 <= n; j += 64) column_strips_avx512<4>(acc + j, x + j, m, ldx);
  for (; j + 16 <= n; j += 16) column_strips_avx512<1>(acc + j, x + j, m, ldx);
  if (j < n) {
    column_strips_avx512<1>(acc + j, x + j, m, ldx,
                            static_cast<__mmask16>((1u << (n - j)) - 1u));
  }
}

template <bool kUnitBc1>
DEEPCAT_TARGET_AVX512 void adam_update_avx512(
    float* value, const float* grad, float* m, float* v, std::size_t n,
    float scale, float beta1, float beta2, float bc1, float bc2, float lr,
    float eps) noexcept {
  const __m512 vscale = _mm512_set1_ps(scale);
  const __m512 vb1 = _mm512_set1_ps(beta1);
  const __m512 vb2 = _mm512_set1_ps(beta2);
  const __m512 vomb1 = _mm512_set1_ps(1.0f - beta1);
  const __m512 vomb2 = _mm512_set1_ps(1.0f - beta2);
  const __m512 vbc1 = _mm512_set1_ps(bc1);
  const __m512 vbc2 = _mm512_set1_ps(bc2);
  const __m512 vlr = _mm512_set1_ps(lr);
  const __m512 veps = _mm512_set1_ps(eps);
  const __m512 vfloor = _mm512_set1_ps(FLT_MIN);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 g = _mm512_mul_ps(_mm512_loadu_ps(grad + i), vscale);
    __m512 mi = _mm512_fmadd_ps(vb1, _mm512_loadu_ps(m + i),
                                _mm512_mul_ps(vomb1, g));
    // Kept unless below the floor (unordered, so NaN stays); else +0.
    mi = _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(_mm512_abs_ps(mi), vfloor, _CMP_NLT_UQ), mi);
    const __m512 vi = _mm512_fmadd_ps(
        vb2, _mm512_loadu_ps(v + i), _mm512_mul_ps(vomb2, _mm512_mul_ps(g, g)));
    _mm512_storeu_ps(m + i, mi);
    _mm512_storeu_ps(v + i, vi);
    const __m512 m_hat = kUnitBc1 ? mi : _mm512_div_ps(mi, vbc1);
    const __m512 v_hat = _mm512_div_ps(vi, vbc2);
    const __m512 denom =
        _mm512_add_ps(_mm512_maskz_sqrt_ps(kAllLanes, v_hat), veps);
    const __m512 update = _mm512_div_ps(_mm512_mul_ps(vlr, m_hat), denom);
    _mm512_storeu_ps(value + i,
                     _mm512_sub_ps(_mm512_loadu_ps(value + i), update));
  }
  if (i < n) {
    adam_update_scalar<kUnitBc1>(value + i, grad + i, m + i, v + i, n - i,
                                 scale, beta1, beta2, bc1, bc2, lr, eps);
  }
}

// tile_avx2 at 16 lanes: R C rows x V zmm columns, each output's
// ascending-k chain from C or the bias, stored through relu_avx512's max if
// asked.
template <bool kTransA, std::size_t R, std::size_t V>
[[gnu::always_inline]] DEEPCAT_TARGET_AVX512 inline void tile_avx512(
    std::size_t k, const float* a, std::size_t lda, const float* b,
    std::size_t ldb, float* c, std::size_t ldc,
    Epilogue epilogue = {}) noexcept {
  const bool seeded = epilogue.bias != nullptr;
  const float* seed = seeded ? epilogue.bias : c;
  const std::size_t ld_seed = seeded ? 0 : ldc;
  __m512 acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) {
      acc[r][q] = _mm512_loadu_ps(seed + r * ld_seed + 16 * q);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = b + p * ldb;
    __m512 bv[V];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) bv[q] = _mm512_loadu_ps(brow + 16 * q);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a_at<kTransA>(a, lda, r, p));
#pragma GCC unroll 8
      for (std::size_t q = 0; q < V; ++q) {
        acc[r][q] = _mm512_fmadd_ps(av, bv[q], acc[r][q]);
      }
    }
  }
  if (epilogue.relu) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
      for (std::size_t q = 0; q < V; ++q) {
        acc[r][q] =
            _mm512_maskz_max_ps(kAllLanes, acc[r][q], _mm512_setzero_ps());
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (std::size_t q = 0; q < V; ++q) {
      _mm512_storeu_ps(c + r * ldc + 16 * q, acc[r][q]);
    }
  }
}

// 4x64 tiles (16 resident accumulators, so one broadcast feeds four FMAs),
// then 4x32 and 4x16. Rows past the last 4-row block run 1x128 tiles (8
// accumulators: a one-row probe layer's whole width), then 1x32 and 1x16.
// Both row paths leave the same n mod 16 columns to the scalar tail.
DEEPCAT_TARGET_AVX512 void gemm_nn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const float* a,
                                          std::size_t lda, const float* b,
                                          std::size_t ldb, float* c,
                                          std::size_t ldc,
                                          Epilogue epilogue) noexcept {
  const Epilogue& e = epilogue;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 64 <= n; j += 64) {
      tile_avx512<false, 4, 4>(k, ai, lda, b + j, ldb, ci + j, ldc,
                               from_column(e, j));
    }
    for (; j + 32 <= n; j += 32) {
      tile_avx512<false, 4, 2>(k, ai, lda, b + j, ldb, ci + j, ldc,
                               from_column(e, j));
    }
    for (; j + 16 <= n; j += 16) {
      tile_avx512<false, 4, 1>(k, ai, lda, b + j, ldb, ci + j, ldc,
                               from_column(e, j));
    }
    tail_rows<false, 4>(n, k, j, ai, lda, b, ldb, ci, ldc, e);
  }
  for (; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 128 <= n; j += 128) {
      tile_avx512<false, 1, 8>(k, ai, lda, b + j, ldb, ci + j, ldc,
                               from_column(e, j));
    }
    for (; j + 32 <= n; j += 32) {
      tile_avx512<false, 1, 2>(k, ai, lda, b + j, ldb, ci + j, ldc,
                               from_column(e, j));
    }
    for (; j + 16 <= n; j += 16) {
      tile_avx512<false, 1, 1>(k, ai, lda, b + j, ldb, ci + j, ldc,
                               from_column(e, j));
    }
    tail_rows<false, 1>(n, k, j, ai, lda, b, ldb, ci, ldc, e);
  }
}

// 8x32 tiles with strided A broadcasts (16 resident accumulators: one pair
// of B loads feeds 16 FMAs); the last m mod 8 rows run 4x32 and 1x32
// tiles. Every row path covers the same multiples of 32 columns.
DEEPCAT_TARGET_AVX512 void gemm_tn_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const float* a,
                                          std::size_t lda, const float* b,
                                          std::size_t ldb, float* c,
                                          std::size_t ldc) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      tile_avx512<true, 8, 2>(k, a + i, lda, b + j, ldb, c + i * ldc + j,
                              ldc);
    }
    tail_rows<true, 8>(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i + 4 <= m; i += 4) {
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      tile_avx512<true, 4, 2>(k, a + i, lda, b + j, ldb, c + i * ldc + j,
                              ldc);
    }
    tail_rows<true, 4>(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      tile_avx512<true, 1, 2>(k, a + i, lda, b + j, ldb, c + i * ldc + j,
                              ldc);
    }
    tail_rows<true, 1>(n, k, j, a + i, lda, b, ldb, c + i * ldc, ldc);
  }
}

// hsum16's tree: high 256 + low 256, then hsum8's (high 128 + low 128,
// lanes {0,1} + lanes {2,3}, lane 0 + lane 1), all in zmm registers.
DEEPCAT_TARGET_AVX512 inline float hsum16(__m512 v) noexcept {
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(kAllLanes, v, v, 0xEE));
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(kAllLanes, v, v, 0x01));
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_ps(kAllLanes, v, v, 0x0E));
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_ps(kAllLanes, v, v, 0x01));
  return _mm512_cvtss_f32(v);
}

DEEPCAT_TARGET_AVX512 float dot_avx512(const float* a, const float* b,
                                       std::size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                           _mm512_loadu_ps(b + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                           _mm512_loadu_ps(b + i + 48), acc3);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  float s = hsum16(_mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                 _mm512_add_ps(acc2, acc3)));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

// hsum16's tree for sixteen vectors at once: lane 4L + c of the result is
// hsum16(v[L + 4c]). No lane ever meets another vector's, so zero inputs
// cost nothing but their own output lanes.
DEEPCAT_TARGET_AVX512 inline __m512 reduce16_avx512(
    const __m512 (&v)[16]) noexcept {
  __m512 t[8];  // [lo256 + hi256 of v[2i] | of v[2i + 1]]
#pragma GCC unroll 8
  for (std::size_t i = 0; i < 8; ++i) {
    const __m512 a = v[2 * i], b = v[2 * i + 1];
    t[i] = _mm512_add_ps(_mm512_maskz_shuffle_f32x4(kAllLanes, a, b, 0x44),
                         _mm512_maskz_shuffle_f32x4(kAllLanes, a, b, 0xEE));
  }
  __m512 h[4];  // lo128 + hi128 of each half: four vectors per register
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    const __m512 a = t[2 * i], b = t[2 * i + 1];
    h[i] = _mm512_add_ps(_mm512_maskz_shuffle_f32x4(kAllLanes, a, b, 0x88),
                         _mm512_maskz_shuffle_f32x4(kAllLanes, a, b, 0xDD));
  }
  __m512 q[2];  // lanes {0,1} + lanes {2,3}: two vectors per 128-bit lane
#pragma GCC unroll 2
  for (std::size_t i = 0; i < 2; ++i) {
    const __m512 a = h[2 * i], b = h[2 * i + 1];
    q[i] = _mm512_add_ps(_mm512_maskz_shuffle_ps(kAllLanes, a, b, 0x44),
                         _mm512_maskz_shuffle_ps(kAllLanes, a, b, 0xEE));
  }
  // Lane 0 + lane 1 of each pair.
  return _mm512_add_ps(_mm512_maskz_shuffle_ps(kAllLanes, q[0], q[1], 0x88),
                       _mm512_maskz_shuffle_ps(kAllLanes, q[0], q[1], 0xDD));
}

// gemm_nt_rows_avx2 at 16 lanes with four A rows per block: one
// reduce16_avx512 sums the block's 16 outputs with hsum16's tree each.
template <std::size_t R>
DEEPCAT_TARGET_AVX512 void gemm_nt_rows_avx512(
    std::size_t n, std::size_t k, const float* a, std::size_t lda,
    const float* b, std::size_t ldb, float* c, std::size_t ldc) noexcept {
  static_assert(R == 1 || R == 4);
  const std::size_t kv = k & ~std::size_t{15};
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* bq[4] = {b + j * ldb, b + (j + 1) * ldb, b + (j + 2) * ldb,
                          b + (j + 3) * ldb};
    __m512 acc[16];  // acc[r + 4q]: row r, column j + q; rows >= R stay 0
#pragma GCC unroll 16
    for (std::size_t i = 0; i < 16; ++i) acc[i] = _mm512_setzero_ps();
    for (std::size_t p = 0; p < kv; p += 16) {
      __m512 bv[4];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) bv[q] = _mm512_loadu_ps(bq[q] + p);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m512 av = _mm512_loadu_ps(a + r * lda + p);
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          acc[r + 4 * q] = _mm512_fmadd_ps(av, bv[q], acc[r + 4 * q]);
        }
      }
    }
    // Lanes 4r..4r+3: row r, columns j..j+3.
    const __m512 sums = reduce16_avx512(acc);
    const __m128 row_sums[4] = {_mm512_maskz_extractf32x4_ps(0xF, sums, 0),
                                _mm512_maskz_extractf32x4_ps(0xF, sums, 1),
                                _mm512_maskz_extractf32x4_ps(0xF, sums, 2),
                                _mm512_maskz_extractf32x4_ps(0xF, sums, 3)};
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      float* crow = c + r * ldc + j;
      if (kv == k) {
        _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), row_sums[r]));
        continue;
      }
      alignas(16) float part[4];
      _mm_store_ps(part, row_sums[r]);
      for (std::size_t q = 0; q < 4; ++q) {
        crow[q] += nt_tail(part[q], kv, k, a + r * lda, bq[q]);
      }
    }
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      c[r * ldc + j] += dot_avx512(a + r * lda, b + j * ldb, k);
    }
  }
}

// gemm_nt_small_k_avx2 at 16 lanes, B loaded when ldb == 1.
DEEPCAT_TARGET_AVX512 void gemm_nt_small_k_avx512(
    std::size_t m, std::size_t n, std::size_t k, const float* a,
    std::size_t lda, const float* b, std::size_t ldb, float* c,
    std::size_t ldc) noexcept {
  const __m512i idx = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(ldb)));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512 sum = _mm512_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const float* at = b + j * ldb + p;
// Unoptimized, the gather is a macro that hands the mask to a builtin
// taking a signed short, and -Wsign-conversion flags kAllLanes here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-conversion"
        const __m512 column =
            ldb == 1 ? _mm512_loadu_ps(at)
                     : _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                                kAllLanes, idx, at, 4);
#pragma GCC diagnostic pop
        sum = _mm512_fmadd_ps(_mm512_set1_ps(arow[p]), column, sum);
      }
      _mm512_storeu_ps(crow + j, _mm512_add_ps(_mm512_loadu_ps(crow + j), sum));
    }
    for (; j < n; ++j) crow[j] += nt_tail(0.0f, 0, k, arow, b + j * ldb);
  }
}

DEEPCAT_TARGET_AVX512 void gemm_nt_avx512(std::size_t m, std::size_t n,
                                          std::size_t k, const float* a,
                                          std::size_t lda, const float* b,
                                          std::size_t ldb, float* c,
                                          std::size_t ldc) noexcept {
  if (k < 16) {
    gemm_nt_small_k_avx512(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // 16 B rows at a time against every A row block, so those B rows stay
  // in L1 across the blocks. Groups start at multiples of 4 columns, so
  // each output reduces exactly as in one pass over all n.
  for (std::size_t j = 0; j < n; j += 16) {
    const std::size_t nj = std::min<std::size_t>(16, n - j);
    const float* bj = b + j * ldb;
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
  unsigned long long total[3] = {};
  for (const DispatchSlot& slot : g_dispatch_slots) {
    for (std::size_t be = 0; be < 3; ++be) {
      total[be] += slot.calls[be].load(std::memory_order_relaxed);
    }
  }
  return {total[0], total[1], total[2]};
}

void reset_dispatch_counts() noexcept {
  for (DispatchSlot& slot : g_dispatch_slots) {
    for (auto& calls : slot.calls) calls.store(0, std::memory_order_relaxed);
  }
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

float dot(const float* a, const float* b, std::size_t n) noexcept {
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

void relu(float* x, std::size_t n) noexcept {
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

void relu_mask(float* g, const float* y, std::size_t n) noexcept {
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

void soft_update(float* d, const float* s, std::size_t n, float t,
                 float keep) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      soft_update_avx512(d, s, n, t, keep);
      return;
    case Backend::kAvx2:
      soft_update_avx2(d, s, n, t, keep);
      return;
    default:
      break;
  }
#endif
  soft_update_scalar(d, s, n, t, keep);
}

void add_column_sums(float* acc, const float* x, std::size_t m, std::size_t n,
                     std::size_t ldx) noexcept {
#if DEEPCAT_SIMD_X86
  switch (active_backend()) {
    case Backend::kAvx512:
      add_column_sums_avx512(acc, x, m, n, ldx);
      return;
    case Backend::kAvx2:
      add_column_sums_avx2(acc, x, m, n, ldx);
      return;
    default:
      break;
  }
#endif
  add_column_sums_scalar(acc, x, m, n, ldx);
}

void adam_update(float* value, const float* grad, float* m, float* v,
                 std::size_t n, float scale, float beta1, float beta2,
                 float bc1, float bc2, float lr, float eps) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
  const bool unit_bc1 = bc1 == 1.0f;
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

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, Epilogue epilogue) noexcept {
  const Backend be = active_backend();
  count_dispatch(be);
#if DEEPCAT_SIMD_X86
  switch (be) {
    case Backend::kAvx512:
      gemm_nn_avx512(m, n, k, a, lda, b, ldb, c, ldc, epilogue);
      return;
    case Backend::kAvx2:
      gemm_nn_avx2(m, n, k, a, lda, b, ldb, c, ldc, epilogue);
      return;
    default:
      break;
  }
#endif
  gemm_nn_scalar(m, n, k, a, lda, b, ldb, c, ldc, epilogue);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
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

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
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
