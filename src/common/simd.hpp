// Vectorized numeric kernels with runtime dispatch — the single home for
// every SIMD code path in the library (SimSIMD-style: one scalar reference
// implementation per kernel, one implementation per ISA tier, and a
// dispatcher that picks at runtime). Everything above this layer (Matrix,
// Adam, the GP solver) calls these raw-pointer kernels and never touches
// intrinsics.
//
// ISA ladder: scalar < avx2+fma < avx512. Dispatch resolves the active
// tier per call from, in priority order:
//   1. compile-time: non-x86 targets, or -DDEEPCAT_DISABLE_SIMD=ON, build
//      only the scalar kernels;
//   2. process start: DEEPCAT_SIMD=scalar|avx2|avx512 caps the ladder
//      (values above what the CPU supports clamp down);
//   3. runtime: force_backend() lowers the cap programmatically (used by
//      the property tests and bench_micro to compare tiers in one
//      process) — it can never raise it above the startup cap;
//   4. otherwise the highest tier the CPU supports runs.
//
// Numerical contract: vectorized kernels may reassociate reductions and
// contract mul+add into FMA, so results can differ between tiers in the
// last bits. The property tests bound the divergence at 1e-12 for the
// shapes the library uses. Broadcast-style GEMM kernels (gemm_nn/gemm_tn)
// keep each output element's FMA chain in ascending-k order on every tier,
// so those agree bit-for-bit across vector tiers; dot-style reductions
// (dot, gemm_nt) use per-tier accumulator trees and only meet the 1e-12
// contract. Within one tier the register-blocked gemm_nt and gemm_tn are
// row-invariant: the C rows of one m-row call equal those of m one-row
// calls bit for bit, because row blocking only decides which outputs run
// side by side. gemm_nn is too unless n mod 16 >= 8
// (avx512) or n mod 8 >= 4 (avx2): its 4-row tiles run one narrower vector
// tile that the one-row path leaves to the scalar tail.
#pragma once

#include <cstddef>

namespace deepcat::common::simd {

// ---- ISA ladder ----------------------------------------------------------

/// Dispatch tiers, ordered: a numerically-larger Backend is a wider ISA.
enum class Backend : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The tier kernels dispatch to right now (CPU capability, env cap and
/// programmatic cap all applied).
[[nodiscard]] Backend active_backend() noexcept;

/// Highest tier the CPU + compile flags support, ignoring the DEEPCAT_SIMD
/// cap and force_backend(). What `deepcat info` reports as "detected".
[[nodiscard]] Backend detected_backend() noexcept;

/// Highest tier selectable in this process: detected_backend() clamped by
/// the environment cap fixed at startup. force_backend() can pick any tier
/// at or below this.
[[nodiscard]] Backend max_backend() noexcept;

/// True when `b` can be activated via force_backend() in this process.
[[nodiscard]] bool backend_selectable(Backend b) noexcept;

/// Stable label for a tier: "scalar", "avx2+fma" or "avx512".
[[nodiscard]] const char* backend_label(Backend b) noexcept;

/// Label of the active tier — backend_label(active_backend()).
[[nodiscard]] const char* backend_name() noexcept;

/// Comma-joined ladder of detected tiers, lowest first, e.g.
/// "scalar,avx2+fma,avx512" on an AVX-512 machine.
[[nodiscard]] const char* isa_ladder() noexcept;

/// Caps dispatch at `cap` until changed (clamped to max_backend()).
/// Backend::kAvx512 removes the programmatic cap. Not thread-safe against
/// concurrent kernel calls; toggle only from a single thread with no
/// kernels in flight.
void force_backend(Backend cap) noexcept;

/// True when any vector tier is the active backend.
[[nodiscard]] bool vectorized_active() noexcept;

/// True when the vector kernels were compiled in at all (x86 target and no
/// -DDEEPCAT_DISABLE_SIMD). vectorized_active() can still be false at
/// runtime (CPU support, env caps, force_backend()).
[[nodiscard]] bool vector_compiled() noexcept;

// ---- Backend-dispatch accounting ----------------------------------------
// Counts how many *chunky* kernel calls resolved to each tier — the GEMM
// family and the Adam updates, one increment per call. The tiny
// level-1 primitives (dot/axpy/sum) are deliberately uncounted: dot runs
// per matrix row inside the GP Cholesky, so even a relaxed fetch_add
// there would be a measurable hot-path tax. bench_micro and the kernel
// tests read these totals to prove which tier ran.

struct DispatchCounts {
  unsigned long long scalar_calls = 0;
  unsigned long long avx2_calls = 0;
  unsigned long long avx512_calls = 0;
};

/// Snapshot of the process-wide dispatch counters.
[[nodiscard]] DispatchCounts dispatch_counts() noexcept;

/// Zeroes all counters (tests and bench runs isolate their own windows).
void reset_dispatch_counts() noexcept;

// ---- Level-1 primitives -------------------------------------------------

/// Inner product sum(a[i] * b[i]).
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// Squared Euclidean distance sum((a[i] - b[i])^2).
[[nodiscard]] double squared_distance(const double* a, const double* b,
                                      std::size_t n) noexcept;

// ---- Batched distance kernels -------------------------------------------
// One query vector against a dense row-major matrix — the retrieval
// index's k-NN scan (SimSIMD-style: the whole matrix sweep is one
// dispatched call, so these count toward DispatchCounts like the GEMM
// family). Per-row reductions use each tier's accumulator tree and meet
// the 1e-12 contract; the cosine epilogue is the identical scalar formula
// on every tier.

/// out[r] = sum_j (query[j] - rows[r*dim + j])^2 for r in [0, n_rows).
void squared_distances(const double* query, const double* rows,
                       std::size_t n_rows, std::size_t dim,
                       double* out) noexcept;

/// out[r] = 1 - dot(query, row_r) / sqrt(|query|^2 * |row_r|^2), the
/// cosine distance in [0, 2]. A zero-norm query or row yields 1.0 (no
/// directional information — maximally non-similar without being
/// anti-aligned) on every backend.
void cosine_distances(const double* query, const double* rows,
                      std::size_t n_rows, std::size_t dim,
                      double* out) noexcept;

/// sum(a[i]).
[[nodiscard]] double sum(const double* a, std::size_t n) noexcept;

/// sum(a[i]^2) — the gradient-clipping reduction.
[[nodiscard]] double sum_squares(const double* a, std::size_t n) noexcept;

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept;

/// x[i] = x[i] > 0 ? x[i] : 0 in place — the ReLU forward. Branch-free on
/// the vector tiers (max_pd(x, 0)), with the scalar expression's exact
/// results on every tier: NaN and -0.0 map to +0.0.
void relu(double* x, std::size_t n) noexcept;

/// g[i] = 0 where y[i] <= 0 (ordered compare, so a NaN y keeps g[i]) —
/// the ReLU backward mask from the activation output `y`.
void relu_mask(double* g, const double* y, std::size_t n) noexcept;

/// Fused Adam parameter update over one flat tensor:
///   g      = grad[i] * scale
///   m[i]   = beta1 * m[i] + (1 - beta1) * g
///   v[i]   = beta2 * v[i] + (1 - beta2) * g^2
///   value[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + eps)
/// Identical formula on every backend (bias corrections passed as the
/// divisors bc1/bc2, exactly like the scalar reference). At bc1 == 1.0
/// (t >= 356 at beta1 = 0.9) the m / bc1 divide is skipped: dividing by
/// 1.0 returns every double unchanged, so no bit moves.
void adam_update(double* value, const double* grad, double* m, double* v,
                 std::size_t n, double scale, double beta1, double beta2,
                 double bc1, double bc2, double lr, double eps) noexcept;

// ---- Level-3 GEMM kernels ----------------------------------------------
// All accumulate into C (C += ...), so the caller controls the epilogue
// start state: zero-filled for a plain product, bias-broadcast rows for the
// fused linear-layer forward. Leading dimensions are element strides.
// Every variant dispatches across the ISA ladder to one register-blocked
// kernel per vector tier, or to the scalar reference loop.

/// C(m x n) += A(m x k) * B(k x n). Register-blocked broadcast-A /
/// streamed-B micro-kernel on the vector tiers (4x8 on avx2; 4x32, then
/// 4x16 and 4x8, on avx512); the scalar path is the cache-friendly ikj
/// loop with a zero-skip on A (which makes post-ReLU activations cheap).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept;

/// C(m x n) += A^T * B where A is stored (k x m): C[i][j] += A[p][i]*B[p][j].
/// The gemm_nn tiles with strided A broadcasts (4x8 on avx2; 8x16, then
/// 4x16, on avx512).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept;

/// C(m x n) += A * B^T where B is stored (n x k): C[i][j] += dot(A[i], B[j]).
/// Row blocks of A against groups of B rows (4 at a time; on avx512 every
/// row block passes over 16 B rows before the next 16).
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) noexcept;

}  // namespace deepcat::common::simd
