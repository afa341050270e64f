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
// last bits; relu, relu_mask, soft_update and add_column_sums do neither
// and return the scalar reference's bits on every tier. The double kernels (the GP's and retrieval's) stay within
// 1e-12 of a plain-order reference; the float kernels (the networks' and
// Adam's) within (k + 2) * FLT_EPSILON * sum |a_p * b_p| for a k-term
// product, the classic bound for any summation order. Broadcast-style GEMM
// kernels (gemm_nn/gemm_tn) keep each output element's FMA chain in
// ascending-k order on every tier, so those agree bit-for-bit across vector
// tiers wherever both tiers leave the same columns to the scalar tail
// (whose chain starts from 0, then adds to C): for gemm_nn when
// n mod 16 < 8, for gemm_tn when n mod 32 < 16. Dot-style reductions (dot,
// gemm_nt) use per-tier accumulator trees and only meet the bound. Within
// one tier every GEMM is row-invariant: the C rows of one m-row call equal
// those of m one-row calls bit for bit, because row blocking only decides
// which outputs run side by side, and every row path's vector tiles cover
// the same columns (multiples of 8 floats on avx2 and 16 on avx512 for
// gemm_nn, of 16 and 32 for gemm_tn).
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
// family, the Adam updates and the batched distance scans, one increment
// per call. The tiny level-1 primitives (dot/axpy/sum) are deliberately
// uncounted: dot runs per matrix row inside the GP Cholesky, so even a
// relaxed fetch_add there would be a measurable hot-path tax. Each thread
// bumps its own cache-line-padded slot (handed out round-robin over a fixed
// array), so threads probing one network side by side never write a shared
// line. bench_micro and the kernel tests read these totals to prove which
// tier ran.

struct DispatchCounts {
  unsigned long long scalar_calls = 0;
  unsigned long long avx2_calls = 0;
  unsigned long long avx512_calls = 0;
};

/// The process-wide totals: every thread's slot, summed.
[[nodiscard]] DispatchCounts dispatch_counts() noexcept;

/// Zeroes every slot (tests and bench runs isolate their own windows).
void reset_dispatch_counts() noexcept;

// ---- Level-1 primitives -------------------------------------------------

/// Inner product sum(a[i] * b[i]).
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;
/// The float overload, accumulated in float lanes: the networks' gradient
/// clip norm, one call per tensor.
[[nodiscard]] float dot(const float* a, const float* b,
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

/// sum(a[i]^2).
[[nodiscard]] double sum_squares(const double* a, std::size_t n) noexcept;

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::size_t n) noexcept;

// ---- Network kernels (float) --------------------------------------------
// The TD3/DDPG networks and their Adam moments are float32, as in the
// paper's PyTorch (its default dtype), so these take floats only: an
// AVX-512 register holds 16 of them.

/// x[i] = x[i] > 0 ? x[i] : 0 in place — the ReLU forward. Branch-free on
/// the vector tiers (max_ps(x, 0)), with the scalar expression's exact
/// results on every tier: NaN and -0.0 map to +0.0.
void relu(float* x, std::size_t n) noexcept;

/// g[i] = 0 where y[i] <= 0 (ordered compare, so a NaN y keeps g[i]) —
/// the ReLU backward mask from the activation output `y`.
void relu_mask(float* g, const float* y, std::size_t n) noexcept;

/// d[i] = t * s[i] + keep * d[i] — a target network's soft update, with
/// t = tau and keep = 1 - tau. Every element is two rounded products and a
/// rounded sum on every tier and build type, never an FMA: the vector
/// tiers keep the products apart from the add, so an optimizer that
/// contracts a * b + c * d inside an FMA-enabled kernel cannot fuse them.
/// Element-wise, so any cut of [0, n) into calls gives the same bits.
void soft_update(float* d, const float* s, std::size_t n, float t,
                 float keep) noexcept;

/// acc[j] += x[r * ldx + j] for r = 0, 1, ..., m - 1 in that order, for
/// j < n: a bias gradient's column sums. Each column is one sequential
/// chain of rounded adds in row order, the plain loop's, on every tier.
void add_column_sums(float* acc, const float* x, std::size_t m, std::size_t n,
                     std::size_t ldx) noexcept;

/// Fused Adam parameter update over one flat tensor:
///   g      = grad[i] * scale
///   m[i]   = beta1 * m[i] + (1 - beta1) * g, stored as +0 if below FLT_MIN
///   v[i]   = beta2 * v[i] + (1 - beta2) * g^2
///   value[i] -= lr * (m[i] / bc1) / (sqrt(v[i] / bc2) + eps)
/// Identical formula on every backend (bias corrections passed as the
/// divisors bc1/bc2, exactly like the scalar reference). The floor on m is
/// for weights whose gradient is exactly 0 (a dead ReLU unit's): their m
/// shrinks by beta1 per step into float's subnormal range, where every
/// multiply takes a microcode assist (a critic step ran 4-8x slower);
/// stored as +0 it costs nothing, and an update below FLT_MIN * lr / eps
/// moves no weight of normal magnitude. It is explicit arithmetic on every
/// tier and thread, not the FTZ/DAZ control bits, which stay untouched.
/// At bc1 == 1.0f (t >= 165 at beta1 = 0.9, once 0.9^t is below half a
/// float ulp of 1) the m / bc1 divide is skipped: dividing by 1.0f returns
/// every float unchanged, so no bit moves. Elements past the last full
/// vector run the scalar formula, so a caller that splits a tensor at
/// multiples of 16 elements reproduces one whole call.
void adam_update(float* value, const float* grad, float* m, float* v,
                 std::size_t n, float scale, float beta1, float beta2,
                 float bc1, float bc2, float lr, float eps) noexcept;

// ---- Level-3 GEMM kernels (float) --------------------------------------
// gemm_tn and gemm_nt accumulate into C (C += ...), so the caller controls
// the start state (zero-filled for a plain product); gemm_nn can instead
// start from a bias row and end in a ReLU (its Epilogue), the fused
// linear-layer forward. Leading dimensions are element strides. Every
// variant dispatches across the ISA ladder to one register-blocked kernel
// per vector tier, or to the scalar reference loop.

/// Where each gemm_nn output starts and how it is stored. The default is
/// C += A * B.
struct Epilogue {
  /// When set, C = bias + A * B: bias[j] seeds column j of every row and C
  /// is not read. Each output is then the bias row copied into C followed
  /// by the accumulating call, bit for bit: the vector tiles seed their
  /// accumulators from it, and the scalar tail's chain from 0 is added to
  /// it, as `c += s` adds it to a bias-seeded C.
  const float* bias = nullptr;
  /// When set, each output is stored as relu()'s x > 0 ? x : 0 (so NaN and
  /// -0.0 store +0.0): at the vector tiles' stores, after the tail's add.
  bool relu = false;
};

/// C(m x n) = epilogue(A(m x k) * B(k x n)), by default C += A * B.
/// Register-blocked broadcast-A / streamed-B micro-kernel on the vector
/// tiers (4x16, then 4x8, on avx2; 4x64, then 4x32 and 4x16, on avx512);
/// rows past the last 4-row block run one-row tiles as wide as the
/// registers hold (1x64, then 1x16 and 1x8, on avx2; 1x128 — a probe
/// layer's whole width in 8 registers — then 1x32 and 1x16, on avx512).
/// The scalar path is the cache-friendly ikj loop with a zero-skip on A
/// (which makes post-ReLU activations cheap), one row at a time: the bias
/// copied in first, relu() over the row last.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc, Epilogue epilogue = {}) noexcept;

/// C(m x n) += A^T * B where A is stored (k x m): C[i][j] += A[p][i]*B[p][j].
/// The gemm_nn tiles with strided A broadcasts (4x16 on avx2; 8x32, then
/// 4x32, on avx512).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc) noexcept;

/// C(m x n) += A * B^T where B is stored (n x k): C[i][j] += dot(A[i], B[j]).
/// Row blocks of A against groups of 4 B rows (2 A rows at a time on avx2;
/// 4 on avx512, where every row block passes over 16 B rows before the
/// next 16); a block's reduced sums go to C straight from the register
/// lanes. Below the lane width in k, each output is an ascending FMA chain
/// from 0 over B columns, loaded when ldb == 1 (a k = 1 call, the critic's
/// output layer) and gathered otherwise.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             std::size_t lda, const float* b, std::size_t ldb, float* c,
             std::size_t ldc) noexcept;

}  // namespace deepcat::common::simd
