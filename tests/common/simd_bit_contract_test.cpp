// The bit contract the TD3 train step relies on, checked on every ISA tier
// this process can select:
//   - the ReLU forward and backward-mask kernels return exactly what the
//     scalar expressions `x > 0 ? x : 0` and `if (y <= 0) g = 0` return,
//     on signed zeros, NaN, infinities and denormals, at every length from
//     0 to 3 x lanes + 1, and never write past the end;
//   - adam_update stores a first moment below FLT_MIN as +0 and keeps
//     every other one, NaN included;
//   - gemm_nn, gemm_tn and gemm_nt over m rows equal m one-row calls bit
//     for bit at the shapes one train step runs, so row blocking and the
//     batched reductions reorder nothing inside an output (the split train
//     step cuts these calls by rows);
//   - gemm_nn and gemm_tn agree bit for bit between avx2 and avx512 at
//     those shapes: their tiles differ, the chains inside an output do not;
//   - gemm_nn's one-row path (act and the Twin-Q probes, one layer per
//     call) at the inference shapes and past one 1x128 tile: every column a
//     vector tile covers is its ascending-k FMA chain from C, rows equal a
//     4-row call's (both row paths cover the same multiples of 8 floats on
//     avx2 and of 16 on avx512), and the tiers agree wherever both leave
//     the same columns to the scalar tail (n mod 16 < 8);
//   - soft_update is two rounded products and a rounded sum, never an FMA,
//     and a split at multiples of 16 elements equals one whole call;
//   - add_column_sums adds the rows to each column in row order;
//   - gemm_nn's bias epilogue equals the bias copied into C, the
//     accumulating gemm_nn and relu() (when asked), at the forward shapes
//     and at every row cut a split forward makes, without reading C.
// Everything here is float, the networks' type.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace deepcat::common::simd {
namespace {

std::vector<Backend> selectable_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (backend_selectable(b)) out.push_back(b);
  }
  return out;
}

class BackendGuard {
 public:
  ~BackendGuard() { force_backend(Backend::kAvx512); }
};

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// Special values first, then ordinary ones of both signs, cycled to any
// length.
std::vector<float> edge_values(std::size_t n, std::size_t shift) {
  using limits = std::numeric_limits<float>;
  const float kValues[] = {
      -0.0f,
      0.0f,
      limits::quiet_NaN(),
      -limits::quiet_NaN(),
      limits::infinity(),
      -limits::infinity(),
      limits::denorm_min(),
      -limits::denorm_min(),
      limits::min() / 4.0f,
      -limits::min() / 4.0f,
      1.5f,
      -2.25f,
      limits::max(),
      -limits::max(),
  };
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = kValues[(i + shift) % std::size(kValues)];
  }
  return v;
}

// 3 x 16 + 1: every tail length of the widest (16-lane) tier, three times.
constexpr std::size_t kMaxLength = 3 * 16 + 1;
constexpr float kSentinel = 12345.0f;

TEST(SimdBitContractTest, ReluEqualsScalarExpressionOnEveryTier) {
  BackendGuard guard;
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      for (std::size_t shift = 0; shift < 14; shift += 5) {
        std::vector<float> x = edge_values(n, shift);
        std::vector<float> expected = x;
        for (float& v : expected) v = v > 0.0f ? v : 0.0f;
        x.push_back(-kSentinel);  // must survive: it is past the end
        relu(x.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(x[i]), bits(expected[i]))
              << backend_label(be) << " n=" << n << " i=" << i;
        }
        EXPECT_EQ(x[n], -kSentinel) << backend_label(be) << " n=" << n;
      }
    }
  }
}

TEST(SimdBitContractTest, ReluMaskEqualsScalarExpressionOnEveryTier) {
  BackendGuard guard;
  Rng rng(17);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      for (std::size_t shift = 0; shift < 14; shift += 3) {
        const std::vector<float> y = edge_values(n, shift);
        std::vector<float> g(n);
        for (float& v : g) v = static_cast<float>(rng.normal());
        // Gradients carry special values too: a masked -0.0 or NaN
        // gradient must still become +0.0.
        if (n > 2) {
          g[0] = -0.0f;
          g[n / 2] = std::numeric_limits<float>::quiet_NaN();
        }
        std::vector<float> expected = g;
        for (std::size_t i = 0; i < n; ++i) {
          if (y[i] <= 0.0f) expected[i] = 0.0f;
        }
        g.push_back(kSentinel);
        relu_mask(g.data(), y.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(g[i]), bits(expected[i]))
              << backend_label(be) << " n=" << n << " i=" << i;
        }
        EXPECT_EQ(g[n], kSentinel) << backend_label(be) << " n=" << n;
      }
    }
  }
}

// adam_update's first-moment floor: on every tier and at every tail
// length, a moment whose update lands below FLT_MIN in magnitude (a dead
// unit's decaying m, which would otherwise go subnormal) is stored as +0;
// NaN, infinities and moments at or above FLT_MIN are kept as computed.
TEST(SimdBitContractTest, AdamFirstMomentFloorOnEveryTier) {
  BackendGuard guard;
  using limits = std::numeric_limits<float>;
  // m before; the gradient is 0, so m after = 0.9 m.
  const float kM[] = {limits::min() * 1.05f,   // 0.9 m is subnormal
                      -limits::min() * 1.05f,  // likewise, negative
                      limits::denorm_min(),    // already subnormal
                      limits::min() * 2.0f,    // 0.9 m stays normal
                      limits::quiet_NaN(),     // kept
                      -limits::infinity(),     // kept
                      -0.0f,                   // 0.9 * -0 + 0.1 * 0 = +0
                      0.5f};
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      std::vector<float> value(n, 1.0f), grad(n, 0.0f), m(n), v(n, 1e-6f);
      for (std::size_t i = 0; i < n; ++i) m[i] = kM[i % std::size(kM)];
      adam_update(value.data(), grad.data(), m.data(), v.data(), n, 1.0f,
                  0.9f, 0.999f, 1.0f, 0.5f, 1e-3f, 1e-8f);
      for (std::size_t i = 0; i < n; ++i) {
        const float before = kM[i % std::size(kM)];
        const std::string where = std::string(backend_label(be)) +
                                  " n=" + std::to_string(n) +
                                  " i=" + std::to_string(i);
        if (std::isnan(before)) {
          EXPECT_TRUE(std::isnan(m[i])) << where;
          continue;
        }
        const float after = 0.9f * before;  // + 0.1 * 0: exact either way
        if (std::abs(after) < limits::min()) {
          EXPECT_EQ(bits(m[i]), bits(0.0f)) << where;
        } else {
          EXPECT_EQ(bits(m[i]), bits(after)) << where;
        }
      }
    }
  }
}

// NaN payloads are not part of the contract: a NaN must stay a NaN.
bool same_float(float got, float want) {
  return std::isnan(want) ? std::isnan(got) : bits(got) == bits(want);
}

// t * s + keep * d with each product rounded on its own: the volatile
// stores keep any compiler from fusing one into the add.
float unfused_blend(float t, float s, float keep, float d) {
  const volatile float ts = t * s;
  const volatile float kd = keep * d;
  return ts + kd;
}

TEST(SimdBitContractTest, SoftUpdateIsTwoRoundedProductsAndARoundedSum) {
  BackendGuard guard;
  Rng rng(31);
  // TD3's tau, narrowed as Mlp::soft_update_from narrows it, and one exact
  // pair.
  const std::pair<float, float> kRates[] = {
      {0.005f, static_cast<float>(1.0 - 0.005)}, {0.25f, 0.75f}};
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const auto& [t, keep] : kRates) {
      for (std::size_t n = 0; n <= kMaxLength; ++n) {
        // Special values in the source, in the target, then in neither
        // (where a fused product would move the low bits).
        for (std::size_t form = 0; form < 3; ++form) {
          std::vector<float> src = edge_values(n, 3 * form);
          std::vector<float> dst(n);
          for (float& v : dst) v = static_cast<float>(rng.normal());
          if (form == 1) std::swap(src, dst);
          if (form == 2) {
            for (float& v : src) v = static_cast<float>(rng.normal());
          }
          const std::string where = std::string(backend_label(be)) +
                                    " n=" + std::to_string(n) +
                                    " form=" + std::to_string(form);
          std::vector<float> whole = dst;
          whole.push_back(kSentinel);
          soft_update(whole.data(), src.data(), n, t, keep);
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(same_float(whole[i],
                                   unfused_blend(t, src[i], keep, dst[i])))
                << where << " i=" << i << ": " << whole[i];
          }
          EXPECT_EQ(whole[n], kSentinel) << where;
          // Split where Mlp's partner splits a tensor: at multiples of 16.
          for (std::size_t cut = 16; cut < n; cut += 16) {
            std::vector<float> split = dst;
            soft_update(split.data(), src.data(), cut, t, keep);
            soft_update(split.data() + cut, src.data() + cut, n - cut, t,
                        keep);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(bits(split[i]), bits(whole[i]))
                  << where << " cut=" << cut << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(SimdBitContractTest, ColumnSumsAddTheRowsInOrderOnEveryTier) {
  BackendGuard guard;
  const std::size_t kSumWidths[] = {1, 15, 16, 17, 32, 128};
  Rng rng(37);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (std::size_t m = 1; m <= 64; ++m) {
      for (const std::size_t n : kSumWidths) {
        for (const std::size_t ldx : {n, n + 3}) {
          std::vector<float> x(m * ldx), acc(n);
          for (float& v : x) v = static_cast<float>(rng.normal());
          for (float& v : acc) v = static_cast<float>(rng.normal());
          std::vector<float> want = acc;
          for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t j = 0; j < n; ++j) want[j] += x[r * ldx + j];
          }
          acc.push_back(kSentinel);
          add_column_sums(acc.data(), x.data(), m, n, ldx);
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_EQ(bits(acc[j]), bits(want[j]))
                << backend_label(be) << " " << m << "x" << n << " ld "
                << ldx << " column " << j;
          }
          ASSERT_EQ(acc[n], kSentinel) << backend_label(be);
        }
      }
    }
  }
}

TEST(SimdBitContractTest, BiasEpilogueEqualsBiasCopyGemmAndReluOnEveryTier) {
  BackendGuard guard;
  constexpr std::size_t kRowBlock = 4;  // nn::kSplitRows: forward row cuts
  const std::size_t kRows[] = {1, 4, 63, 64};
  const std::size_t kWidths[] = {1, 32, 128};
  const std::size_t kDepths[] = {9, 41, 128};
  Rng rng(41);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const std::size_t m : kRows) {
      for (const std::size_t n : kWidths) {
        for (const std::size_t k : kDepths) {
          std::vector<float> a(m * k), b(k * n), bias(n);
          for (float& v : a) v = static_cast<float>(rng.normal());
          for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
          for (float& v : b) v = static_cast<float>(rng.normal());
          for (float& v : bias) v = static_cast<float>(rng.normal());
          bias[0] = -0.0f;
          for (const bool with_relu : {false, true}) {
            const std::string where =
                std::string(backend_label(be)) + " " + std::to_string(m) +
                "x" + std::to_string(n) + "x" + std::to_string(k) +
                (with_relu ? " relu" : " identity");
            std::vector<float> want(m * n);
            for (std::size_t r = 0; r < m; ++r) {
              std::copy(bias.begin(), bias.end(), want.data() + r * n);
            }
            gemm_nn(m, n, k, a.data(), k, b.data(), n, want.data(), n);
            if (with_relu) relu(want.data(), want.size());
            const Epilogue epilogue{.bias = bias.data(), .relu = with_relu};
            // C starts as NaN: a kernel that read it would leave NaN.
            const std::vector<float> garbage(
                m * n, std::numeric_limits<float>::quiet_NaN());
            std::vector<float> whole = garbage;
            gemm_nn(m, n, k, a.data(), k, b.data(), n, whole.data(), n,
                    epilogue);
            for (std::size_t i = 0; i < whole.size(); ++i) {
              ASSERT_EQ(bits(whole[i]), bits(want[i]))
                  << where << " at (" << i / n << "," << i % n << ")";
            }
            for (std::size_t cut = kRowBlock; cut < m; cut += kRowBlock) {
              std::vector<float> split = garbage;
              gemm_nn(cut, n, k, a.data(), k, b.data(), n, split.data(), n,
                      epilogue);
              gemm_nn(m - cut, n, k, a.data() + cut * k, k, b.data(), n,
                      split.data() + cut * n, n, epilogue);
              for (std::size_t i = 0; i < split.size(); ++i) {
                ASSERT_EQ(bits(split[i]), bits(want[i]))
                    << where << " cut " << cut << " at (" << i / n << ","
                    << i % n << ")";
              }
            }
          }
        }
      }
    }
  }
}

enum class Op { kNn, kTn, kNt };

struct Shape {
  Op op;
  std::size_t m, n, k;
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kNn: return "nn";
    case Op::kTn: return "tn";
    default: return "nt";
  }
}

// The GEMMs of one train step at state 9, action 32, hidden 128x128, batch
// 64 (m x n x k as the kernels take them): every layer's forward (nn), dW
// (tn) and dX (nt), plus 7-row cases for the row remainder paths.
const Shape kStepShapes[] = {
    {Op::kNn, 64, 128, 9},   {Op::kNn, 64, 128, 41}, {Op::kNn, 64, 128, 128},
    {Op::kNn, 64, 1, 128},   {Op::kNn, 64, 32, 128}, {Op::kNn, 7, 1, 128},
    {Op::kTn, 9, 128, 64},   {Op::kTn, 41, 128, 64}, {Op::kTn, 128, 128, 64},
    {Op::kTn, 128, 1, 64},   {Op::kTn, 128, 32, 64}, {Op::kTn, 7, 128, 64},
    {Op::kNt, 64, 128, 128}, {Op::kNt, 64, 41, 128}, {Op::kNt, 64, 9, 128},
    {Op::kNt, 64, 128, 1},   {Op::kNt, 64, 128, 32}, {Op::kNt, 7, 41, 128},
    {Op::kNt, 6, 10, 13},
    // Odd row counts through the 8-row gemm_tn tile's 4-row and one-row
    // remainders, at every output width the step runs.
    {Op::kNn, 9, 1, 64},     {Op::kNn, 9, 32, 64},   {Op::kNn, 9, 128, 64},
    {Op::kNn, 41, 1, 64},    {Op::kNn, 41, 32, 64},  {Op::kNn, 41, 128, 64},
    {Op::kTn, 9, 1, 64},     {Op::kTn, 9, 32, 64},   {Op::kTn, 41, 1, 64},
    {Op::kTn, 41, 32, 64},   {Op::kNt, 9, 1, 64},    {Op::kNt, 9, 32, 64},
    {Op::kNt, 9, 128, 64},   {Op::kNt, 41, 1, 64},   {Op::kNt, 41, 32, 64},
    {Op::kNt, 41, 128, 64},
};

// Runs op on rows [row0, row0 + rows) of C. Operand layouts: nn A is
// (m x k), B (k x n); tn A is stored (k x m), B (k x n); nt A is (m x k),
// B is stored (n x k).
void run_rows(const Shape& s, std::size_t row0, std::size_t rows,
              const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>& c) {
  float* crow = c.data() + row0 * s.n;
  switch (s.op) {
    case Op::kNn:
      gemm_nn(rows, s.n, s.k, a.data() + row0 * s.k, s.k, b.data(), s.n, crow,
              s.n);
      break;
    case Op::kTn:
      gemm_tn(rows, s.n, s.k, a.data() + row0, s.m, b.data(), s.n, crow, s.n);
      break;
    case Op::kNt:
      gemm_nt(rows, s.n, s.k, a.data() + row0 * s.k, s.k, b.data(), s.k,
              crow, s.n);
      break;
  }
}

TEST(SimdBitContractTest, GemmRowsEqualOneRowCallsAtStepShapes) {
  BackendGuard guard;
  Rng rng(23);
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (const Shape& s : kStepShapes) {
      std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n);
      for (float& v : a) v = static_cast<float>(rng.normal());
      // Post-ReLU-like zeros in A exercise the scalar tier's zero skip.
      for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
      for (float& v : b) v = static_cast<float>(rng.normal());
      // C accumulates: seed it.
      for (float& v : c0) v = static_cast<float>(rng.normal());
      std::vector<float> whole = c0, by_row = c0;
      run_rows(s, 0, s.m, a, b, whole);
      for (std::size_t i = 0; i < s.m; ++i) run_rows(s, i, 1, a, b, by_row);
      for (std::size_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(bits(whole[i]), bits(by_row[i]))
            << backend_label(be) << " " << op_name(s.op) << " " << s.m << "x"
            << s.n << "x" << s.k << " at (" << i / s.n << "," << i % s.n
            << ")";
      }
    }
  }
}

TEST(SimdBitContractTest, BroadcastGemmsAgreeAcrossVectorTiers) {
  if (!backend_selectable(Backend::kAvx512)) {
    GTEST_SKIP() << "needs both vector tiers";
  }
  BackendGuard guard;
  Rng rng(29);
  for (const Shape& s : kStepShapes) {
    if (s.op == Op::kNt) continue;  // per-tier reduction trees
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n);
    for (float& v : a) v = static_cast<float>(rng.normal());
    for (float& v : b) v = static_cast<float>(rng.normal());
    for (float& v : c0) v = static_cast<float>(rng.normal());
    std::vector<float> avx2 = c0, avx512 = c0;
    force_backend(Backend::kAvx2);
    run_rows(s, 0, s.m, a, b, avx2);
    force_backend(Backend::kAvx512);
    run_rows(s, 0, s.m, a, b, avx512);
    for (std::size_t i = 0; i < avx2.size(); ++i) {
      ASSERT_EQ(bits(avx2[i]), bits(avx512[i]))
          << op_name(s.op) << " " << s.m << "x" << s.n << "x" << s.k
          << " at (" << i / s.n << "," << i % s.n << ")";
    }
  }
}

// Columns [0, covered) of a gemm_nn call with `rows` rows run in vector
// tiles on `be`; the rest take the scalar tail.
std::size_t nn_vector_columns(Backend be, std::size_t rows, std::size_t n) {
  (void)rows;  // both row paths cover the same columns on every tier
  if (be == Backend::kScalar) return 0;
  const std::size_t step = be == Backend::kAvx512 ? 16 : 8;
  return n - n % step;
}

// The one-row path equals the matching row of a 4-row call unless the 4-row
// tiles cover columns it leaves to the scalar tail (simd.hpp); with float
// tiles they never do, and this checks that rule rather than assuming it.
bool nn_row_invariant(Backend be, std::size_t n) {
  return nn_vector_columns(be, 1, n) == nn_vector_columns(be, 4, n);
}

TEST(SimdBitContractTest, OneRowGemmNnKeepsItsChainsRowsAndTiers) {
  BackendGuard guard;
  const std::size_t kDepths[] = {9, 41, 128};
  const std::size_t kWidths[] = {1, 32, 128, 136, 144, 160};
  struct Run {
    std::vector<float> four, one;  // 4 x n from one call, and row by row
  };
  for (const std::size_t k : kDepths) {
    for (const std::size_t n : kWidths) {
      Rng rng(k * 1000 + n);
      std::vector<float> a(4 * k), b(k * n), c0(4 * n);
      for (float& v : a) v = static_cast<float>(rng.normal());
      for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
      for (float& v : b) v = static_cast<float>(rng.normal());
      for (float& v : c0) v = static_cast<float>(rng.normal());
      std::vector<Run> runs;  // one per selectable tier, lowest first
      for (const Backend be : selectable_backends()) {
        force_backend(be);
        const std::string where = std::string(backend_label(be)) + " 1x" +
                                  std::to_string(n) + "x" + std::to_string(k);
        Run run{c0, c0};
        gemm_nn(4, n, k, a.data(), k, b.data(), n, run.four.data(), n);
        for (std::size_t r = 0; r < 4; ++r) {
          gemm_nn(1, n, k, a.data() + r * k, k, b.data(), n,
                  run.one.data() + r * n, n);
        }
        const std::size_t covered = nn_vector_columns(be, 1, n);
        for (std::size_t r = 0; r < 4; ++r) {
          for (std::size_t j = 0; j < n; ++j) {
            const std::size_t at = r * n + j;
            if (j < covered) {
              float chain = c0[at];
              for (std::size_t p = 0; p < k; ++p) {
                chain = std::fma(a[r * k + p], b[p * n + j], chain);
              }
              ASSERT_EQ(bits(run.one[at]), bits(chain))
                  << where << " chain at (" << r << "," << j << ")";
            }
            if (nn_row_invariant(be, n)) {
              ASSERT_EQ(bits(run.one[at]), bits(run.four[at]))
                  << where << " row at (" << r << "," << j << ")";
            }
          }
        }
        runs.push_back(std::move(run));
      }
      if (runs.size() < 3) continue;  // needs both vector tiers
      const Run& avx2 = runs[1];
      const Run& avx512 = runs[2];
      const bool same_one_row = nn_vector_columns(Backend::kAvx2, 1, n) ==
                                nn_vector_columns(Backend::kAvx512, 1, n);
      const bool same_four_row = nn_vector_columns(Backend::kAvx2, 4, n) ==
                                 nn_vector_columns(Backend::kAvx512, 4, n);
      for (std::size_t i = 0; i < c0.size(); ++i) {
        if (same_one_row) {
          ASSERT_EQ(bits(avx2.one[i]), bits(avx512.one[i]))
              << "one-row 1x" << n << "x" << k << " at " << i;
        }
        if (same_four_row) {
          ASSERT_EQ(bits(avx2.four[i]), bits(avx512.four[i]))
              << "4-row 4x" << n << "x" << k << " at " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::common::simd
