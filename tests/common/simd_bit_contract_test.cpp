// The bit contract the TD3 train step relies on, checked on every ISA tier
// this process can select:
//   - the ReLU forward and backward-mask kernels return exactly what the
//     scalar expressions `x > 0 ? x : 0` and `if (y <= 0) g = 0` return,
//     on signed zeros, NaN, infinities and denormals, at every length from
//     0 to 3 x lanes + 1, and never write past the end;
//   - gemm_nn, gemm_tn and gemm_nt over m rows equal m one-row calls bit
//     for bit at the shapes one train step runs, so row blocking and the
//     batched reductions reorder nothing inside an output (the split train
//     step cuts these calls by rows);
//   - gemm_nn and gemm_tn agree bit for bit between avx2 and avx512 at
//     those shapes: their tiles differ, the chains inside an output do not.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Special values first, then ordinary ones of both signs, cycled to any
// length.
std::vector<double> edge_values(std::size_t n, std::size_t shift) {
  const double kValues[] = {
      -0.0,
      0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0,
      -std::numeric_limits<double>::min() / 4.0,
      1.5,
      -2.25,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
  };
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = kValues[(i + shift) % std::size(kValues)];
  }
  return v;
}

// 3 x 8 + 1: every tail length of the widest (8-lane) tier, three times.
constexpr std::size_t kMaxLength = 3 * 8 + 1;
constexpr double kSentinel = 12345.0;

TEST(SimdBitContractTest, ReluEqualsScalarExpressionOnEveryTier) {
  BackendGuard guard;
  for (const Backend be : selectable_backends()) {
    force_backend(be);
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      for (std::size_t shift = 0; shift < 14; shift += 5) {
        std::vector<double> x = edge_values(n, shift);
        std::vector<double> expected = x;
        for (double& v : expected) v = v > 0.0 ? v : 0.0;
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
        const std::vector<double> y = edge_values(n, shift);
        std::vector<double> g(n);
        for (double& v : g) v = rng.normal();
        // Gradients carry special values too: a masked -0.0 or NaN
        // gradient must still become +0.0.
        if (n > 2) {
          g[0] = -0.0;
          g[n / 2] = std::numeric_limits<double>::quiet_NaN();
        }
        std::vector<double> expected = g;
        for (std::size_t i = 0; i < n; ++i) {
          if (y[i] <= 0.0) expected[i] = 0.0;
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
              const std::vector<double>& a, const std::vector<double>& b,
              std::vector<double>& c) {
  double* crow = c.data() + row0 * s.n;
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
      std::vector<double> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n);
      for (double& v : a) v = rng.normal();
      // Post-ReLU-like zeros in A exercise the scalar tier's zero skip.
      for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0;
      for (double& v : b) v = rng.normal();
      for (double& v : c0) v = rng.normal();  // C accumulates: seed it
      std::vector<double> whole = c0, by_row = c0;
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
    std::vector<double> a(s.m * s.k), b(s.k * s.n), c0(s.m * s.n);
    for (double& v : a) v = rng.normal();
    for (double& v : b) v = rng.normal();
    for (double& v : c0) v = rng.normal();
    std::vector<double> avx2 = c0, avx512 = c0;
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

}  // namespace
}  // namespace deepcat::common::simd
