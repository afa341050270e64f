// Property tests for the batched distance kernels behind the retrieval
// index's k-NN scan: squared_distances / cosine_distances must match a
// plain-order scalar reference within 1e-12 on every selectable tier,
// count exactly one dispatch per matrix sweep, and handle the degenerate
// shapes (zero rows, zero dim, zero-norm vectors) identically everywhere.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
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
std::vector<double> ref_squared(const std::vector<double>& query,
                                const std::vector<double>& rows,
                                std::size_t n_rows, std::size_t dim) {
  std::vector<double> out(n_rows, 0.0);
  for (std::size_t r = 0; r < n_rows; ++r) {
    double s = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      const double d = query[j] - rows[r * dim + j];
      s += d * d;
    }
    out[r] = s;
  }
  return out;
}

std::vector<double> ref_cosine(const std::vector<double>& query,
                               const std::vector<double>& rows,
                               std::size_t n_rows, std::size_t dim) {
  double qq = 0.0;
  for (std::size_t j = 0; j < dim; ++j) qq += query[j] * query[j];
  std::vector<double> out(n_rows, 0.0);
  for (std::size_t r = 0; r < n_rows; ++r) {
    double rr = 0.0, qr = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      const double x = rows[r * dim + j];
      rr += x * x;
      qr += query[j] * x;
    }
    out[r] = (qq == 0.0 || rr == 0.0) ? 1.0 : 1.0 - qr / std::sqrt(qq * rr);
  }
  return out;
}

// Odd dims around the 4/8-lane boundaries, plus the retrieval embedding
// width (41) the production index actually sweeps.
const std::size_t kDims[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                             31, 32, 33, 41, 63, 64, 65, 100};
const std::size_t kRowCounts[] = {1, 2, 3, 7, 16, 33};

class BackendGuard {
 public:
  BackendGuard() { force_backend(Backend::kAvx512); }
  ~BackendGuard() { force_backend(Backend::kAvx512); }
};

std::vector<Backend> selectable_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (backend_selectable(b)) out.push_back(b);
  }
  return out;
}

TEST(SimdDistanceTest, SquaredDistancesMatchReferenceAcrossTiers) {
  BackendGuard guard;
  Rng rng(31);
  for (std::size_t dim : kDims) {
    for (std::size_t n_rows : kRowCounts) {
      const auto query = random_vec(dim, rng);
      const auto rows = random_vec(n_rows * dim, rng);
      const auto expected = ref_squared(query, rows, n_rows, dim);
      for (Backend be : selectable_backends()) {
        force_backend(be);
        std::vector<double> out(n_rows, -1.0);
        squared_distances(query.data(), rows.data(), n_rows, dim, out.data());
        for (std::size_t r = 0; r < n_rows; ++r) {
          EXPECT_NEAR(out[r], expected[r],
                      1e-12 * std::max(1.0, expected[r]))
              << backend_label(be) << " dim=" << dim << " r=" << r;
        }
      }
      force_backend(Backend::kAvx512);
    }
  }
}

TEST(SimdDistanceTest, CosineDistancesMatchReferenceAcrossTiers) {
  BackendGuard guard;
  Rng rng(32);
  for (std::size_t dim : kDims) {
    for (std::size_t n_rows : kRowCounts) {
      const auto query = random_vec(dim, rng);
      const auto rows = random_vec(n_rows * dim, rng);
      const auto expected = ref_cosine(query, rows, n_rows, dim);
      for (Backend be : selectable_backends()) {
        force_backend(be);
        std::vector<double> out(n_rows, -1.0);
        cosine_distances(query.data(), rows.data(), n_rows, dim, out.data());
        for (std::size_t r = 0; r < n_rows; ++r) {
          EXPECT_NEAR(out[r], expected[r],
                      1e-12 * std::max(1.0, std::abs(expected[r])))
              << backend_label(be) << " dim=" << dim << " r=" << r;
          EXPECT_GE(out[r], -1e-12) << backend_label(be);
          EXPECT_LE(out[r], 2.0 + 1e-12) << backend_label(be);
        }
      }
      force_backend(Backend::kAvx512);
    }
  }
}

TEST(SimdDistanceTest, CosineSelfDistanceIsZeroAndNegationIsTwo) {
  BackendGuard guard;
  Rng rng(33);
  const std::size_t dim = 41;
  const auto query = random_vec(dim, rng);
  std::vector<double> rows(2 * dim);
  for (std::size_t j = 0; j < dim; ++j) {
    rows[j] = query[j];          // identical direction -> distance 0
    rows[dim + j] = -query[j];   // opposite direction  -> distance 2
  }
  for (Backend be : selectable_backends()) {
    force_backend(be);
    std::vector<double> out(2, -1.0);
    cosine_distances(query.data(), rows.data(), 2, dim, out.data());
    EXPECT_NEAR(out[0], 0.0, 1e-12) << backend_label(be);
    EXPECT_NEAR(out[1], 2.0, 1e-12) << backend_label(be);
  }
  force_backend(Backend::kAvx512);
}

TEST(SimdDistanceTest, ZeroNormVectorsYieldNeutralCosineOnEveryTier) {
  // A zero query or zero row carries no direction: the contract pins the
  // result at exactly 1.0 (not NaN) on every backend, so retrieval never
  // ranks on garbage.
  BackendGuard guard;
  Rng rng(34);
  const std::size_t dim = 17;
  const std::vector<double> zero_query(dim, 0.0);
  const auto live_query = random_vec(dim, rng);
  std::vector<double> rows(2 * dim, 0.0);       // row 0 zero, row 1 live
  for (std::size_t j = 0; j < dim; ++j) rows[dim + j] = rng.normal();
  for (Backend be : selectable_backends()) {
    force_backend(be);
    std::vector<double> out(2, -1.0);
    cosine_distances(zero_query.data(), rows.data(), 2, dim, out.data());
    EXPECT_EQ(out[0], 1.0) << backend_label(be);
    EXPECT_EQ(out[1], 1.0) << backend_label(be);
    cosine_distances(live_query.data(), rows.data(), 2, dim, out.data());
    EXPECT_EQ(out[0], 1.0) << backend_label(be);  // zero row
    EXPECT_NE(out[1], 1.0) << backend_label(be);  // live row
  }
  force_backend(Backend::kAvx512);
}

TEST(SimdDistanceTest, ZeroRowsAndZeroDimAreNoOps) {
  BackendGuard guard;
  Rng rng(35);
  const auto query = random_vec(8, rng);
  const auto rows = random_vec(8, rng);
  for (Backend be : selectable_backends()) {
    force_backend(be);
    // n_rows == 0: output untouched.
    double sentinel = -7.0;
    squared_distances(query.data(), rows.data(), 0, 8, &sentinel);
    EXPECT_EQ(sentinel, -7.0) << backend_label(be);
    cosine_distances(query.data(), rows.data(), 0, 8, &sentinel);
    EXPECT_EQ(sentinel, -7.0) << backend_label(be);
    // dim == 0: every row is at squared distance 0 and neutral cosine 1.
    std::vector<double> out(3, -1.0);
    squared_distances(query.data(), rows.data(), 3, 0, out.data());
    for (double v : out) EXPECT_EQ(v, 0.0) << backend_label(be);
    cosine_distances(query.data(), rows.data(), 3, 0, out.data());
    for (double v : out) EXPECT_EQ(v, 1.0) << backend_label(be);
  }
  force_backend(Backend::kAvx512);
}

TEST(SimdDistanceTest, BatchedSweepCountsOneDispatchPerCall) {
  // The whole matrix sweep is ONE dispatched call per kernel — the
  // SimSIMD-style contract the retrieval index relies on for its
  // per-query cost model.
  BackendGuard guard;
  Rng rng(36);
  const std::size_t n_rows = 16, dim = 41;
  const auto query = random_vec(dim, rng);
  const auto rows = random_vec(n_rows * dim, rng);
  std::vector<double> out(n_rows);
  for (Backend be : selectable_backends()) {
    force_backend(be);
    reset_dispatch_counts();
    squared_distances(query.data(), rows.data(), n_rows, dim, out.data());
    cosine_distances(query.data(), rows.data(), n_rows, dim, out.data());
    const DispatchCounts counts = dispatch_counts();
    const unsigned long long total =
        counts.scalar_calls + counts.avx2_calls + counts.avx512_calls;
    EXPECT_EQ(total, 2ull) << backend_label(be);
    EXPECT_EQ(counts.scalar_calls, be == Backend::kScalar ? 2ull : 0ull)
        << backend_label(be);
    EXPECT_EQ(counts.avx2_calls, be == Backend::kAvx2 ? 2ull : 0ull)
        << backend_label(be);
    EXPECT_EQ(counts.avx512_calls, be == Backend::kAvx512 ? 2ull : 0ull)
        << backend_label(be);
  }
  force_backend(Backend::kAvx512);
  reset_dispatch_counts();
}

TEST(SimdDistanceTest, ForceBackendAboveCapClampsForDistanceKernels) {
  BackendGuard guard;
  Rng rng(37);
  const std::size_t dim = 9;
  const auto query = random_vec(dim, rng);
  const auto rows = random_vec(4 * dim, rng);
  const auto expected = ref_squared(query, rows, 4, dim);
  // Requesting a tier above the process cap clamps instead of crashing on
  // an unsupported kernel set.
  force_backend(Backend::kAvx512);
  EXPECT_EQ(active_backend(), max_backend());
  std::vector<double> out(4, -1.0);
  squared_distances(query.data(), rows.data(), 4, dim, out.data());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(out[r], expected[r], 1e-12 * std::max(1.0, expected[r]));
  }
  force_backend(Backend::kAvx512);
}

TEST(SimdDistanceTest, SquaredDistancesAgreeWithSingleVectorPrimitive) {
  // The batched kernel and the level-1 squared_distance primitive share
  // the 1e-12 contract; row r of the sweep equals the pairwise call.
  BackendGuard guard;
  Rng rng(38);
  const std::size_t n_rows = 5, dim = 33;
  const auto query = random_vec(dim, rng);
  const auto rows = random_vec(n_rows * dim, rng);
  std::vector<double> out(n_rows);
  squared_distances(query.data(), rows.data(), n_rows, dim, out.data());
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double pairwise =
        squared_distance(query.data(), rows.data() + r * dim, dim);
    EXPECT_NEAR(out[r], pairwise, 1e-12 * std::max(1.0, pairwise))
        << "r=" << r;
  }
}

}  // namespace
}  // namespace deepcat::common::simd
