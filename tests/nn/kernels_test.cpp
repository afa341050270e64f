// Property tests for the GEMM family against a naive triple-loop
// reference: odd shapes (1x1, 1xn, nx1, non-multiples of the 4x8 register
// block), agreement within 1e-12, identical results under the forced
// scalar backend, the fused bias+activation epilogue for all activations,
// and the cache-blocked transpose.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace deepcat::nn {
namespace {

using common::Rng;
using common::simd::Backend;
using common::simd::force_backend;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.flat()) x = rng.normal();
  return m;
}

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

void expect_close(const Matrix& actual, const Matrix& expected,
                  const char* what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    for (std::size_t j = 0; j < actual.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::abs(expected(i, j)));
      EXPECT_NEAR(actual(i, j), expected(i, j), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

struct Shape {
  std::size_t m, k, n;
};

// 1x1, single row/column, sizes straddling the 4-row x 8-column
// micro-kernel block and the 4-wide j tail, and two large odd shapes with
// every dimension >= 256 and partial edge tiles in m, n and k.
const Shape kShapes[] = {{1, 1, 1},       {1, 7, 1},       {1, 3, 9},
                         {9, 3, 1},       {2, 2, 2},       {3, 5, 7},
                         {4, 8, 8},       {5, 9, 11},      {7, 13, 6},
                         {8, 8, 8},       {12, 4, 20},     {13, 17, 19},
                         {16, 32, 8},     {33, 9, 34},     {64, 64, 64},
                         {259, 261, 263}, {300, 270, 265}};

class BackendGuard {
 public:
  BackendGuard() { force_backend(Backend::kAvx512); }
  ~BackendGuard() { force_backend(Backend::kAvx512); }
};

TEST(KernelsTest, MatmulMatchesNaiveReferenceOnOddShapes) {
  BackendGuard guard;
  Rng rng(21);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix expected = ref_matmul(a, b);
    expect_close(matmul(a, b), expected, "matmul vectorized");
    force_backend(Backend::kScalar);
    expect_close(matmul(a, b), expected, "matmul scalar");
    force_backend(Backend::kAvx512);
  }
}

TEST(KernelsTest, MatmulTnMatchesNaiveReference) {
  BackendGuard guard;
  Rng rng(22);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.k, s.m, rng);  // A^T is m x k
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix expected = ref_matmul(a.transposed(), b);
    expect_close(matmul_tn(a, b), expected, "matmul_tn vectorized");
    force_backend(Backend::kScalar);
    expect_close(matmul_tn(a, b), expected, "matmul_tn scalar");
    force_backend(Backend::kAvx512);
  }
}

TEST(KernelsTest, MatmulNtMatchesNaiveReference) {
  BackendGuard guard;
  Rng rng(23);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.n, s.k, rng);  // B^T is k x n
    const Matrix expected = ref_matmul(a, b.transposed());
    expect_close(matmul_nt(a, b), expected, "matmul_nt vectorized");
    force_backend(Backend::kScalar);
    expect_close(matmul_nt(a, b), expected, "matmul_nt scalar");
    force_backend(Backend::kAvx512);
  }
}

double apply_ref(double x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

TEST(KernelsTest, MatmulBiasActMatchesUnfusedComposition) {
  BackendGuard guard;
  Rng rng(24);
  for (const Activation act : {Activation::kNone, Activation::kRelu,
                               Activation::kTanh, Activation::kSigmoid}) {
    for (const auto& s : kShapes) {
      const Matrix x = random_matrix(s.m, s.k, rng);
      const Matrix w = random_matrix(s.k, s.n, rng);
      const Matrix bias = random_matrix(1, s.n, rng);

      Matrix expected = ref_matmul(x, w);
      for (std::size_t i = 0; i < expected.rows(); ++i) {
        for (std::size_t j = 0; j < expected.cols(); ++j) {
          expected(i, j) = apply_ref(expected(i, j) + bias(0, j), act);
        }
      }

      Matrix out;
      matmul_bias_act(x, w, bias, act, out);
      expect_close(out, expected, "matmul_bias_act vectorized");
      force_backend(Backend::kScalar);
      matmul_bias_act(x, w, bias, act, out);
      expect_close(out, expected, "matmul_bias_act scalar");
      force_backend(Backend::kAvx512);
    }
  }
}

TEST(KernelsTest, BlockedTransposeIsExact) {
  Rng rng(25);
  // Sizes around the 32x32 tile: sub-tile, exact tiles, ragged edges.
  const std::size_t sizes[] = {1, 2, 5, 31, 32, 33, 64, 65, 100};
  for (std::size_t r : sizes) {
    for (std::size_t c : {std::size_t{1}, std::size_t{33}, std::size_t{70}}) {
      const Matrix m = random_matrix(r, c, rng);
      const Matrix t = m.transposed();
      ASSERT_EQ(t.rows(), c);
      ASSERT_EQ(t.cols(), r);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          EXPECT_EQ(t(j, i), m(i, j)) << r << "x" << c;
        }
      }
      const Matrix round_trip = t.transposed();
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          EXPECT_EQ(round_trip(i, j), m(i, j));
        }
      }
    }
  }
}

TEST(KernelsTest, FusedLinearForwardMatchesUnfusedLayers) {
  Rng rng(27);
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    Linear fused_layer(10, 13, rng, Linear::Init::kKaiming, act);
    Linear plain_layer(10, 13, rng);
    plain_layer.weights() = fused_layer.weights();
    plain_layer.bias() = fused_layer.bias();
    const Matrix x = random_matrix(5, 10, rng);

    const Matrix fused = fused_layer.forward(x);
    Matrix unfused = plain_layer.forward(x);
    apply_activation(unfused, act);
    expect_close(fused, unfused, "fused forward");
  }
}

TEST(KernelsTest, MlpForwardIdenticalUnderBothBackends) {
  BackendGuard guard;
  Rng rng(28);
  Mlp net({9, 32, 32, 4}, rng);
  Matrix x = random_matrix(7, 9, rng);
  for (double& v : x.flat()) v = rng.uniform();

  const Matrix y_vec = net.forward(x);
  force_backend(Backend::kScalar);
  const Matrix y_scalar = net.forward(x);
  force_backend(Backend::kAvx512);
  expect_close(y_vec, y_scalar, "mlp forward scalar vs vector");
}

TEST(KernelsTest, ActivationGradFromOutputMatchesDefinition) {
  Rng rng(26);
  const Matrix x = random_matrix(6, 9, rng);
  // ReLU: y > 0 iff x > 0, so masking on the output equals masking on the
  // input — the identity that makes Linear+ReLU fusion backward-safe.
  Matrix y = x;
  apply_activation(y, Activation::kRelu);
  Matrix grad(6, 9);
  for (double& g : grad.flat()) g = 1.0;
  apply_activation_grad(grad, y, Activation::kRelu);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(grad(i, j), x(i, j) > 0.0 ? 1.0 : 0.0);
    }
  }

  // Tanh: d/dx = 1 - y^2 computed from the cached output.
  Matrix yt = x;
  apply_activation(yt, Activation::kTanh);
  Matrix gt(6, 9);
  for (double& g : gt.flat()) g = 1.0;
  apply_activation_grad(gt, yt, Activation::kTanh);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double t = std::tanh(x(i, j));
      EXPECT_NEAR(gt(i, j), 1.0 - t * t, 1e-12);
    }
  }
}

}  // namespace
}  // namespace deepcat::nn
