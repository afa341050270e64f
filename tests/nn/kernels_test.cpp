// Property tests for the GEMM family against a naive triple-loop double
// reference: odd shapes (1x1, 1xn, nx1, non-multiples of the register
// blocks), agreement within the float bound (k + 2) * FLT_EPSILON *
// sum |a_p * b_p| on the vector and the forced scalar backend, the fused
// bias+activation epilogue for all activations, and the cache-blocked
// transpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
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

constexpr auto kEps = static_cast<double>(FLT_EPSILON);

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor m(rows, cols);
  for (float& x : m.flat()) x = static_cast<float>(rng.normal());
  return m;
}

double at(const Tensor& t, std::size_t r, std::size_t c) {
  return static_cast<double>(t(r, c));
}

/// The exact-enough product in double, and per element the bound a float
/// evaluation of it in any summation order meets: (k + 2) * FLT_EPSILON *
/// sum_p |a_ip * b_pj|.
struct Reference {
  Matrix value, tol;
};

Reference ref_matmul(const Tensor& a, const Tensor& b) {
  Reference ref{Matrix(a.rows(), b.cols()), Matrix(a.rows(), b.cols())};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0, abs = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        s += at(a, i, p) * at(b, p, j);
        abs += std::abs(at(a, i, p) * at(b, p, j));
      }
      ref.value(i, j) = s;
      ref.tol(i, j) = static_cast<double>(a.cols() + 2) * kEps * abs;
    }
  }
  return ref;
}

void expect_close(const Tensor& actual, const Reference& expected,
                  const char* what) {
  ASSERT_EQ(actual.rows(), expected.value.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.value.cols()) << what;
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    for (std::size_t j = 0; j < actual.cols(); ++j) {
      EXPECT_NEAR(at(actual, i, j), expected.value(i, j), expected.tol(i, j))
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
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = random_matrix(s.k, s.n, rng);
    const Reference expected = ref_matmul(a, b);
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
    const Tensor a = random_matrix(s.k, s.m, rng);  // A^T is m x k
    const Tensor b = random_matrix(s.k, s.n, rng);
    const Reference expected = ref_matmul(a.transposed(), b);
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
    const Tensor a = random_matrix(s.m, s.k, rng);
    const Tensor b = random_matrix(s.n, s.k, rng);  // B^T is k x n
    const Reference expected = ref_matmul(a, b.transposed());
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
      const Tensor x = random_matrix(s.m, s.k, rng);
      const Tensor w = random_matrix(s.k, s.n, rng);
      const Tensor bias = random_matrix(1, s.n, rng);

      // The bias is one more term of each sum; tanh and the sigmoid are
      // 1-Lipschitz and round their own results within 4 ulp.
      Reference expected = ref_matmul(x, w);
      for (std::size_t i = 0; i < expected.value.rows(); ++i) {
        for (std::size_t j = 0; j < expected.value.cols(); ++j) {
          const double z = expected.value(i, j) + at(bias, 0, j);
          expected.value(i, j) = apply_ref(z, act);
          expected.tol(i, j) +=
              static_cast<double>(s.k + 3) * kEps * std::abs(at(bias, 0, j)) +
              4.0 * kEps * std::abs(expected.value(i, j));
        }
      }

      Tensor out;
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
      const Tensor m = random_matrix(r, c, rng);
      const Tensor t = m.transposed();
      ASSERT_EQ(t.rows(), c);
      ASSERT_EQ(t.cols(), r);
      for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          EXPECT_EQ(t(j, i), m(i, j)) << r << "x" << c;
        }
      }
      const Tensor round_trip = t.transposed();
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
    const Tensor x = random_matrix(5, 10, rng);

    // Same GEMM call, then the same activation in place: bit for bit.
    const Tensor fused = fused_layer.forward(x);
    Tensor unfused = plain_layer.forward(x);
    apply_activation(unfused, act);
    EXPECT_EQ(fused, unfused);
  }
}

// Forward through `net`'s float parameters in double, carrying per output
// the bound a float evaluation meets: each layer's (k + 2) * FLT_EPSILON *
// sum |x w| rounding plus the input error times |w| (ReLU is 1-Lipschitz
// and the plain output layer adds nothing).
Reference ref_forward(Mlp& net, const Tensor& x) {
  Matrix value(x.rows(), x.cols()), tol(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    value.flat()[i] = static_cast<double>(x.flat()[i]);
  }
  const auto params = net.params();
  for (std::size_t l = 0; l < params.size(); l += 2) {
    const Tensor& w = *params[l].value;
    const Tensor& b = *params[l + 1].value;
    const bool relu = l + 2 < params.size();
    Matrix out(value.rows(), w.cols()), out_tol(value.rows(), w.cols());
    for (std::size_t i = 0; i < value.rows(); ++i) {
      for (std::size_t j = 0; j < w.cols(); ++j) {
        double s = at(b, 0, j), abs = std::abs(at(b, 0, j)), carried = 0.0;
        for (std::size_t p = 0; p < w.rows(); ++p) {
          s += value(i, p) * at(w, p, j);
          abs += std::abs(value(i, p) * at(w, p, j));
          carried += tol(i, p) * std::abs(at(w, p, j));
        }
        out(i, j) = relu ? std::max(s, 0.0) : s;
        out_tol(i, j) =
            static_cast<double>(w.rows() + 3) * kEps * abs + carried;
      }
    }
    value = std::move(out);
    tol = std::move(out_tol);
  }
  return {value, tol};
}

TEST(KernelsTest, MlpForwardIdenticalUnderBothBackends) {
  BackendGuard guard;
  Rng rng(28);
  Mlp net({9, 32, 32, 4}, rng);
  Tensor x = random_matrix(7, 9, rng);
  for (float& v : x.flat()) v = static_cast<float>(rng.uniform());

  const Reference expected = ref_forward(net, x);
  expect_close(net.forward(x), expected, "mlp forward vector");
  force_backend(Backend::kScalar);
  expect_close(net.forward(x), expected, "mlp forward scalar");
}

TEST(KernelsTest, ActivationGradFromOutputMatchesDefinition) {
  Rng rng(26);
  const Tensor x = random_matrix(6, 9, rng);
  // ReLU: y > 0 iff x > 0, so masking on the output equals masking on the
  // input — the identity that makes Linear+ReLU fusion backward-safe.
  Tensor y = x;
  apply_activation(y, Activation::kRelu);
  Tensor grad(6, 9, 1.0f);
  apply_activation_grad(grad, y, Activation::kRelu);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(grad(i, j), x(i, j) > 0.0f ? 1.0f : 0.0f);
    }
  }

  // Tanh: d/dx = 1 - y^2 computed from the cached output.
  Tensor yt = x;
  apply_activation(yt, Activation::kTanh);
  Tensor gt(6, 9, 1.0f);
  apply_activation_grad(gt, yt, Activation::kTanh);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      // tanhf's output within 2 ulp, then 1 - t^2 rounded twice.
      const double t = std::tanh(at(x, i, j));
      EXPECT_NEAR(at(gt, i, j), 1.0 - t * t, 8.0 * kEps);
    }
  }
}

}  // namespace
}  // namespace deepcat::nn
