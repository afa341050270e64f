#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "nn/mlp.hpp"

namespace deepcat::nn {
namespace {

// Central-difference numerical gradient check of dL/dx for a layer, with
// L = sum(y * g) for a fixed random g (so dL/dy = g).
void check_input_gradient(Linear& layer, std::uint64_t seed,
                          double tol = 1e-5) {
  common::Rng rng(seed);
  Matrix x(3, layer.in_features());
  for (double& v : x.flat()) v = rng.normal(0.0, 0.7);
  Matrix g(3, layer.out_features());
  for (double& v : g.flat()) v = rng.normal();

  (void)layer.forward(x);
  layer.grad() = g;
  layer.mask_grad();
  Matrix dx;
  layer.input_grad(dx);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Matrix xp = x, xm = x;
    xp.flat()[i] += eps;
    xm.flat()[i] -= eps;
    const Matrix yp = layer.forward(xp);
    const Matrix ym = layer.forward(xm);
    double lp = 0.0, lm = 0.0;
    for (std::size_t k = 0; k < yp.size(); ++k) {
      lp += yp.flat()[k] * g.flat()[k];
      lm += ym.flat()[k] * g.flat()[k];
    }
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx.flat()[i], numeric, tol) << "input index " << i;
  }
}

// A square layer with identity weights and zero bias: its output is
// act(x), which isolates the activation.
Linear activation_layer(std::size_t n, Activation act) {
  common::Rng rng(0);
  Linear layer(n, n, rng, Linear::Init::kKaiming, act);
  layer.weights() = Matrix::identity(n);
  layer.bias().set_zero();
  return layer;
}

// Backward for one batch: dL/dy = g, accumulating parameter gradients.
void backward(Linear& layer, const Matrix& x, const Matrix& g) {
  layer.grad() = g;
  layer.mask_grad();
  layer.accumulate_param_grads(x);
}

TEST(LinearTest, ForwardComputesAffine) {
  common::Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weights() = Matrix{{1.0, 2.0}, {3.0, 4.0}};
  lin.bias() = Matrix{{0.5, -0.5}};
  const Matrix y = lin.forward(Matrix{{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 4.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 5.5);
}

TEST(LinearTest, InputGradientMatchesNumeric) {
  common::Rng rng(2);
  Linear lin(4, 3, rng);
  check_input_gradient(lin, 99);
}

TEST(LinearTest, ParameterGradientsMatchNumeric) {
  common::Rng rng(3);
  Linear lin(3, 2, rng);
  Matrix x(2, 3);
  for (double& v : x.flat()) v = rng.normal();
  Matrix g(2, 2);
  for (double& v : g.flat()) v = rng.normal();

  lin.zero_grad();
  (void)lin.forward(x);
  backward(lin, x, g);
  auto params = lin.params();
  ASSERT_EQ(params.size(), 2u);

  const double eps = 1e-6;
  for (auto& p : params) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      const double orig = p.value->flat()[i];
      p.value->flat()[i] = orig + eps;
      const Matrix yp = lin.forward(x);
      p.value->flat()[i] = orig - eps;
      const Matrix ym = lin.forward(x);
      p.value->flat()[i] = orig;
      double lp = 0.0, lm = 0.0;
      for (std::size_t k = 0; k < yp.size(); ++k) {
        lp += yp.flat()[k] * g.flat()[k];
        lm += ym.flat()[k] * g.flat()[k];
      }
      EXPECT_NEAR(p.grad->flat()[i], (lp - lm) / (2.0 * eps), 1e-5)
          << p.name << "[" << i << "]";
    }
  }
}

TEST(LinearTest, GradientsAccumulateAcrossBackwardCalls) {
  common::Rng rng(4);
  Linear lin(2, 2, rng);
  Matrix x(1, 2, 1.0);
  Matrix g(1, 2, 1.0);
  lin.zero_grad();
  (void)lin.forward(x);
  backward(lin, x, g);
  const double once = lin.params()[0].grad->flat()[0];
  (void)lin.forward(x);
  backward(lin, x, g);
  EXPECT_NEAR(lin.params()[0].grad->flat()[0], 2.0 * once, 1e-12);
  lin.zero_grad();
  EXPECT_DOUBLE_EQ(lin.params()[0].grad->flat()[0], 0.0);
}

TEST(LinearTest, BackwardRejectsMismatchedShapes) {
  common::Rng rng(4);
  Linear lin(2, 3, rng);
  (void)lin.forward(Matrix(4, 2, 1.0));
  lin.grad() = Matrix(3, 3, 1.0);  // 3 rows against a 4-row output
  EXPECT_THROW(lin.mask_grad(), std::invalid_argument);
  lin.grad() = Matrix(4, 3, 1.0);
  lin.mask_grad();
  EXPECT_THROW(lin.accumulate_param_grads(Matrix(4, 5)),
               std::invalid_argument);
}

TEST(LinearTest, CloneIsDeepCopy) {
  common::Rng rng(5);
  Linear lin(2, 2, rng);
  const Linear copy = lin;
  EXPECT_EQ(copy.weights(), lin.weights());
  lin.weights()(0, 0) += 1.0;
  EXPECT_NE(copy.weights(), lin.weights());
}

TEST(ReLUTest, ForwardClampsNegatives) {
  Linear relu = activation_layer(3, Activation::kRelu);
  const Matrix y = relu.forward(Matrix{{-1.0, 0.0, 2.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
}

TEST(ReLUTest, GradientMatchesNumeric) {
  Linear relu = activation_layer(5, Activation::kRelu);
  check_input_gradient(relu, 7);
}

TEST(TanhTest, ForwardAndRange) {
  Linear tanh_layer = activation_layer(3, Activation::kTanh);
  const Matrix y = tanh_layer.forward(Matrix{{-100.0, 0.0, 100.0}});
  EXPECT_NEAR(y(0, 0), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_NEAR(y(0, 2), 1.0, 1e-12);
}

TEST(TanhTest, GradientMatchesNumeric) {
  Linear tanh_layer = activation_layer(4, Activation::kTanh);
  check_input_gradient(tanh_layer, 8);
}

TEST(SigmoidTest, ForwardValues) {
  Linear sig = activation_layer(3, Activation::kSigmoid);
  const Matrix y = sig.forward(Matrix{{0.0, 100.0, -100.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 0.5);
  EXPECT_NEAR(y(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(y(0, 2), 0.0, 1e-12);
}

TEST(SigmoidTest, GradientMatchesNumeric) {
  Linear sig = activation_layer(4, Activation::kSigmoid);
  check_input_gradient(sig, 9);
}

// ---- Row-range pieces: split passes equal the whole call ---------------

std::vector<common::simd::Backend> selectable_backends() {
  using common::simd::Backend;
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (common::simd::backend_selectable(b)) out.push_back(b);
  }
  return out;
}

struct BackendGuard {
  ~BackendGuard() {
    common::simd::force_backend(common::simd::Backend::kAvx512);
  }
};

void expect_same_bits(const Matrix& got, const Matrix& want,
                      const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.flat()[i]),
              std::bit_cast<std::uint64_t>(want.flat()[i]))
        << what << " at (" << i / got.cols() << "," << i % got.cols() << ")";
  }
}

// Every layer of the serving nets (critic 41-128-128-1, actor 9-128-128-32
// with a sigmoid output) at batch 64 and 63, through the whole calls and
// through the row-range pieces run as Partner parts: one part (no pool)
// and two (split at a multiple of 4 rows, the second on a pool worker).
// Outputs, dL/dz, both gradients and dL/dx must match bit for bit, on
// every tier.
TEST(LinearTest, RowRangePiecesEqualTheWholeCallOnEveryTier) {
  BackendGuard guard;
  struct LayerShape {
    std::size_t in, out;
    Activation act;
  };
  const LayerShape kShapes[] = {{41, 128, Activation::kRelu},
                                {9, 128, Activation::kRelu},
                                {128, 128, Activation::kRelu},
                                {128, 1, Activation::kNone},
                                {128, 32, Activation::kSigmoid}};
  common::ThreadPool pool(1);
  for (const auto be : selectable_backends()) {
    common::simd::force_backend(be);
    for (const LayerShape& shape : kShapes) {
      for (const std::size_t batch : {std::size_t{64}, std::size_t{63}}) {
        const std::string where =
            std::string(common::simd::backend_label(be)) + " " +
            std::to_string(shape.in) + "x" + std::to_string(shape.out) +
            " batch " + std::to_string(batch);
        common::Rng rng(shape.in * 1000 + shape.out + batch);
        Linear proto(shape.in, shape.out, rng, Linear::Init::kKaiming,
                     shape.act);
        Matrix x(batch, shape.in), g(batch, shape.out);
        for (double& v : x.flat()) v = rng.normal();
        for (std::size_t i = 0; i < x.size(); i += 5) x.flat()[i] = 0.0;
        for (double& v : g.flat()) v = rng.normal();

        Linear whole = proto;
        const Matrix y = whole.forward(x);
        whole.grad() = g;
        whole.mask_grad();
        whole.accumulate_param_grads(x);
        Matrix dx;
        whole.input_grad(dx);

        for (const bool pooled : {false, true}) {
          common::Partner partner(pooled ? &pool : nullptr);
          ASSERT_EQ(partner.parts(), pooled ? 2u : 1u);
          Linear split = proto;
          split.size_output(batch);
          split.grad() = g;
          Matrix split_dx(batch, shape.in);
          auto rows = [&](std::size_t part) {
            return partner.range(part, batch, kSplitRows);
          };
          partner.each_part([&](std::size_t part) {
            split.forward_rows(x, rows(part).begin, rows(part).end);
          });
          partner.each_part([&](std::size_t part) {
            split.mask_grad_rows(rows(part).begin, rows(part).end);
          });
          partner.each_part([&](std::size_t part) {
            const auto w = partner.range(part, shape.in, kSplitRows);
            split.accumulate_weight_grads(x, w.begin, w.end);
            if (part == 0) split.accumulate_bias_grad();
            split.input_grad_rows(split_dx, rows(part).begin, rows(part).end);
          });
          const std::string what = where + (pooled ? " 2-part" : " 1-part");
          expect_same_bits(split.output(), y, what + " y");
          expect_same_bits(split.grad(), whole.grad(), what + " dz");
          const auto got = split.params();
          const auto want = whole.params();
          for (std::size_t p = 0; p < got.size(); ++p) {
            expect_same_bits(*got[p].grad, *want[p].grad,
                             what + " grad " + got[p].name);
          }
          expect_same_bits(split_dx, dx, what + " dx");
        }
      }
    }
  }
}

TEST(LinearTest, RowRangePiecesRejectRangesOutsideTheBatch) {
  common::Rng rng(9);
  Linear layer(3, 2, rng);
  const Matrix x(4, 3, 0.5);
  layer.size_output(4);
  EXPECT_THROW(layer.forward_rows(x, 2, 5), std::invalid_argument);
  (void)layer.forward(x);
  layer.grad() = Matrix(4, 2, 1.0);
  EXPECT_THROW(layer.mask_grad_rows(3, 2), std::invalid_argument);
  EXPECT_THROW(layer.accumulate_weight_grads(x, 0, 4), std::invalid_argument);
  Matrix dx(4, 3);
  EXPECT_THROW(layer.input_grad_rows(dx, 0, 5), std::invalid_argument);
  Matrix wrong(3, 3);
  EXPECT_THROW(layer.input_grad_rows(wrong, 0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::nn
