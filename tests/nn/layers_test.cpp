#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
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

}  // namespace
}  // namespace deepcat::nn
