#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/mlp.hpp"

namespace deepcat::nn {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // One scalar parameter, L = (w - 3)^2.
  Matrix w(1, 1, 0.0);
  Matrix g(1, 1);
  Adam opt({{"w", &w, &g}}, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    g(0, 0) = 2.0 * (w(0, 0) - 3.0);
    opt.step();
  }
  EXPECT_NEAR(w(0, 0), 3.0, 1e-3);
  EXPECT_EQ(opt.step_count(), 500u);
}

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // Adam's bias correction makes the first update ~lr * sign(gradient).
  Matrix w(1, 1, 0.0);
  Matrix g(1, 1, 5.0);
  Adam opt({{"w", &w, &g}}, {.lr = 0.01});
  opt.step();
  EXPECT_NEAR(w(0, 0), -0.01, 1e-6);
}

TEST(AdamTest, GradClipBoundsUpdateDirection) {
  Matrix w(1, 2);
  Matrix g(1, 2);
  g(0, 0) = 1e6;
  g(0, 1) = 0.0;
  AdamConfig cfg;
  cfg.lr = 0.1;
  cfg.grad_clip = 1.0;
  Adam opt({{"w", &w, &g}}, cfg);
  opt.step();
  // The clipped gradient has norm 1; first Adam step is still ~lr*sign.
  EXPECT_NEAR(w(0, 0), -0.1, 1e-6);
  EXPECT_DOUBLE_EQ(w(0, 1), 0.0);
}

TEST(AdamTest, TrainsRegressionNetwork) {
  // y = 2 x0 - x1 learned from samples; loss should fall well below start.
  common::Rng rng(42);
  Mlp net({2, 16, 1}, rng);
  Adam opt(net.params(), {.lr = 3e-3});

  common::Rng data_rng(43);
  auto batch = [&](Matrix& x, Matrix& y) {
    x = Matrix(32, 2);
    y = Matrix(32, 1);
    for (std::size_t r = 0; r < 32; ++r) {
      const double a = data_rng.uniform(-1.0, 1.0);
      const double b = data_rng.uniform(-1.0, 1.0);
      x(r, 0) = a;
      x(r, 1) = b;
      y(r, 0) = 2.0 * a - b;
    }
  };

  Matrix x, y, grad;
  batch(x, y);
  const double initial = mse_loss(net.forward(x), y, grad);
  for (int i = 0; i < 800; ++i) {
    batch(x, y);
    net.zero_grad();
    const Matrix pred = net.forward(x);
    (void)mse_loss(pred, y, grad);
    net.backward(x, grad);
    opt.step();
  }
  batch(x, y);
  const double final_loss = mse_loss(net.forward(x), y, grad);
  EXPECT_LT(final_loss, initial * 0.05);
  EXPECT_LT(final_loss, 0.01);
}

TEST(AdamTest, SetLrTakesEffect) {
  Matrix w(1, 1, 0.0);
  Matrix g(1, 1, 1.0);
  Adam opt({{"w", &w, &g}}, {.lr = 0.5});
  opt.set_lr(0.001);
  EXPECT_DOUBLE_EQ(opt.config().lr, 0.001);
  opt.step();
  EXPECT_NEAR(w(0, 0), -0.001, 1e-6);
}

}  // namespace
}  // namespace deepcat::nn
