#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"

namespace deepcat::nn {
namespace {

TEST(MlpTest, BuildsExpectedStack) {
  common::Rng rng(1);
  Mlp net({4, 8, 2}, rng, OutputActivation::kSigmoid);
  // Linear+ReLU, then Linear+Sigmoid: the activations are fused in.
  EXPECT_EQ(net.num_layers(), 2u);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8 * 2 + 2);
}

TEST(MlpTest, RejectsDegenerateDims) {
  common::Rng rng(1);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
}

TEST(MlpTest, ForwardShapes) {
  common::Rng rng(2);
  Mlp net({3, 16, 16, 2}, rng);
  const Matrix y = net.forward(Matrix(5, 3, 0.1));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(MlpTest, SigmoidOutputInUnitInterval) {
  common::Rng rng(3);
  Mlp net({3, 8, 4}, rng, OutputActivation::kSigmoid);
  Matrix x(10, 3);
  common::Rng data_rng(4);
  for (double& v : x.flat()) v = data_rng.normal(0.0, 3.0);
  const Matrix y = net.forward(x);
  for (double v : y.flat()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MlpTest, ForwardOneMatchesBatchRow) {
  common::Rng rng(5);
  Mlp net({3, 8, 2}, rng);
  const std::vector<double> x{0.1, -0.2, 0.3};
  const auto single = net.forward_one(x);
  const Matrix batch = net.forward(Matrix::row_vector(x));
  ASSERT_EQ(single.size(), 2u);
  EXPECT_DOUBLE_EQ(single[0], batch(0, 0));
  EXPECT_DOUBLE_EQ(single[1], batch(0, 1));
}

TEST(MlpTest, EndToEndGradientMatchesNumeric) {
  common::Rng rng(6);
  Mlp net({3, 6, 1}, rng, OutputActivation::kTanh);
  common::Rng data_rng(7);
  Matrix x(4, 3);
  for (double& v : x.flat()) v = data_rng.normal(0.0, 0.5);
  Matrix target(4, 1);
  for (double& v : target.flat()) v = data_rng.uniform(-0.5, 0.5);

  net.zero_grad();
  Matrix grad;
  const Matrix pred = net.forward(x);
  (void)mse_loss(pred, target, grad);
  net.backward(x, grad);

  const double eps = 1e-6;
  for (auto& p : net.params()) {
    for (std::size_t i = 0; i < p.value->size(); i += 7) {  // spot-check
      const double orig = p.value->flat()[i];
      Matrix scratch;
      p.value->flat()[i] = orig + eps;
      const double lp = mse_loss(net.forward(x), target, scratch);
      p.value->flat()[i] = orig - eps;
      const double lm = mse_loss(net.forward(x), target, scratch);
      p.value->flat()[i] = orig;
      EXPECT_NEAR(p.grad->flat()[i], (lp - lm) / (2.0 * eps), 1e-5);
    }
  }
}

TEST(MlpTest, CopyIsDeep) {
  common::Rng rng(8);
  Mlp a({2, 4, 1}, rng);
  Mlp b = a;
  const std::vector<double> x{0.5, -0.5};
  EXPECT_EQ(a.forward_one(x), b.forward_one(x));
  // Mutate a; b must not follow.
  *a.params()[0].value *= 2.0;
  EXPECT_NE(a.forward_one(x), b.forward_one(x));
}

TEST(MlpTest, SoftUpdateBlendsParameters) {
  common::Rng rng(9);
  Mlp target({2, 4, 1}, rng);
  Mlp source({2, 4, 1}, rng);
  const double before = target.params()[0].value->flat()[0];
  const double src = source.params()[0].value->flat()[0];
  target.soft_update_from(source, 0.25);
  EXPECT_NEAR(target.params()[0].value->flat()[0],
              0.25 * src + 0.75 * before, 1e-12);
}

TEST(MlpTest, HardCopyEqualsSource) {
  common::Rng rng(10);
  Mlp target({2, 4, 1}, rng);
  Mlp source({2, 4, 1}, rng);
  target.copy_params_from(source);
  const std::vector<double> x{1.0, 2.0};
  EXPECT_EQ(target.forward_one(x), source.forward_one(x));
}

TEST(MlpTest, SoftUpdateRejectsMismatchedShapes) {
  common::Rng rng(11);
  Mlp a({2, 4, 1}, rng);
  Mlp b({2, 5, 1}, rng);
  EXPECT_THROW(a.soft_update_from(b, 0.5), std::invalid_argument);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  common::Rng rng(12);
  Mlp a({3, 8, 2}, rng, OutputActivation::kSigmoid);
  Mlp b({3, 8, 2}, rng, OutputActivation::kSigmoid);
  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<double> x{0.2, 0.4, 0.6};
  EXPECT_EQ(a.forward_one(x), b.forward_one(x));
}

TEST(MlpTest, LoadRejectsWrongArchitecture) {
  common::Rng rng(13);
  Mlp a({3, 8, 2}, rng);
  Mlp b({3, 9, 2}, rng);
  std::stringstream ss;
  a.save(ss);
  EXPECT_THROW(b.load(ss), std::runtime_error);
}

TEST(MlpTest, LoadRejectsTruncatedStream) {
  common::Rng rng(14);
  Mlp a({2, 4, 1}, rng);
  std::stringstream ss;
  a.save(ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(a.load(truncated), std::runtime_error);
}

TEST(MseLossTest, KnownValueAndGradient) {
  const Matrix pred{{1.0, 2.0}};
  const Matrix target{{0.0, 4.0}};
  Matrix grad;
  const double loss = mse_loss(pred, target, grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);  // mean of squared errors
  EXPECT_DOUBLE_EQ(grad(0, 0), 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 2.0 * -2.0 / 2.0);
}

TEST(MseLossTest, ZeroWhenEqual) {
  const Matrix p{{1.0, 2.0}, {3.0, 4.0}};
  Matrix grad;
  EXPECT_DOUBLE_EQ(mse_loss(p, p, grad), 0.0);
  for (double g : grad.flat()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(MseLossTest, ShapeMismatchThrows) {
  Matrix grad;
  EXPECT_THROW((void)mse_loss(Matrix(1, 2), Matrix(2, 1), grad),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::nn
