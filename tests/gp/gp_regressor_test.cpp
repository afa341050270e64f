#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace deepcat::gp {
namespace {

/// B * B^T in double (the GEMM kernels take the networks' floats).
nn::Matrix times_own_transpose(const nn::Matrix& b) {
  nn::Matrix out(b.rows(), b.rows());
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < b.cols(); ++p) s += b(i, p) * b(j, p);
      out(i, j) = s;
    }
  }
  return out;
}

TEST(CholeskyTest, FactorizesKnownMatrix) {
  const nn::Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  const nn::Matrix l = cholesky(a);
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(l(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
}

TEST(CholeskyTest, ReconstructsInput) {
  common::Rng rng(1);
  nn::Matrix b(5, 5);
  for (double& v : b.flat()) v = rng.normal();
  // A = B B^T + I is SPD.
  nn::Matrix a = times_own_transpose(b);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 1.0;
  const nn::Matrix l = cholesky(a);
  const nn::Matrix back = times_own_transpose(l);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(back.flat()[i], a.flat()[i], 1e-9);
  }
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_THROW((void)cholesky(nn::Matrix(2, 3)), std::invalid_argument);
}

TEST(CholeskyTest, RejectsIndefinite) {
  const nn::Matrix a{{1.0, 0.0}, {0.0, -5.0}};
  EXPECT_THROW((void)cholesky(a), std::runtime_error);
}

TEST(CholeskySolveTest, SolvesLinearSystem) {
  const nn::Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  const nn::Matrix l = cholesky(a);
  const std::vector<double> b{10.0, 13.0};
  const auto x = cholesky_solve(l, b);
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 10.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 5.0 * x[1], 13.0, 1e-12);
}

TEST(GpRegressorTest, RejectsInvalidConstruction) {
  EXPECT_THROW(GpRegressor(nullptr), std::invalid_argument);
  EXPECT_THROW(GpRegressor(std::make_unique<RbfKernel>(1.0), -1.0),
               std::invalid_argument);
}

TEST(GpRegressorTest, PredictBeforeFitThrows) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0));
  EXPECT_THROW((void)gp.predict(std::vector<double>{0.0}),
               std::logic_error);
}

TEST(GpRegressorTest, FitValidatesShapes) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0));
  EXPECT_THROW(gp.fit(nn::Matrix(0, 1), std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(gp.fit(nn::Matrix(2, 1), std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(GpRegressorTest, InterpolatesTrainingPoints) {
  nn::Matrix x(3, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 0.5;
  x(2, 0) = 1.0;
  const std::vector<double> y{1.0, -1.0, 2.0};
  GpRegressor gp(std::make_unique<RbfKernel>(0.3), 1e-8);
  gp.fit(x, y);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 1e-3);
    EXPECT_LT(p.variance, 1e-3);
  }
}

TEST(GpRegressorTest, VarianceGrowsAwayFromData) {
  nn::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const std::vector<double> y{0.0, 1.0};
  GpRegressor gp(std::make_unique<Matern52Kernel>(0.5), 1e-6);
  gp.fit(x, y);
  const auto at_data = gp.predict(std::vector<double>{0.0});
  const auto far_away = gp.predict(std::vector<double>{5.0});
  EXPECT_LT(at_data.variance, far_away.variance);
}

TEST(GpRegressorTest, FarPredictionRevertsToPriorMean) {
  nn::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const std::vector<double> y{10.0, 20.0};
  GpRegressor gp(std::make_unique<RbfKernel>(0.3), 1e-6);
  gp.fit(x, y);
  const auto far = gp.predict(std::vector<double>{100.0});
  EXPECT_NEAR(far.mean, 15.0, 0.5);  // standardized prior mean = data mean
}

TEST(GpRegressorTest, LearnsSmoothFunction) {
  common::Rng rng(3);
  const auto f = [](double a, double b) { return std::sin(3.0 * a) + b * b; };
  nn::Matrix x(60, 2);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = f(x(i, 0), x(i, 1));
  }
  GpRegressor gp(std::make_unique<Matern52Kernel>(0.4), 1e-6);
  gp.fit(x, y);
  double max_err = 0.0;
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> q{rng.uniform(), rng.uniform()};
    max_err = std::max(max_err,
                       std::abs(gp.predict(q).mean - f(q[0], q[1])));
  }
  EXPECT_LT(max_err, 0.15);
}

TEST(GpRegressorTest, ConstantTargetsAreStable) {
  nn::Matrix x(3, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 0.5;
  x(2, 0) = 1.0;
  const std::vector<double> y{7.0, 7.0, 7.0};
  GpRegressor gp(std::make_unique<RbfKernel>(0.5), 1e-6);
  gp.fit(x, y);
  const auto p = gp.predict(std::vector<double>{0.25});
  EXPECT_NEAR(p.mean, 7.0, 1e-6);
}

TEST(GpRegressorTest, RefitReplacesData) {
  nn::Matrix x1(1, 1);
  x1(0, 0) = 0.0;
  GpRegressor gp(std::make_unique<RbfKernel>(0.5), 1e-8);
  gp.fit(x1, std::vector<double>{5.0});
  EXPECT_EQ(gp.num_samples(), 1u);
  nn::Matrix x2(2, 1);
  x2(0, 0) = 0.0;
  x2(1, 0) = 1.0;
  gp.fit(x2, std::vector<double>{1.0, 2.0});
  EXPECT_EQ(gp.num_samples(), 2u);
  EXPECT_NEAR(gp.predict(std::vector<double>{0.0}).mean, 1.0, 1e-3);
}

}  // namespace
}  // namespace deepcat::gp
