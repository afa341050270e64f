#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>

#include "common/rng.hpp"

namespace deepcat::nn {
namespace {

// Two float products of the same k-term sums, each within
// (k + 2) * FLT_EPSILON * sum |a_p * b_p| of the exact value, differ by at
// most twice that.
double float_pair_bound(std::size_t k, double sum_abs) {
  return 2.0 * static_cast<double>(k + 2) * static_cast<double>(FLT_EPSILON) *
         sum_abs;
}

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (double v : m.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
  m.fill(1.5);
  for (double v : m.flat()) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(MatrixTest, InitializerList) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, VectorFactories) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const Matrix r = Matrix::row_vector(v);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  const Matrix c = Matrix::col_vector(v);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_DOUBLE_EQ(c(2, 0), 3.0);
}

TEST(MatrixTest, IdentityMultiplicationIsNoop) {
  const Tensor a{{1.0f, 2.0f}, {3.0f, 4.0f}};
  EXPECT_EQ(matmul(a, Tensor::identity(2)), a);
  EXPECT_EQ(matmul(Tensor::identity(2), a), a);
}

TEST(MatrixTest, ArithmeticOperators) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{3.0, 5.0}};
  EXPECT_EQ(a + b, (Matrix{{4.0, 7.0}}));
  EXPECT_EQ(b - a, (Matrix{{2.0, 3.0}}));
  EXPECT_EQ(a * 2.0, (Matrix{{2.0, 4.0}}));
  EXPECT_EQ(2.0 * a, (Matrix{{2.0, 4.0}}));
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  const Tensor t(2, 3);
  EXPECT_THROW((void)matmul(t, t), std::invalid_argument);
}

TEST(MatrixTest, MatmulKnownResult) {
  const Tensor a{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const Tensor b{{5.0f, 6.0f}, {7.0f, 8.0f}};
  EXPECT_EQ(matmul(a, b), (Tensor{{19.0f, 22.0f}, {43.0f, 50.0f}}));
}

TEST(MatrixTest, MatmulTnEqualsTransposeThenMultiply) {
  common::Rng rng(1);
  Tensor a(4, 3), b(4, 5);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  const Tensor expected = matmul(a.transposed(), b);
  const Tensor got = matmul_tn(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      double sum_abs = 0.0;
      for (std::size_t p = 0; p < a.rows(); ++p) {
        sum_abs += std::abs(static_cast<double>(a(p, i) * b(p, j)));
      }
      EXPECT_NEAR(got(i, j), expected(i, j),
                  float_pair_bound(a.rows(), sum_abs));
    }
  }
}

TEST(MatrixTest, MatmulNtEqualsMultiplyByTranspose) {
  common::Rng rng(2);
  Tensor a(3, 4), b(5, 4);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  const Tensor expected = matmul(a, b.transposed());
  const Tensor got = matmul_nt(a, b);
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      double sum_abs = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        sum_abs += std::abs(static_cast<double>(a(i, p) * b(j, p)));
      }
      EXPECT_NEAR(got(i, j), expected(i, j),
                  float_pair_bound(a.cols(), sum_abs));
    }
  }
}

TEST(MatrixTest, TransposeInvolution) {
  common::Rng rng(3);
  Matrix a(3, 7);
  for (double& x : a.flat()) x = rng.normal();
  EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(MatrixTest, NormIsFrobenius) {
  const Matrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.norm(), 5.0);
}

TEST(MatrixTest, RowSpanReflectsMutation) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

}  // namespace
}  // namespace deepcat::nn
