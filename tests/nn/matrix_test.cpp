#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace deepcat::nn {
namespace {

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
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(matmul(a, Matrix::identity(2)), a);
  EXPECT_EQ(matmul(Matrix::identity(2), a), a);
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
  EXPECT_THROW((void)matmul(b, b), std::invalid_argument);
}

TEST(MatrixTest, MatmulKnownResult) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  EXPECT_EQ(matmul(a, b), (Matrix{{19.0, 22.0}, {43.0, 50.0}}));
}

TEST(MatrixTest, MatmulTnEqualsTransposeThenMultiply) {
  common::Rng rng(1);
  Matrix a(4, 3), b(4, 5);
  for (double& x : a.flat()) x = rng.normal();
  for (double& x : b.flat()) x = rng.normal();
  const Matrix expected = matmul(a.transposed(), b);
  const Matrix got = matmul_tn(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], expected.flat()[i], 1e-12);
  }
}

TEST(MatrixTest, MatmulNtEqualsMultiplyByTranspose) {
  common::Rng rng(2);
  Matrix a(3, 4), b(5, 4);
  for (double& x : a.flat()) x = rng.normal();
  for (double& x : b.flat()) x = rng.normal();
  const Matrix expected = matmul(a, b.transposed());
  const Matrix got = matmul_nt(a, b);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.flat()[i], expected.flat()[i], 1e-12);
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
