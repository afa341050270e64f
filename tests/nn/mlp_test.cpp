#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

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

// ---- Partner forms: split passes equal the whole-batch calls -----------

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

void expect_same_params(Mlp& got, Mlp& want, const std::string& what) {
  const auto g = got.params();
  const auto w = want.params();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    const std::string tensor = what + " layer " + std::to_string(p / 2) +
                               " " + g[p].name;
    expect_same_bits(*g[p].value, *w[p].value, tensor);
    expect_same_bits(*g[p].grad, *w[p].grad, tensor + " grad");
  }
}

// The serving nets (critic 41-128-128-1; actor 9-128-128-32, sigmoid) at
// batch 64 and 63: forward, backward, input_grad and soft_update_from with
// a Partner — one part without a pool, two with one — against the plain
// whole-batch calls, bit for bit on every tier.
TEST(MlpTest, PartnerFormsEqualTheWholeBatchCallsOnEveryTier) {
  using common::simd::Backend;
  struct Restore {
    ~Restore() { common::simd::force_backend(Backend::kAvx512); }
  } restore;
  struct Net {
    std::vector<std::size_t> dims;
    OutputActivation out;
  };
  const Net kNets[] = {{{41, 128, 128, 1}, OutputActivation::kNone},
                       {{9, 128, 128, 32}, OutputActivation::kSigmoid}};
  common::ThreadPool pool(1);
  for (const Backend be : {Backend::kScalar, Backend::kAvx2,
                           Backend::kAvx512}) {
    if (!common::simd::backend_selectable(be)) continue;
    common::simd::force_backend(be);
    for (const Net& net : kNets) {
      for (const std::size_t batch : {std::size_t{64}, std::size_t{63}}) {
        const std::string where =
            std::string(common::simd::backend_label(be)) + " in " +
            std::to_string(net.dims.front()) + " batch " +
            std::to_string(batch);
        common::Rng rng(net.dims.front() + batch);
        const Mlp proto(net.dims, rng, net.out);
        const Mlp source(net.dims, rng, net.out);
        Matrix x(batch, net.dims.front()), g(batch, net.dims.back());
        for (double& v : x.flat()) v = rng.uniform();
        for (double& v : g.flat()) v = rng.normal();

        Mlp whole = proto;
        Mlp whole_source = source;
        const Matrix y = whole.forward(x);
        whole.backward(x, g);
        const Matrix dx = whole.input_grad(g);
        whole.soft_update_from(whole_source, 0.005);

        for (const bool pooled : {false, true}) {
          const std::string what = where + (pooled ? " 2-part" : " 1-part");
          common::Partner partner(pooled ? &pool : nullptr);
          Mlp split = proto;
          Mlp split_source = source;
          expect_same_bits(split.forward(x, partner), y, what + " y");
          split.backward(x, g, partner);
          expect_same_bits(split.input_grad(g, partner), dx, what + " dx");
          split.soft_update_from(split_source, 0.005, partner);
          expect_same_params(split, whole, what);
        }
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::nn
