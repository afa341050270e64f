#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "nn/mlp.hpp"

namespace deepcat::nn {
namespace {

using common::simd::Backend;

std::vector<Backend> selectable_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    if (common::simd::backend_selectable(b)) out.push_back(b);
  }
  return out;
}

struct BackendGuard {
  ~BackendGuard() { common::simd::force_backend(Backend::kAvx512); }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Parameter tensors with gradients and both Adam moments, drawn from a
/// fixed seed (second moments >= 0), plus the Adam over them resumed at
/// `step_count`.
struct Tensors {
  std::vector<Matrix> value, grad, m, v;

  Tensors(const std::vector<std::size_t>& sizes, std::uint64_t seed) {
    common::Rng rng(seed);
    auto draw = [&rng](std::size_t n) {
      Matrix out(1, n);
      for (double& x : out.flat()) x = rng.normal();
      return out;
    };
    for (const std::size_t n : sizes) {
      value.push_back(draw(n));
      grad.push_back(draw(n));
      m.push_back(draw(n));
      v.push_back(draw(n));
      for (double& x : v.back().flat()) x = std::abs(x);
    }
  }

  Adam optimizer(AdamConfig config, std::size_t step_count) {
    std::vector<Param> params;
    for (std::size_t i = 0; i < value.size(); ++i) {
      params.push_back({"t" + std::to_string(i), &value[i], &grad[i]});
    }
    return Adam(std::move(params), config, m, v, step_count);
  }
};

void expect_same_bits(const std::vector<Matrix>& got,
                      const std::vector<Matrix>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), want[t].size()) << what;
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      ASSERT_EQ(bits(got[t].flat()[i]), bits(want[t].flat()[i]))
          << what << " tensor " << t << " elem " << i;
    }
  }
}

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

// A net that has never run backward or zero_grad holds no gradient; a step
// over it throws and changes nothing rather than read an empty buffer.
TEST(AdamTest, StepOnANeverSizedGradientThrows) {
  common::Rng rng(3);
  Mlp net({2, 4, 1}, rng);
  const std::vector<Matrix> before = net.param_values();
  Adam opt(net.params());
  EXPECT_THROW(opt.step(), std::logic_error);
  EXPECT_EQ(opt.step_count(), 0u);
  EXPECT_EQ(net.param_values(), before);
  net.zero_grad();
  opt.step();
  EXPECT_EQ(opt.step_count(), 1u);
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

// One optimizer step over tensors whose sizes straddle the 4- and 8-wide
// lanes against the unfused composition under the same backend: the clip
// scale from one dispatched dot per tensor, then one adam_update per
// tensor. Bit-exact for clipping disabled (grad_clip <= 0), not triggered
// and triggered, at the first step and past t = 356, where bc1 == 1.
TEST(AdamTest, StepMatchesUnfusedCompositionBitExact) {
  BackendGuard guard;
  namespace simd = common::simd;
  const std::vector<std::size_t> sizes = {1, 3, 17, 64, 5};
  for (const Backend be : selectable_backends()) {
    simd::force_backend(be);
    for (const std::size_t t0 : {std::size_t{0}, std::size_t{400}}) {
      for (const double grad_clip : {-1.0, 0.0, 1e9, 0.5}) {
        SCOPED_TRACE(std::string(simd::backend_label(be)) +
                     " t0=" + std::to_string(t0) +
                     " clip=" + std::to_string(grad_clip));
        Tensors got(sizes, 29);
        Tensors want(sizes, 29);
        const AdamConfig config{.grad_clip = grad_clip};
        Adam opt = got.optimizer(config, t0);
        opt.step();

        const auto t = static_cast<double>(t0 + 1);
        const double bc1 = 1.0 - std::pow(config.beta1, t);
        const double bc2 = 1.0 - std::pow(config.beta2, t);
        double scale = 1.0;
        if (grad_clip > 0.0) {
          double sq = 0.0;
          for (const Matrix& g : want.grad) {
            sq += simd::dot(g.data(), g.data(), g.size());
          }
          const double norm = std::sqrt(sq);
          if (norm > grad_clip) scale = grad_clip / norm;
        }
        for (std::size_t i = 0; i < sizes.size(); ++i) {
          simd::adam_update(want.value[i].data(), want.grad[i].data(),
                            want.m[i].data(), want.v[i].data(), sizes[i],
                            scale, config.beta1, config.beta2, bc1, bc2,
                            config.lr, config.eps);
        }
        expect_same_bits(got.value, want.value, "value");
        expect_same_bits(opt.first_moments(), want.m, "m");
        expect_same_bits(opt.second_moments(), want.v, "v");
      }
    }
  }
}

// The vector tiers agree with the scalar one to the usual 1e-12 reduction
// tolerance on a clipped step.
TEST(AdamTest, ClippedStepBackendsAgree) {
  BackendGuard guard;
  auto run = [](Backend be) {
    common::simd::force_backend(be);
    Tensors tensors({103}, 30);
    Adam opt = tensors.optimizer({.grad_clip = 0.5}, 0);
    opt.step();
    return tensors.value[0];
  };
  const Matrix scalar = run(Backend::kScalar);
  for (const Backend be : selectable_backends()) {
    const Matrix vec = run(be);
    for (std::size_t i = 0; i < vec.size(); ++i) {
      const double tol = 1e-12 * std::max(1.0, std::abs(scalar.flat()[i]));
      EXPECT_NEAR(vec.flat()[i], scalar.flat()[i], tol)
          << common::simd::backend_label(be) << " elem " << i;
    }
  }
}

// step(partner) splits every tensor's elements across the borrowed worker
// at a multiple of 8; it must equal step() bit for bit, clipped or not, at
// the serving critic's tensor sizes (41x128, 128, 128x128, 128, 128x1, 1)
// and odd ones, before and after bc1 reaches 1.
TEST(AdamTest, SplitStepEqualsWholeStep) {
  BackendGuard guard;
  const std::vector<std::size_t> sizes = {41 * 128, 128, 128 * 128, 128, 128,
                                          1,        3,   9,         17,  63};
  common::ThreadPool pool(1);
  for (const Backend be : selectable_backends()) {
    common::simd::force_backend(be);
    for (const std::size_t t0 : {std::size_t{0}, std::size_t{400}}) {
      for (const double grad_clip : {0.0, 0.5}) {
        SCOPED_TRACE(std::string(common::simd::backend_label(be)) +
                     " t0=" + std::to_string(t0) +
                     " clip=" + std::to_string(grad_clip));
        Tensors whole(sizes, 31), one(sizes, 31), two(sizes, 31);
        Adam whole_opt = whole.optimizer({.grad_clip = grad_clip}, t0);
        Adam one_opt = one.optimizer({.grad_clip = grad_clip}, t0);
        Adam two_opt = two.optimizer({.grad_clip = grad_clip}, t0);
        whole_opt.step();
        common::Partner serial;
        one_opt.step(serial);
        common::Partner partner(&pool);
        ASSERT_EQ(partner.parts(), 2u);
        two_opt.step(partner);
        for (const auto* split : {&one, &two}) {
          expect_same_bits(split->value, whole.value, "value");
        }
        expect_same_bits(one_opt.first_moments(), whole_opt.first_moments(),
                         "m");
        expect_same_bits(two_opt.first_moments(), whole_opt.first_moments(),
                         "m");
        expect_same_bits(two_opt.second_moments(),
                         whole_opt.second_moments(), "v");
        EXPECT_EQ(two_opt.step_count(), whole_opt.step_count());
      }
    }
  }
}

// From t = 356 on, 1 - 0.9^t rounds to exactly 1.0 and the kernels skip
// m / bc1. The update must still be value - lr * (m / bc1) / (sqrt(v / bc2)
// + eps) with the step's own stored moments, bit for bit, for first
// moments that are signed zeros, subnormals, infinities, NaN or ordinary
// values; the same check at the first step covers the divide it skips.
TEST(AdamTest, UnitBiasCorrectionEqualsTheDividePath) {
  BackendGuard guard;
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kSub = std::numeric_limits<double>::denorm_min() * 7.0;
  // (m before, grad): m after = 0.9 m + 0.1 g is the value named.
  const std::vector<std::pair<double, double>> kCases = {
      {0.0, 0.0},   {-0.0, -0.0}, {kSub, 0.0},  {-kSub, 0.0}, {kInf, 0.5},
      {-kInf, 0.5}, {kNan, 0.5},  {0.25, -1.5}, {-3.0, 2.0},  {1e-3, 7.0},
      {2.5, 0.0},   {-0.75, 1e-4}};
  for (const Backend be : selectable_backends()) {
    common::simd::force_backend(be);
    // 2 x 12 elements: the 8- and 4-wide lanes and the scalar tail.
    for (const std::size_t t0 : {std::size_t{0}, std::size_t{355},
                                 std::size_t{400}}) {
      SCOPED_TRACE(std::string(common::simd::backend_label(be)) +
                   " t0=" + std::to_string(t0));
      const std::size_t n = 2 * kCases.size();
      Matrix value(1, n), grad(1, n), m(1, n), v(1, n);
      for (std::size_t i = 0; i < n; ++i) {
        value.flat()[i] = 0.5 + static_cast<double>(i);
        m.flat()[i] = kCases[i % kCases.size()].first;
        grad.flat()[i] = kCases[i % kCases.size()].second;
        v.flat()[i] = 0.01 * static_cast<double>(i + 1);
      }
      const Matrix value0 = value;
      const AdamConfig config{.lr = 1e-2};
      Adam opt({{"p", &value, &grad}}, config, {m}, {v}, t0);
      opt.step();
      const auto t = static_cast<double>(t0 + 1);
      // Opaque, so the compiler cannot fold the divide the kernel skips.
      volatile double bc1_in = 1.0 - std::pow(config.beta1, t);
      const double bc1 = bc1_in;
      EXPECT_EQ(bc1 == 1.0, t0 + 1 >= 356);
      const double bc2 = 1.0 - std::pow(config.beta2, t);
      for (std::size_t i = 0; i < n; ++i) {
        const double m1 = opt.first_moments()[0].flat()[i];
        const double v1 = opt.second_moments()[0].flat()[i];
        const double want = value0.flat()[i] - config.lr * (m1 / bc1) /
                                                   (std::sqrt(v1 / bc2) +
                                                    config.eps);
        EXPECT_EQ(bits(value.flat()[i]), bits(want))
            << "elem " << i << " m=" << m1;
      }
    }
  }
}

}  // namespace
}  // namespace deepcat::nn
