#include "nn/init.hpp"

#include <cmath>

namespace deepcat::nn {

namespace {
// Draws in double (the RNG's), each narrowed once to the float weight.
void fill_uniform(Tensor& w, common::Rng& rng, double bound) {
  for (float& x : w.flat()) x = static_cast<float>(rng.uniform(-bound, bound));
}
}  // namespace

void kaiming_uniform(Tensor& w, common::Rng& rng) {
  const double fan_in = static_cast<double>(w.rows());
  fill_uniform(w, rng, std::sqrt(6.0 / fan_in));
}

void xavier_uniform(Tensor& w, common::Rng& rng) {
  const double fan_sum = static_cast<double>(w.rows() + w.cols());
  fill_uniform(w, rng, std::sqrt(6.0 / fan_sum));
}

void uniform_init(Tensor& w, common::Rng& rng, double bound) {
  fill_uniform(w, rng, bound);
}

}  // namespace deepcat::nn
