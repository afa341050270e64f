// Weight initialization schemes for the dense layers.
#pragma once

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace deepcat::nn {

/// Kaiming-uniform for ReLU networks: U(-b, b), b = sqrt(6 / fan_in).
void kaiming_uniform(Tensor& w, common::Rng& rng);

/// Xavier/Glorot-uniform for tanh networks: b = sqrt(6 / (fan_in+fan_out)).
void xavier_uniform(Tensor& w, common::Rng& rng);

/// Plain uniform U(-bound, bound); DDPG/TD3 conventionally initialize the
/// final layer with a small bound (3e-3) so initial actions are near zero.
void uniform_init(Tensor& w, common::Rng& rng, double bound);

}  // namespace deepcat::nn
