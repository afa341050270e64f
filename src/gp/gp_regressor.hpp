// Exact Gaussian-process regression via Cholesky factorization — the
// surrogate model inside the OtterTune baseline. Targets are internally
// standardized (zero mean, unit variance) for numeric stability.
#pragma once

#include <memory>
#include <vector>

#include "gp/kernel.hpp"
#include "nn/matrix.hpp"
#include "obs/sink.hpp"

namespace deepcat::gp {

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

class GpRegressor {
 public:
  /// `noise_var` is added to the kernel diagonal (observation noise).
  explicit GpRegressor(std::unique_ptr<Kernel> kernel,
                       double noise_var = 1e-4);

  GpRegressor(const GpRegressor&) = delete;
  GpRegressor& operator=(const GpRegressor&) = delete;
  GpRegressor(GpRegressor&&) noexcept = default;
  GpRegressor& operator=(GpRegressor&&) noexcept = default;

  /// Fits on n rows of X (n x d) with targets y (length n). Requires
  /// at least one sample; refit replaces prior data.
  void fit(const nn::Matrix& x, std::span<const double> y);

  /// Posterior mean/variance at a query point. Requires fit() first.
  [[nodiscard]] GpPrediction predict(std::span<const double> x) const;

  [[nodiscard]] bool fitted() const noexcept { return !train_x_.empty(); }
  [[nodiscard]] std::size_t num_samples() const noexcept {
    return train_x_.rows();
  }

  /// Log marginal likelihood of the standardized training targets under
  /// the fitted kernel: -1/2 y^T alpha - sum(log L_ii) - n/2 log(2 pi).
  /// Used for hyperparameter (length-scale) selection. Requires fit().
  [[nodiscard]] double log_marginal_likelihood() const;

  /// Attaches observability: each fit() then records a "gp.fit" span, a
  /// gp.fits counter, the sample count, and its wall time (the wall-time
  /// gauge registers as nondeterministic — see DESIGN.md §10).
  void set_obs(const obs::Sink& sink);

 private:
  std::unique_ptr<Kernel> kernel_;
  double noise_var_;
  nn::Matrix train_x_;
  nn::Matrix chol_;               ///< lower-triangular L with K = L L^T
  std::vector<double> alpha_;     ///< L^-T L^-1 y~
  std::vector<double> y_norm_;    ///< standardized targets (for LML)
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  obs::Sink obs_{};
};

/// In-place Cholesky of a symmetric positive-definite matrix; returns the
/// lower factor. Adds progressive jitter if the matrix is near-singular;
/// throws std::runtime_error if it stays non-PD.
[[nodiscard]] nn::Matrix cholesky(nn::Matrix a);

/// Solves L z = b (forward) then L^T x = z (backward).
[[nodiscard]] std::vector<double> cholesky_solve(const nn::Matrix& l,
                                                 std::span<const double> b);

}  // namespace deepcat::gp
