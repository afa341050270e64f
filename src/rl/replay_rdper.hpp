// RDPER — DeepCAT's reward-driven prioritized experience replay (paper
// §3.3). Transitions are routed by reward against a threshold R_th into a
// high-reward pool P_high or a low-reward pool P_low. Each minibatch of
// size m draws round(beta * m) samples from P_high and the rest from
// P_low, guaranteeing the share of rare, valuable high-reward experience
// in every update regardless of how scarce it is in the stream.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/rng.hpp"
#include "rl/replay.hpp"

namespace deepcat::rl {

struct RdperConfig {
  double reward_threshold = 0.0;  ///< R_th: reward >= R_th goes to P_high
  double beta = 0.6;              ///< high-reward share of each batch (paper §5.4.1)
};

/// RDPER's split of an m-sample batch over pools of `high_size` and
/// `low_size` transitions: round(beta * m) draws from P_high and the rest
/// from P_low, or all m from one pool while the other is empty. Returns
/// the P_high share.
[[nodiscard]] inline std::size_t rdper_high_draws(
    std::size_t m, double beta, std::size_t high_size,
    std::size_t low_size) noexcept {
  if (low_size == 0) return m;
  if (high_size == 0) return 0;
  return static_cast<std::size_t>(std::llround(beta * static_cast<double>(m)));
}

class RdperReplay final : public ReplayBuffer {
 public:
  /// Each pool is its own ring of `capacity_per_pool` transitions.
  RdperReplay(std::size_t capacity_per_pool, RdperConfig config = {});

  void add(Transition t) override;

  /// If one pool is still empty, the whole batch falls back to the other
  /// pool (training can begin before the first high-reward transition).
  [[nodiscard]] SampledBatch sample(std::size_t m, common::Rng& rng) override;

  [[nodiscard]] std::size_t size() const noexcept override {
    return high_.size() + low_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept override {
    return 2 * capacity_per_pool_;
  }

  [[nodiscard]] std::size_t high_pool_size() const noexcept {
    return high_.size();
  }
  [[nodiscard]] std::size_t low_pool_size() const noexcept {
    return low_.size();
  }
  [[nodiscard]] const RdperConfig& config() const noexcept { return config_; }
  void set_beta(double beta);

  /// Read-only views plus ring cursors over both pools, and a bulk restore.
  /// Together these let the checkpoint layer round-trip the pools exactly:
  /// contents, insertion order, and where the next overwrite lands.
  [[nodiscard]] std::span<const Transition> high_pool() const noexcept {
    return high_.storage;
  }
  [[nodiscard]] std::span<const Transition> low_pool() const noexcept {
    return low_.storage;
  }
  [[nodiscard]] std::size_t high_cursor() const noexcept { return high_.next; }
  [[nodiscard]] std::size_t low_cursor() const noexcept { return low_.next; }
  void restore_pools(std::vector<Transition> high, std::size_t high_cursor,
                     std::vector<Transition> low, std::size_t low_cursor);

 private:
  struct Pool {
    std::size_t next = 0;
    std::vector<Transition> storage;

    void add(Transition t, std::size_t capacity);
    [[nodiscard]] std::size_t size() const noexcept { return storage.size(); }
  };

  void draw_from(const Pool& pool, std::size_t count, common::Rng& rng,
                 SampledBatch& batch) const;

  std::size_t capacity_per_pool_;
  RdperConfig config_;
  Pool high_, low_;
};

}  // namespace deepcat::rl
