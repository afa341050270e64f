#include "rl/replay_rdper.hpp"

#include <stdexcept>

namespace deepcat::rl {

RdperReplay::RdperReplay(std::size_t capacity_per_pool, RdperConfig config)
    : capacity_per_pool_(capacity_per_pool), config_(config) {
  if (capacity_per_pool == 0) {
    throw std::invalid_argument("RdperReplay: capacity 0");
  }
  if (config.beta < 0.0 || config.beta > 1.0) {
    throw std::invalid_argument("RdperReplay: beta must be in [0,1]");
  }
  high_.storage.reserve(capacity_per_pool);
  low_.storage.reserve(capacity_per_pool);
}

void RdperReplay::set_beta(double beta) {
  if (beta < 0.0 || beta > 1.0) {
    throw std::invalid_argument("RdperReplay: beta must be in [0,1]");
  }
  config_.beta = beta;
}

void RdperReplay::restore_pools(std::vector<Transition> high,
                                std::size_t high_cursor,
                                std::vector<Transition> low,
                                std::size_t low_cursor) {
  if (high.size() > capacity_per_pool_ || low.size() > capacity_per_pool_) {
    throw std::invalid_argument("RdperReplay::restore_pools: over capacity");
  }
  if (high_cursor >= capacity_per_pool_ || low_cursor >= capacity_per_pool_) {
    throw std::invalid_argument("RdperReplay::restore_pools: bad cursor");
  }
  high_.storage = std::move(high);
  high_.next = high_cursor;
  low_.storage = std::move(low);
  low_.next = low_cursor;
}

void RdperReplay::Pool::add(Transition t, std::size_t capacity) {
  if (storage.size() < capacity) {
    storage.push_back(std::move(t));
  } else {
    storage[next] = std::move(t);
    next = (next + 1) % capacity;
  }
}

void RdperReplay::add(Transition t) {
  if (t.reward >= config_.reward_threshold) {
    high_.add(std::move(t), capacity_per_pool_);
  } else {
    low_.add(std::move(t), capacity_per_pool_);
  }
}

void RdperReplay::draw_from(const Pool& pool, std::size_t count,
                            common::Rng& rng, SampledBatch& batch) const {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t idx = rng.index(pool.size());
    batch.transitions.push_back(&pool.storage[idx]);
    batch.weights.push_back(1.0);
    batch.ids.push_back(idx);
  }
}

SampledBatch RdperReplay::sample(std::size_t m, common::Rng& rng) {
  if (size() == 0) throw std::logic_error("RdperReplay: empty sample");
  SampledBatch batch;
  batch.transitions.reserve(m);
  batch.weights.reserve(m);
  batch.ids.reserve(m);

  const std::size_t from_high =
      rdper_high_draws(m, config_.beta, high_.size(), low_.size());
  draw_from(high_, from_high, rng, batch);
  draw_from(low_, m - from_high, rng, batch);
  return batch;
}

}  // namespace deepcat::rl
