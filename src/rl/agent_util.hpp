// Helpers shared by the DDPG and TD3 agents for packing sampled
// transitions into batched matrices and splitting critic input gradients.
#pragma once

#include <span>

#include "nn/matrix.hpp"
#include "rl/transition.hpp"

namespace deepcat::rl {

// Every packer writes into a caller-owned matrix, resized in place, so an
// agent's batch buffers are allocated once and reused by every train step.

/// out = (m x state_dim) batch states.
void states_of(std::span<const Transition* const> batch, nn::Matrix& out);
/// out = (m x action_dim) batch actions.
void actions_of(std::span<const Transition* const> batch, nn::Matrix& out);
/// out = (m x state_dim) next states.
void next_states_of(std::span<const Transition* const> batch,
                    nn::Matrix& out);
/// out = (m x 1) rewards column.
void rewards_of(std::span<const Transition* const> batch, nn::Matrix& out);
/// out = (m x 1) terminal flags (1.0 if done).
void dones_of(std::span<const Transition* const> batch, nn::Matrix& out);

/// out = [A | B] column-wise concatenation (same row count).
void concat_cols(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix& out);

/// out = the right `cols` columns of `m` (slices dQ/da out of dQ/d[s,a]).
void right_cols(const nn::Matrix& m, std::size_t cols, nn::Matrix& out);

/// out = the 1 x (|s| + |a|) row [s | a]: one critic probe's input, or with
/// an empty `a` one actor pass's.
void state_action_row(std::span<const double> s, std::span<const double> a,
                      nn::Matrix& out);

/// The matrices one train step packs its batch into and chains its network
/// passes through. An agent keeps one and reuses it every step. Passes that
/// run side by side write disjoint buffers: the target-smoothing noise has
/// its own matrix, and each critic update its own output gradient.
struct StepBuffers {
  nn::Matrix s, a, r, s_next, done;  ///< the sampled batch
  nn::Matrix sa, target_in, pi_in;   ///< [s|a], [s'|a'], [s|pi(s)]
  nn::Matrix noise;                  ///< clipped smoothing noise for a'
  nn::Matrix y;                      ///< TD targets
  nn::Matrix grad, grad2;            ///< dL/dQ1 (DDPG's dL/dQ), dL/dQ2
  nn::Matrix dq, d_action;           ///< the actor update's gradients

  /// Packs the batch's five transition fields into s, a, r, s_next, done.
  void pack(std::span<const Transition* const> batch);
};

}  // namespace deepcat::rl
