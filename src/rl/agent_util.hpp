// Helpers shared by the DDPG and TD3 agents: the value copy of an agent's
// state that both copy out and build back in, the layout check that guards
// it, and the packers that turn sampled transitions into batched matrices.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "nn/adam.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "rl/transition.hpp"

namespace deepcat::rl {

/// A value copy of an agent's trainable state: every (float) parameter
/// tensor of its networks, its optimizers' moments and step counts, and its
/// train-step counter. It holds no replay and no RNG. An agent copies its
/// state out with snapshot() and builds it back in with restore(); nothing
/// is serialized or checksummed.
struct AgentSnapshot {
  struct OptimizerState {
    std::vector<nn::Tensor> first_moments;   ///< binding order
    std::vector<nn::Tensor> second_moments;  ///< binding order
    std::size_t step_count = 0;
  };
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  /// Per network, in the agent's network order: its Mlp::params() values.
  std::vector<std::vector<nn::Tensor>> networks;
  /// In the agent's optimizer order.
  std::vector<OptimizerState> optimizers;
  std::size_t train_steps = 0;
};

/// A snapshot, or a frozen agent to clone, whose layout differs from that
/// of the agent meant to hold it. The message names the first difference.
class AgentLayoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The layout of an agent's state: its dims, each network's name and layer
/// widths {in, hidden..., out}, and each optimizer's name and the index of
/// the network whose parameters it steps, all in snapshot order.
struct AgentLayout {
  struct Network {
    const char* name = nullptr;
    std::vector<std::size_t> widths;
  };
  struct Optimizer {
    const char* name = nullptr;
    std::size_t network = 0;
  };
  std::size_t state_dim = 0;
  std::size_t action_dim = 0;
  std::vector<Network> networks;
  std::vector<Optimizer> optimizers;

  /// Throws AgentLayoutError naming the first place where `s` differs from
  /// this layout: the dims, the network count, a network's tensor count or
  /// a tensor's shape, the optimizer count, an optimizer's moment count or
  /// a moment's shape.
  void check(const AgentSnapshot& s) const;
};

/// {in, hidden..., out}: the layer widths of one of an agent's networks.
[[nodiscard]] std::vector<std::size_t> layer_widths(
    std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out);

/// An optimizer over `net`'s parameters that resumes from `state`, whose
/// moments it takes. `state` must have passed AgentLayout::check.
[[nodiscard]] nn::Adam resume_adam(nn::Mlp& net, const nn::AdamConfig& config,
                                   AgentSnapshot::OptimizerState& state);

/// `opt`'s moments and step count, copied.
[[nodiscard]] AgentSnapshot::OptimizerState state_of(const nn::Adam& opt);

// Every packer writes into a caller-owned matrix, resized in place, so an
// agent's batch buffers are allocated once and reused by every train step.
// Transitions hold doubles; what feeds a network (states, actions) is
// narrowed once to the networks' float, while rewards and terminal flags
// stay double for the TD target.

/// out = (m x state_dim) batch states.
void states_of(std::span<const Transition* const> batch, nn::Tensor& out);
/// out = (m x action_dim) batch actions.
void actions_of(std::span<const Transition* const> batch, nn::Tensor& out);
/// out = (m x state_dim) next states.
void next_states_of(std::span<const Transition* const> batch,
                    nn::Tensor& out);
/// out = (m x 1) rewards column.
void rewards_of(std::span<const Transition* const> batch, nn::Matrix& out);
/// out = (m x 1) terminal flags (1.0 if done).
void dones_of(std::span<const Transition* const> batch, nn::Matrix& out);

/// out = [A | B] column-wise concatenation (same row count).
void concat_cols(const nn::Tensor& a, const nn::Tensor& b, nn::Tensor& out);

/// out = the right `cols` columns of `m` (slices dQ/da out of dQ/d[s,a]).
void right_cols(const nn::Tensor& m, std::size_t cols, nn::Tensor& out);

/// out = one row [s | a_r] per candidate action a_r, narrowed to float:
/// `actions` holds `rows` actions back to back. One row is one critic
/// probe's input, or with an empty `actions` one actor pass's.
void state_action_rows(std::span<const double> s,
                       std::span<const double> actions, std::size_t rows,
                       nn::Tensor& out);

/// The 1 x (|s| + |a|) row [s | a]: state_action_rows with one row.
void state_action_row(std::span<const double> s, std::span<const double> a,
                      nn::Tensor& out);

/// A network output row, widened to the doubles callers act on.
[[nodiscard]] std::vector<double> to_doubles(std::span<const float> values);

/// The matrices one train step packs its batch into and chains its network
/// passes through. An agent keeps one and reuses it every step. Passes that
/// run side by side write disjoint buffers: the target-smoothing noise has
/// its own matrix, and each critic update its own output gradient.
struct StepBuffers {
  nn::Tensor s, a, s_next;          ///< the sampled batch's network inputs
  nn::Matrix r, done;               ///< its rewards and terminal flags
  nn::Tensor sa, target_in, pi_in;  ///< [s|a], [s'|a'], [s|pi(s)]
  nn::Matrix noise;                 ///< smoothing noise for a', clipped as added
  nn::Matrix y;                     ///< TD targets, in double
  nn::Tensor grad, grad2;           ///< dL/dQ1 (DDPG's dL/dQ), dL/dQ2
  nn::Tensor dq, d_action;          ///< the actor update's gradients

  /// Packs the batch's five transition fields into s, a, r, s_next, done.
  void pack(std::span<const Transition* const> batch);
};

}  // namespace deepcat::rl
