#include "rl/agent_util.hpp"

#include <gtest/gtest.h>

namespace deepcat::rl {
namespace {

std::vector<Transition> sample_transitions() {
  return {
      {{1.0, 2.0}, {0.1, 0.2, 0.3}, 0.5, {3.0, 4.0}, false},
      {{5.0, 6.0}, {0.4, 0.5, 0.6}, -1.5, {7.0, 8.0}, true},
  };
}

std::vector<const Transition*> ptrs(const std::vector<Transition>& ts) {
  std::vector<const Transition*> out;
  for (const auto& t : ts) out.push_back(&t);
  return out;
}

TEST(AgentUtilTest, PacksStates) {
  const auto ts = sample_transitions();
  nn::Tensor s;
  states_of(ptrs(ts), s);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_FLOAT_EQ(s(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s(1, 1), 6.0f);
}

TEST(AgentUtilTest, PacksActionsNextStatesRewardsDones) {
  const auto ts = sample_transitions();
  const auto p = ptrs(ts);
  nn::Tensor a, s2;
  nn::Matrix r, d;
  actions_of(p, a);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_FLOAT_EQ(a(1, 2), 0.6f);
  next_states_of(p, s2);
  EXPECT_FLOAT_EQ(s2(0, 1), 4.0f);
  rewards_of(p, r);
  EXPECT_EQ(r.cols(), 1u);
  EXPECT_DOUBLE_EQ(r(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(r(1, 0), -1.5);
  dones_of(p, d);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
}

TEST(AgentUtilTest, EmptyBatchThrows) {
  const std::vector<const Transition*> empty;
  nn::Tensor out;
  EXPECT_THROW(states_of(empty, out), std::invalid_argument);
}

TEST(AgentUtilTest, RaggedBatchThrows) {
  std::vector<Transition> ts = sample_transitions();
  ts[1].state = {1.0};  // wrong dimension
  nn::Tensor out;
  EXPECT_THROW(states_of(ptrs(ts), out), std::invalid_argument);
}

TEST(AgentUtilTest, ConcatCols) {
  const nn::Tensor a{{1.0, 2.0}, {3.0, 4.0}};
  const nn::Tensor b{{5.0}, {6.0}};
  nn::Tensor c;
  concat_cols(a, b, c);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 3.0f);
}

TEST(AgentUtilTest, ConcatColsRowMismatchThrows) {
  nn::Tensor out;
  EXPECT_THROW(concat_cols(nn::Tensor(2, 2), nn::Tensor(3, 1), out),
               std::invalid_argument);
}

TEST(AgentUtilTest, RightCols) {
  const nn::Tensor m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  nn::Tensor r;
  right_cols(m, 2, r);
  EXPECT_EQ(r.cols(), 2u);
  EXPECT_FLOAT_EQ(r(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(r(1, 1), 6.0f);
  EXPECT_THROW(right_cols(m, 4, r), std::invalid_argument);
}

TEST(AgentUtilTest, RightColsFullWidthIsIdentity) {
  const nn::Tensor m{{1.0, 2.0}, {3.0, 4.0}};
  nn::Tensor r;
  right_cols(m, 2, r);
  EXPECT_EQ(r, m);
}

TEST(AgentUtilTest, StateActionRow) {
  const std::vector<double> s{1.0, 2.0};
  const std::vector<double> a{3.0};
  nn::Tensor row(4, 4, 9.0f);  // reused storage of another shape
  state_action_row(s, a, row);
  EXPECT_EQ(row, (nn::Tensor{{1.0, 2.0, 3.0}}));
}

}  // namespace
}  // namespace deepcat::rl
