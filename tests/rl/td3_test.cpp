#include "rl/td3.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "rl/ddpg.hpp"
#include "rl/replay.hpp"

namespace deepcat::rl {
namespace {

Td3Config small_config() {
  Td3Config c;
  c.state_dim = 2;
  c.action_dim = 1;
  c.hidden = {24, 24};
  c.gamma = 0.3;
  c.actor_lr = 1e-3;
  c.critic_lr = 2e-3;
  c.batch_size = 32;
  return c;
}

// A one-step bandit: reward depends only on the action, peaked at a*.
// The agent should learn to act near a*.
void fill_bandit_buffer(ReplayBuffer& buffer, common::Rng& rng,
                        double optimum, int n) {
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform();
    const double r = 1.0 - 2.0 * std::abs(a - optimum);
    buffer.add({{0.5, 0.5}, {a}, r, {0.5, 0.5}, true});
  }
}

TEST(Td3Test, ConfigValidation) {
  common::Rng rng(1);
  Td3Config c = small_config();
  c.state_dim = 0;
  EXPECT_THROW(Td3Agent(c, rng), std::invalid_argument);
  c = small_config();
  c.batch_size = 0;
  EXPECT_THROW(Td3Agent(c, rng), std::invalid_argument);
  c = small_config();
  c.policy_delay = 0;
  EXPECT_THROW(Td3Agent(c, rng), std::invalid_argument);
  c = small_config();
  c.gamma = 1.5;
  EXPECT_THROW(Td3Agent(c, rng), std::invalid_argument);
}

TEST(Td3Test, ActionsAreInUnitCube) {
  common::Rng rng(2);
  Td3Agent agent(small_config(), rng);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> st{rng.uniform(), rng.uniform()};
    const auto a = agent.act(st);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_GE(a[0], 0.0);
    EXPECT_LE(a[0], 1.0);
  }
}

TEST(Td3Test, ActRejectsWrongStateDim) {
  common::Rng rng(3);
  Td3Agent agent(small_config(), rng);
  const std::vector<double> bad{0.1};
  EXPECT_THROW((void)agent.act(bad), std::invalid_argument);
}

TEST(Td3Test, NoisyActionsStayClampedAndDiffer) {
  common::Rng rng(4);
  Td3Agent agent(small_config(), rng);
  const std::vector<double> s{0.5, 0.5};
  const auto clean = agent.act(s);
  bool any_diff = false;
  for (int i = 0; i < 50; ++i) {
    const auto noisy = agent.act_noisy(s, 0.3, rng);
    EXPECT_GE(noisy[0], 0.0);
    EXPECT_LE(noisy[0], 1.0);
    any_diff |= (noisy[0] != clean[0]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Td3Test, MinQIsMinimumOfTwins) {
  common::Rng rng(5);
  Td3Agent agent(small_config(), rng);
  const std::vector<double> s{0.2, 0.8};
  const std::vector<double> a{0.5};
  const auto [q1, q2] = agent.twin_q(s, a);
  EXPECT_DOUBLE_EQ(agent.min_q(s, a), std::min(q1, q2));
}

TEST(Td3Test, LearnsBanditOptimum) {
  common::Rng rng(6);
  Td3Agent agent(small_config(), rng);
  UniformReplay buffer(4096);
  fill_bandit_buffer(buffer, rng, 0.8, 2000);
  for (int i = 0; i < 1500; ++i) (void)agent.train_step(buffer, rng);
  const std::vector<double> st{0.5, 0.5};
  const auto a = agent.act(st);
  EXPECT_NEAR(a[0], 0.8, 0.15);
}

TEST(Td3Test, CriticTracksBanditReward) {
  common::Rng rng(7);
  Td3Agent agent(small_config(), rng);
  UniformReplay buffer(4096);
  fill_bandit_buffer(buffer, rng, 0.5, 2000);
  for (int i = 0; i < 1500; ++i) (void)agent.train_step(buffer, rng);
  // Q(s, 0.5) should clearly beat Q(s, 0.05) — the reward gap is 0.9.
  const std::vector<double> s{0.5, 0.5};
  const std::vector<double> mid{0.5}, lo{0.05};
  EXPECT_GT(agent.min_q(s, mid), agent.min_q(s, lo) + 0.2);
}

TEST(Td3Test, ActorLossOnlyOnDelayedSteps) {
  common::Rng rng(8);
  Td3Config c = small_config();
  c.policy_delay = 2;
  Td3Agent agent(c, rng);
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.5, 64);
  const auto s1 = agent.train_step(buffer, rng);
  const auto s2 = agent.train_step(buffer, rng);
  EXPECT_FALSE(s1.actor_loss.has_value());
  EXPECT_TRUE(s2.actor_loss.has_value());
  EXPECT_EQ(agent.train_steps(), 2u);
}

TEST(Td3Test, CriticLossDecreasesOnStationaryData) {
  common::Rng rng(9);
  Td3Agent agent(small_config(), rng);
  UniformReplay buffer(2048);
  fill_bandit_buffer(buffer, rng, 0.6, 1024);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 100; ++i) early += agent.train_step(buffer, rng).critic1_loss;
  for (int i = 0; i < 900; ++i) (void)agent.train_step(buffer, rng);
  for (int i = 0; i < 100; ++i) late += agent.train_step(buffer, rng).critic1_loss;
  EXPECT_LT(late, early);
}

TEST(Td3Test, SaveLoadRoundTrip) {
  common::Rng rng(10);
  Td3Agent a(small_config(), rng);
  Td3Agent b(small_config(), rng);  // different random init
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.7, 128);
  for (int i = 0; i < 50; ++i) (void)a.train_step(buffer, rng);

  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<double> s{0.3, 0.9};
  EXPECT_EQ(a.act(s), b.act(s));
  const std::vector<double> act{0.4};
  EXPECT_EQ(a.twin_q(s, act), b.twin_q(s, act));
}

// Regression for the checkpoint-completeness bug: save used to drop the
// Adam optimizer state (moment vectors + step counts), so a saved-then-
// loaded agent fine-tuned differently from one that was never saved.
// Train, fork the RNG, then continue training the original and a
// save->load clone through identical streams: every result must match
// bit for bit.
TEST(Td3Test, SaveLoadThenTrainMatchesNeverSavedBitExact) {
  common::Rng rng(12);
  Td3Agent original(small_config(), rng);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, rng, 0.7, 256);
  for (int i = 0; i < 50; ++i) (void)original.train_step(buffer, rng);

  std::stringstream ss;
  original.save(ss);
  const common::RngState fork = rng.state();

  // Path A: the never-serialized agent keeps training.
  for (int i = 0; i < 25; ++i) (void)original.train_step(buffer, rng);

  // Path B: a fresh agent restored from the checkpoint trains through an
  // identical RNG stream. Without Adam moments + step counts in the
  // checkpoint the adaptive learning rates diverge immediately.
  common::Rng other_init(999);
  Td3Agent clone(small_config(), other_init);
  clone.load(ss);
  EXPECT_EQ(clone.train_steps(), original.train_steps() - 25);
  common::Rng replay_rng(1);
  replay_rng.restore(fork);
  for (int i = 0; i < 25; ++i) (void)clone.train_step(buffer, replay_rng);

  const std::vector<double> s{0.3, 0.9};
  EXPECT_EQ(original.act(s), clone.act(s));
  const std::vector<double> act{0.4};
  EXPECT_EQ(original.twin_q(s, act), clone.twin_q(s, act));
  EXPECT_EQ(original.train_steps(), clone.train_steps());
}

// A copied agent's optimizers would keep Param pointers into the source's
// networks: train_step on the copy would step the source's weights with the
// source's (zero) gradients, and neither agent would learn. Copying is
// therefore not offered at all; moving is.
TEST(Td3Test, AgentsAndOptimizersAreMoveOnly) {
  static_assert(!std::is_copy_constructible_v<nn::Adam>);
  static_assert(!std::is_copy_assignable_v<nn::Adam>);
  static_assert(!std::is_copy_constructible_v<Td3Agent>);
  static_assert(!std::is_copy_assignable_v<Td3Agent>);
  static_assert(!std::is_copy_constructible_v<DdpgAgent>);
  static_assert(!std::is_copy_assignable_v<DdpgAgent>);
  static_assert(std::is_nothrow_move_constructible_v<nn::Adam>);
  static_assert(std::is_move_constructible_v<Td3Agent>);
  static_assert(std::is_move_assignable_v<Td3Agent>);
  static_assert(std::is_move_constructible_v<DdpgAgent>);
  SUCCEED();
}

// The moved-to agent owns the networks its optimizers point into, so it
// trains exactly like an agent that never moved: same weights, same Q, bit
// for bit, and Q has actually moved.
TEST(Td3Test, MovedAgentLearnsLikeANeverMovedOne) {
  common::Rng init_a(21), init_b(21);
  Td3Agent stay(small_config(), init_a);
  Td3Agent source(small_config(), init_b);
  Td3Agent moved(std::move(source));
  Td3Agent assigned(small_config(), init_b);
  common::Rng init_c(21);
  assigned = Td3Agent(small_config(), init_c);

  common::Rng fill_rng(22);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, fill_rng, 0.7, 256);
  const std::vector<double> s{0.5, 0.5};
  const std::vector<double> a{0.7};
  const double q_before = stay.min_q(s, a);
  EXPECT_EQ(moved.min_q(s, a), q_before);
  EXPECT_EQ(assigned.min_q(s, a), q_before);

  common::Rng rng_a(23), rng_b(23), rng_c(23);
  for (int i = 0; i < 20; ++i) {
    (void)stay.train_step(buffer, rng_a);
    (void)moved.train_step(buffer, rng_b);
    (void)assigned.train_step(buffer, rng_c);
  }
  EXPECT_NE(stay.min_q(s, a), q_before);
  EXPECT_EQ(moved.min_q(s, a), stay.min_q(s, a));
  EXPECT_EQ(assigned.min_q(s, a), stay.min_q(s, a));
  EXPECT_EQ(moved.act(s), stay.act(s));
  EXPECT_EQ(assigned.act(s), stay.act(s));
}

void expect_same_tensors(const std::vector<nn::Matrix>& got,
                         const std::vector<nn::Matrix>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rows(), want[i].rows()) << "tensor " << i;
    EXPECT_EQ(got[i].cols(), want[i].cols()) << "tensor " << i;
    EXPECT_TRUE(std::equal(got[i].flat().begin(), got[i].flat().end(),
                           want[i].flat().begin(), want[i].flat().end()))
        << "tensor " << i;
  }
}

// An agent built from a snapshot holds that snapshot's state exactly (every
// tensor, moment and counter), and then trains like the agent it was taken
// from, bit for bit: the targets, moments and policy-delay phase all came
// along.
TEST(Td3Test, SnapshotConstructorHoldsTheSnapshotAndTrainsLikeItsSource) {
  common::Rng rng(31);
  Td3Agent source(small_config(), rng);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, rng, 0.6, 256);
  for (int i = 0; i < 31; ++i) (void)source.train_step(buffer, rng);

  const AgentSnapshot snapshot = source.snapshot();
  Td3Agent built(small_config(), snapshot);
  const AgentSnapshot copy = built.snapshot();
  EXPECT_EQ(copy.state_dim, snapshot.state_dim);
  EXPECT_EQ(copy.action_dim, snapshot.action_dim);
  EXPECT_EQ(copy.train_steps, snapshot.train_steps);
  ASSERT_EQ(copy.networks.size(), snapshot.networks.size());
  for (std::size_t i = 0; i < copy.networks.size(); ++i) {
    SCOPED_TRACE("network " + std::to_string(i));
    expect_same_tensors(copy.networks[i], snapshot.networks[i]);
  }
  ASSERT_EQ(copy.optimizers.size(), snapshot.optimizers.size());
  for (std::size_t i = 0; i < copy.optimizers.size(); ++i) {
    SCOPED_TRACE("optimizer " + std::to_string(i));
    EXPECT_EQ(copy.optimizers[i].step_count, snapshot.optimizers[i].step_count);
    expect_same_tensors(copy.optimizers[i].first_moments,
                        snapshot.optimizers[i].first_moments);
    expect_same_tensors(copy.optimizers[i].second_moments,
                        snapshot.optimizers[i].second_moments);
  }

  common::Rng rng_a(32), rng_b(32);
  for (int i = 0; i < 9; ++i) {
    (void)source.train_step(buffer, rng_a);
    (void)built.train_step(buffer, rng_b);
  }
  const std::vector<double> s{0.3, 0.9};
  const std::vector<double> a{0.4};
  EXPECT_EQ(built.act(s), source.act(s));
  EXPECT_EQ(built.twin_q(s, a), source.twin_q(s, a));
  EXPECT_EQ(built.train_steps(), source.train_steps());
}

TEST(Td3Test, LoadRejectsTruncatedStream) {
  common::Rng rng(13);
  Td3Agent a(small_config(), rng);
  std::stringstream ss;
  a.save(ss);
  const std::string full = ss.str();
  std::istringstream cut(full.substr(0, full.size() / 3));
  Td3Agent b(small_config(), rng);
  EXPECT_THROW(b.load(cut), std::runtime_error);
}

TEST(Td3Test, TrainStepFeedsPriorityUpdates) {
  // A PER buffer must receive update_priorities from the TD3 training
  // loop — verified through a spy buffer.
  class SpyBuffer : public ReplayBuffer {
   public:
    explicit SpyBuffer(std::size_t capacity) : inner_(capacity) {}
    void add(Transition t) override { inner_.add(std::move(t)); }
    SampledBatch sample(std::size_t m, common::Rng& rng) override {
      return inner_.sample(m, rng);
    }
    void update_priorities(std::span<const std::uint64_t> ids,
                           std::span<const double> tds) override {
      updates += ids.size();
      EXPECT_EQ(ids.size(), tds.size());
    }
    std::size_t size() const noexcept override { return inner_.size(); }
    std::size_t capacity() const noexcept override {
      return inner_.capacity();
    }
    std::size_t updates = 0;

   private:
    UniformReplay inner_;
  };
  common::Rng rng(11);
  Td3Agent agent(small_config(), rng);
  SpyBuffer buffer(256);
  fill_bandit_buffer(buffer, rng, 0.5, 64);
  (void)agent.train_step(buffer, rng);
  EXPECT_EQ(buffer.updates, agent.config().batch_size);
}

}  // namespace
}  // namespace deepcat::rl
