#include "rl/ddpg.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rl/replay.hpp"
#include "rl/replay_per.hpp"

namespace deepcat::rl {
namespace {

DdpgConfig small_config() {
  DdpgConfig c;
  c.state_dim = 2;
  c.action_dim = 1;
  c.hidden = {24, 24};
  c.gamma = 0.3;
  c.actor_lr = 1e-3;
  c.critic_lr = 2e-3;
  c.batch_size = 32;
  return c;
}

void fill_bandit_buffer(ReplayBuffer& buffer, common::Rng& rng,
                        double optimum, int n) {
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform();
    const double r = 1.0 - 2.0 * std::abs(a - optimum);
    buffer.add({{0.5, 0.5}, {a}, r, {0.5, 0.5}, true});
  }
}

TEST(DdpgTest, ConfigValidation) {
  common::Rng rng(1);
  DdpgConfig c = small_config();
  c.action_dim = 0;
  EXPECT_THROW(DdpgAgent(c, rng), std::invalid_argument);
  c = small_config();
  c.batch_size = 0;
  EXPECT_THROW(DdpgAgent(c, rng), std::invalid_argument);
}

TEST(DdpgTest, ActionsInUnitCube) {
  common::Rng rng(2);
  DdpgAgent agent(small_config(), rng);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> st{rng.uniform(), rng.uniform()};
    const auto a = agent.act(st);
    EXPECT_GE(a[0], 0.0);
    EXPECT_LE(a[0], 1.0);
  }
}

TEST(DdpgTest, ActRejectsWrongStateDim) {
  common::Rng rng(3);
  DdpgAgent agent(small_config(), rng);
  const std::vector<double> bad{0.1, 0.2, 0.3};
  EXPECT_THROW((void)agent.act(bad), std::invalid_argument);
}

TEST(DdpgTest, LearnsBanditOptimum) {
  common::Rng rng(4);
  DdpgAgent agent(small_config(), rng);
  UniformReplay buffer(4096);
  fill_bandit_buffer(buffer, rng, 0.2, 2000);
  for (int i = 0; i < 1500; ++i) (void)agent.train_step(buffer, rng);
  const std::vector<double> st{0.5, 0.5};
  EXPECT_NEAR(agent.act(st)[0], 0.2, 0.15);
}

TEST(DdpgTest, QValueTracksReward) {
  common::Rng rng(5);
  DdpgAgent agent(small_config(), rng);
  UniformReplay buffer(4096);
  fill_bandit_buffer(buffer, rng, 0.5, 2000);
  for (int i = 0; i < 1500; ++i) (void)agent.train_step(buffer, rng);
  const std::vector<double> s{0.5, 0.5};
  const std::vector<double> mid{0.5}, hi{0.95};
  EXPECT_GT(agent.q_value(s, mid), agent.q_value(s, hi) + 0.2);
}

TEST(DdpgTest, TrainStepCountsAndReportsLosses) {
  common::Rng rng(6);
  DdpgAgent agent(small_config(), rng);
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.5, 64);
  const auto stats = agent.train_step(buffer, rng);
  EXPECT_EQ(agent.train_steps(), 1u);
  EXPECT_GE(stats.critic_loss, 0.0);
  EXPECT_TRUE(std::isfinite(stats.actor_loss));
}

// The state is saved with snapshot() and loaded with restore().
TEST(DdpgTest, SaveLoadRoundTrip) {
  common::Rng rng(7);
  DdpgAgent a(small_config(), rng);
  DdpgAgent b(small_config(), rng);
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.5, 64);
  for (int i = 0; i < 30; ++i) (void)a.train_step(buffer, rng);
  b.restore(a.snapshot());
  const std::vector<double> s{0.1, 0.7};
  EXPECT_EQ(a.act(s), b.act(s));
  const std::vector<double> probe{0.3};
  EXPECT_EQ(a.q_value(s, probe), b.q_value(s, probe));
  EXPECT_EQ(b.train_steps(), a.train_steps());
}

// CDBTune restores its offline agent between online cases. The restore must
// bring the Adam moments and step counts with the networks: an agent
// restored from a snapshot, then trained, matches the agent the snapshot
// was taken from, trained through the same RNG stream, bit for bit.
TEST(DdpgTest, RestoreThenTrainMatchesNeverRestoredBitExact) {
  common::Rng rng(9);
  DdpgAgent original(small_config(), rng);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, rng, 0.5, 256);
  for (int i = 0; i < 40; ++i) (void)original.train_step(buffer, rng);
  const AgentSnapshot saved = original.snapshot();
  const common::RngState fork = rng.state();

  // The agent to restore into trains first, so that its own moments and
  // step counts differ from the snapshot's.
  common::Rng other_init(999);
  DdpgAgent restored(small_config(), other_init);
  for (int i = 0; i < 7; ++i) (void)restored.train_step(buffer, other_init);
  restored.restore(saved);
  EXPECT_EQ(restored.train_steps(), original.train_steps());

  common::Rng replay_rng(1);
  replay_rng.restore(fork);
  for (int i = 0; i < 20; ++i) {
    const DdpgTrainStats want = original.train_step(buffer, rng);
    const DdpgTrainStats got = restored.train_step(buffer, replay_rng);
    EXPECT_EQ(got.critic_loss, want.critic_loss) << "step " << i;
    EXPECT_EQ(got.actor_loss, want.actor_loss) << "step " << i;
  }
  const AgentSnapshot want = original.snapshot();
  const AgentSnapshot got = restored.snapshot();
  EXPECT_EQ(got.train_steps, want.train_steps);
  ASSERT_EQ(got.optimizers.size(), 2u);
  for (std::size_t o = 0; o < 2; ++o) {
    EXPECT_EQ(got.optimizers[o].step_count, want.optimizers[o].step_count);
    EXPECT_EQ(got.optimizers[o].first_moments,
              want.optimizers[o].first_moments);
    EXPECT_EQ(got.optimizers[o].second_moments,
              want.optimizers[o].second_moments);
  }
  EXPECT_EQ(got.networks, want.networks);
}

TEST(DdpgTest, RestoreRejectsAnotherLayout) {
  common::Rng rng(10);
  DdpgAgent agent(small_config(), rng);
  DdpgConfig wide = small_config();
  wide.hidden = {24, 32};
  DdpgAgent other(wide, rng);
  const AgentSnapshot before = agent.snapshot();
  EXPECT_THROW(agent.restore(other.snapshot()), AgentLayoutError);
  EXPECT_EQ(agent.snapshot().networks, before.networks);
}

TEST(DdpgTest, WorksWithPrioritizedReplay) {
  // CDBTune's actual pairing: DDPG + PER. A few steps must run cleanly
  // and feed priorities back.
  common::Rng rng(8);
  DdpgAgent agent(small_config(), rng);
  PrioritizedReplay buffer(512);
  fill_bandit_buffer(buffer, rng, 0.5, 128);
  for (int i = 0; i < 20; ++i) {
    const auto stats = agent.train_step(buffer, rng);
    EXPECT_TRUE(std::isfinite(stats.critic_loss));
  }
}

}  // namespace
}  // namespace deepcat::rl
