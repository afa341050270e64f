#include "rl/td3.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "rl/ddpg.hpp"
#include "rl/replay.hpp"
#include "rl/replay_per.hpp"
#include "rl/replay_rdper.hpp"

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

void expect_same_tensors(const std::vector<nn::Tensor>& got,
                         const std::vector<nn::Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rows(), want[i].rows()) << "tensor " << i;
    EXPECT_EQ(got[i].cols(), want[i].cols()) << "tensor " << i;
    EXPECT_TRUE(std::equal(got[i].flat().begin(), got[i].flat().end(),
                           want[i].flat().begin(), want[i].flat().end()))
        << "tensor " << i;
  }
}

void expect_same_snapshot(const AgentSnapshot& got, const AgentSnapshot& want) {
  EXPECT_EQ(got.state_dim, want.state_dim);
  EXPECT_EQ(got.action_dim, want.action_dim);
  EXPECT_EQ(got.train_steps, want.train_steps);
  ASSERT_EQ(got.networks.size(), want.networks.size());
  for (std::size_t i = 0; i < got.networks.size(); ++i) {
    SCOPED_TRACE("network " + std::to_string(i));
    expect_same_tensors(got.networks[i], want.networks[i]);
  }
  ASSERT_EQ(got.optimizers.size(), want.optimizers.size());
  for (std::size_t i = 0; i < got.optimizers.size(); ++i) {
    SCOPED_TRACE("optimizer " + std::to_string(i));
    EXPECT_EQ(got.optimizers[i].step_count, want.optimizers[i].step_count);
    expect_same_tensors(got.optimizers[i].first_moments,
                        want.optimizers[i].first_moments);
    expect_same_tensors(got.optimizers[i].second_moments,
                        want.optimizers[i].second_moments);
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

// The state is saved with snapshot() and loaded with restore(): the
// restored agent holds every tensor, moment and counter of the snapshot.
TEST(Td3Test, SaveLoadRoundTrip) {
  common::Rng rng(10);
  Td3Agent a(small_config(), rng);
  Td3Agent b(small_config(), rng);  // different random init
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.7, 128);
  for (int i = 0; i < 50; ++i) (void)a.train_step(buffer, rng);

  b.restore(a.snapshot());
  expect_same_snapshot(b.snapshot(), a.snapshot());
  const std::vector<double> s{0.3, 0.9};
  EXPECT_EQ(a.act(s), b.act(s));
  const std::vector<double> act{0.4};
  EXPECT_EQ(a.twin_q(s, act), b.twin_q(s, act));
}

// Regression lock for the state-completeness bug: saving used to drop the
// Adam optimizer state (moment vectors + step counts), so a saved-then-
// loaded agent fine-tuned differently from one that was never saved.
// Train, fork the RNG, then continue training the original and an agent
// restored from its snapshot through identical streams: every result must
// match bit for bit.
TEST(Td3Test, SaveLoadThenTrainMatchesNeverSavedBitExact) {
  common::Rng rng(12);
  Td3Agent original(small_config(), rng);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, rng, 0.7, 256);
  for (int i = 0; i < 50; ++i) (void)original.train_step(buffer, rng);

  const AgentSnapshot saved = original.snapshot();
  const common::RngState fork = rng.state();

  // Path A: the never-copied agent keeps training.
  for (int i = 0; i < 25; ++i) (void)original.train_step(buffer, rng);

  // Path B: a fresh agent restored from the snapshot trains through an
  // identical RNG stream. Without Adam moments + step counts in the
  // snapshot the adaptive learning rates diverge immediately.
  common::Rng other_init(999);
  Td3Agent clone(small_config(), other_init);
  clone.restore(saved);
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

// A clone of a frozen agent holds the agent's state exactly (every tensor,
// moment and counter), whether it is read before the clone's first train
// step (snapshot() from the source, act and twin_q from the copied nets,
// networks() and optimizers() after completing the copy) or after it. It
// then trains like an agent restored from the source's snapshot, and like
// the source itself, bit for bit, with and without a partner: the targets,
// moments and policy-delay phase all came along late.
TEST(Td3Test, FrozenCloneHoldsItsSourceAndTrainsLikeIt) {
  common::Rng rng(31);
  Td3Agent source(small_config(), rng);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, rng, 0.6, 256);
  for (int i = 0; i < 31; ++i) (void)source.train_step(buffer, rng);
  const AgentSnapshot want = source.snapshot();

  Td3Agent clone(small_config(), source);
  expect_same_snapshot(clone.snapshot(), want);
  const std::vector<double> s{0.3, 0.9};
  const std::vector<double> a{0.4};
  EXPECT_EQ(clone.act(s), source.act(s));
  EXPECT_EQ(clone.twin_q(s, a), source.twin_q(s, a));
  EXPECT_EQ(clone.train_steps(), source.train_steps());

  Td3Agent exposed(small_config(), source);
  const auto nets = exposed.networks();
  const auto source_nets = source.networks();
  ASSERT_EQ(nets.size(), source_nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    SCOPED_TRACE(nets[i].first);
    EXPECT_STREQ(nets[i].first, source_nets[i].first);
    expect_same_tensors(nets[i].second->param_values(),
                        source_nets[i].second->param_values());
  }
  const auto opts = exposed.optimizers();
  const auto source_opts = source.optimizers();
  ASSERT_EQ(opts.size(), source_opts.size());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    SCOPED_TRACE(opts[i].first);
    EXPECT_EQ(opts[i].second->step_count(), source_opts[i].second->step_count());
    expect_same_tensors(opts[i].second->first_moments(),
                        source_opts[i].second->first_moments());
    expect_same_tensors(opts[i].second->second_moments(),
                        source_opts[i].second->second_moments());
  }

  // Agents that train from here: the source, an agent restored from its
  // snapshot, the clone serially, and a clone of a still-untrained clone
  // beside a borrowed worker. A clone reads its source only until its first
  // train step, so training the source after that step changes nothing.
  common::Rng other_init(999);
  Td3Agent reloaded(small_config(), other_init);
  reloaded.restore(want);
  Td3Agent untrained(small_config(), source);
  Td3Agent chained(small_config(), untrained);
  common::ThreadPool pool(2);
  common::Partner partner(&pool);
  common::Rng rng_s(32), rng_r(32), rng_c(32), rng_p(32);
  for (int i = 0; i < 9; ++i) {
    const Td3TrainStats got = clone.train_step(buffer, rng_c);
    const Td3TrainStats helped = chained.train_step(buffer, rng_p, &partner);
    const Td3TrainStats restored = reloaded.train_step(buffer, rng_r);
    const Td3TrainStats from_source = source.train_step(buffer, rng_s);
    SCOPED_TRACE("step " + std::to_string(i));
    for (const Td3TrainStats* other : {&helped, &restored, &from_source}) {
      EXPECT_EQ(got.critic1_loss, other->critic1_loss);
      EXPECT_EQ(got.critic2_loss, other->critic2_loss);
      EXPECT_EQ(got.actor_loss, other->actor_loss);
    }
  }
  const AgentSnapshot trained = source.snapshot();
  expect_same_snapshot(clone.snapshot(), trained);
  expect_same_snapshot(chained.snapshot(), trained);
  expect_same_snapshot(reloaded.snapshot(), trained);
  EXPECT_EQ(clone.act(s), source.act(s));
  EXPECT_EQ(chained.twin_q(s, a), source.twin_q(s, a));
}

// A snapshot of another layout (other dims, a wider hidden layer, a missing
// tensor, a moment of another shape, a missing optimizer) is refused with an
// AgentLayoutError naming the first difference, and the agent, a trained
// one or a clone that still reads its source, keeps its state.
TEST(Td3Test, RestoreRejectsAMismatchedSnapshotUnchanged) {
  common::Rng rng(13);
  Td3Agent agent(small_config(), rng);
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.7, 128);
  for (int i = 0; i < 5; ++i) (void)agent.train_step(buffer, rng);
  const AgentSnapshot before = agent.snapshot();
  Td3Agent clone(small_config(), agent);

  Td3Config wide = small_config();
  wide.hidden = {24, 25};
  struct Case {
    AgentSnapshot snapshot;
    const char* names;
  };
  std::vector<Case> cases;
  cases.push_back({before, "dims"});
  cases.back().snapshot.state_dim = 3;
  cases.push_back({Td3Agent(wide, rng).snapshot(), "'actor' tensor 2"});
  cases.push_back({before, "network 'critic2' holds 5 tensors"});
  cases.back().snapshot.networks[3].pop_back();
  cases.push_back({before, "'critic1_opt' second moments tensor 1"});
  cases.back().snapshot.optimizers[1].second_moments[1] = nn::Tensor(1, 23);
  cases.push_back({before, "2 optimizers"});
  cases.back().snapshot.optimizers.pop_back();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.names);
    for (Td3Agent* target : {&agent, &clone}) {
      try {
        target->restore(c.snapshot);
        ADD_FAILURE() << "a mismatched snapshot was restored";
      } catch (const AgentLayoutError& e) {
        EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
            << e.what();
      }
      expect_same_snapshot(target->snapshot(), before);
    }
  }
  // The refused restores left the clone acting as its source does.
  const std::vector<double> s{0.3, 0.9};
  EXPECT_EQ(clone.act(s), agent.act(s));
}

// `s` holding only its first `keep` tensors, in the order a stream of it
// carries them: each network's parameters, then each optimizer's first and
// second moments.
AgentSnapshot cut_after(const AgentSnapshot& s, std::size_t keep) {
  AgentSnapshot cut;
  cut.state_dim = s.state_dim;
  cut.action_dim = s.action_dim;
  cut.train_steps = s.train_steps;
  const auto take = [&keep](const std::vector<nn::Tensor>& from,
                            std::vector<nn::Tensor>& to) {
    for (std::size_t i = 0; i < from.size() && keep > 0; ++i, --keep) {
      to.push_back(from[i]);
    }
  };
  for (const auto& net : s.networks) {
    if (keep == 0) return cut;
    take(net, cut.networks.emplace_back());
  }
  for (const auto& opt : s.optimizers) {
    if (keep == 0) return cut;
    auto& o = cut.optimizers.emplace_back();
    o.step_count = opt.step_count;
    take(opt.first_moments, o.first_moments);
    take(opt.second_moments, o.second_moments);
  }
  return cut;
}

// The state is loaded with restore() (SaveLoadRoundTrip): a snapshot cut
// short after any of its tensors is refused with an AgentLayoutError and
// leaves the agent as it was, which still takes the whole snapshot.
TEST(Td3Test, LoadRejectsTruncatedStream) {
  common::Rng rng(13);
  Td3Agent agent(small_config(), rng);
  UniformReplay buffer(256);
  fill_bandit_buffer(buffer, rng, 0.7, 128);
  for (int i = 0; i < 5; ++i) (void)agent.train_step(buffer, rng);
  const AgentSnapshot before = agent.snapshot();

  std::size_t tensors = 0;
  for (const auto& net : before.networks) tensors += net.size();
  for (const auto& opt : before.optimizers) {
    tensors += opt.first_moments.size() + opt.second_moments.size();
  }
  ASSERT_EQ(tensors, 6u * 6 + 3u * 2 * 6);
  for (std::size_t keep = 0; keep < tensors; ++keep) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " tensors");
    EXPECT_THROW(agent.restore(cut_after(before, keep)), AgentLayoutError);
    expect_same_snapshot(agent.snapshot(), before);
  }
  Td3Agent other(small_config(), rng);
  other.restore(cut_after(before, tensors));
  expect_same_snapshot(other.snapshot(), before);
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

// ---- The train step's side-by-side passes are exact ----------------------

/// FNV-1a over the bit patterns of every tensor, moment and counter of a
/// snapshot.
std::uint64_t snapshot_digest(const AgentSnapshot& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto add = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto add_all = [&add](const std::vector<nn::Tensor>& tensors) {
    for (const nn::Tensor& t : tensors) {
      for (const float x : t.flat()) add(std::bit_cast<std::uint32_t>(x));
    }
  };
  for (const auto& net : s.networks) add_all(net);
  for (const auto& opt : s.optimizers) {
    add_all(opt.first_moments);
    add_all(opt.second_moments);
    add(opt.step_count);
  }
  add(s.train_steps);
  return h;
}

/// Six train steps at the serving shape (state 9, action 32, hidden
/// 128x128, batch 64) from a fixed seed; policy_delay 2 makes three of them
/// policy steps.
struct SixSteps {
  std::uint64_t digest = 0;
  std::vector<Td3TrainStats> stats;
  common::RngState rng;
};

SixSteps six_steps(ReplayBuffer& replay, common::ThreadPool* helpers) {
  Td3Config c;
  c.state_dim = 9;
  c.action_dim = 32;
  c.batch_size = 64;
  common::Rng rng(2024);
  Td3Agent agent(c, rng);
  for (int i = 0; i < 256; ++i) {
    Transition t;
    for (std::size_t k = 0; k < c.state_dim; ++k) {
      t.state.push_back(rng.uniform());
    }
    for (std::size_t k = 0; k < c.action_dim; ++k) {
      t.action.push_back(rng.uniform());
    }
    t.reward = 2.0 * rng.uniform() - 1.0;
    for (std::size_t k = 0; k < c.state_dim; ++k) {
      t.next_state.push_back(rng.uniform());
    }
    t.done = i % 16 == 15;
    replay.add(std::move(t));
  }
  SixSteps out;
  common::Partner partner(helpers);
  for (int i = 0; i < 6; ++i) {
    out.stats.push_back(helpers == nullptr
                            ? agent.train_step(replay, rng)
                            : agent.train_step(replay, rng, &partner));
  }
  out.digest = snapshot_digest(agent.snapshot());
  out.rng = rng.state();
  return out;
}

void expect_same_run(const SixSteps& got, const SixSteps& want) {
  EXPECT_EQ(got.digest, want.digest);
  ASSERT_EQ(got.stats.size(), want.stats.size());
  for (std::size_t i = 0; i < got.stats.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(got.stats[i].critic1_loss, want.stats[i].critic1_loss);
    EXPECT_EQ(got.stats[i].critic2_loss, want.stats[i].critic2_loss);
    EXPECT_EQ(got.stats[i].actor_loss, want.stats[i].actor_loss);
  }
  EXPECT_EQ(got.rng.s, want.rng.s);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rng.spare),
            std::bit_cast<std::uint64_t>(want.rng.spare));
  EXPECT_EQ(got.rng.has_spare, want.rng.has_spare);
}

// The digests of six_steps, recorded (GCC 12, x86-64) with the float32
// networks and the fully serial train step that ran critic 1, critic 2,
// the priority update, then the actor and the three soft updates. Forking
// the passes, and the serial order it brings (critic 1, actor, soft
// updates, critic 2), must reproduce
// them bit for bit on every tier at every pool size: over RDPER, and over
// PER, whose update_priorities now runs after the join. The vector tiers'
// bits depend on the optimizer, which contracts the kernels' scalar
// a * b + c tails into FMAs, so unoptimized builds (the sanitizer jobs)
// carry their own column.
TEST(Td3Test, TrainStepMatchesThePinnedDigestAtEveryPoolSize) {
  using common::simd::Backend;
  struct Pinned {
    Backend tier;
    std::uint64_t rdper;
    std::uint64_t per;
  };
#if defined(__OPTIMIZE__)
  constexpr Pinned kPinned[] = {
      {Backend::kScalar, 0xb1153303c84ab9f3ull, 0x7d996d5d6618c39bull},
      {Backend::kAvx2, 0xfcb9104c3a599123ull, 0xf4cdbfe0225b6fdaull},
      {Backend::kAvx512, 0xf67d8c281a183bf4ull, 0x354daad192e4ccacull},
  };
#else
  constexpr Pinned kPinned[] = {
      {Backend::kScalar, 0xb1153303c84ab9f3ull, 0x7d996d5d6618c39bull},
      {Backend::kAvx2, 0x41fb77d4a0623f16ull, 0x84daa3b1342a42d1ull},
      {Backend::kAvx512, 0x538f2d4bef2c84c2ull, 0xc35938c693c7131bull},
  };
#endif
  struct Restore {
    ~Restore() { common::simd::force_backend(Backend::kAvx512); }
  } restore;
  for (const Pinned& pinned : kPinned) {
    if (!common::simd::backend_selectable(pinned.tier)) continue;
    common::simd::force_backend(pinned.tier);
    SCOPED_TRACE(common::simd::backend_label(pinned.tier));
    RdperReplay rdper(512);
    PrioritizedReplay per(1024);
    const SixSteps serial_rdper = six_steps(rdper, nullptr);
    const SixSteps serial_per = six_steps(per, nullptr);
    EXPECT_EQ(serial_rdper.digest, pinned.rdper);
    EXPECT_EQ(serial_per.digest, pinned.per);
    ASSERT_EQ(serial_rdper.stats.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(serial_rdper.stats[i].actor_loss.has_value(), i % 2 == 1);
    }
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("pool of " + std::to_string(workers));
      common::ThreadPool pool(workers);
      RdperReplay forked_rdper(512);
      PrioritizedReplay forked_per(1024);
      expect_same_run(six_steps(forked_rdper, &pool), serial_rdper);
      expect_same_run(six_steps(forked_per, &pool), serial_per);
    }
  }
}

TEST(Td3Test, FineTuneWithHelpersMatchesSerial) {
  // fine_tune holds one partner across its steps; a cold buffer takes none.
  common::ThreadPool pool(2);
  common::Rng fill_rng(40);
  UniformReplay buffer(512);
  fill_bandit_buffer(buffer, fill_rng, 0.4, 256);
  common::Rng init_a(41), init_b(41);
  Td3Agent serial(small_config(), init_a);
  Td3Agent helped(small_config(), init_b);
  common::Rng rng_a(42), rng_b(42);
  EXPECT_EQ(serial.fine_tune(buffer, rng_a, 5), 5u);
  EXPECT_EQ(helped.fine_tune(buffer, rng_b, 5, &pool), 5u);
  EXPECT_EQ(snapshot_digest(helped.snapshot()),
            snapshot_digest(serial.snapshot()));
  EXPECT_EQ(rng_b.state().s, rng_a.state().s);
  UniformReplay cold(512);
  fill_bandit_buffer(cold, fill_rng, 0.4, 8);
  EXPECT_EQ(helped.fine_tune(cold, rng_b, 5, &pool), 0u);
}

// Untrained clones read their frozen source in place: eight clones of one
// serving-shape agent (state 9, action 32, hidden 128x128), driven from four
// threads at once, each return the source's act, twin_q and min_q bit for
// bit, round after round. They write only their own rows, so ThreadSanitizer
// sees no race on the shared networks.
TEST(Td3Test, UntrainedClonesReadTheirSourceInPlaceFromFourThreads) {
  Td3Config c;
  c.state_dim = 9;
  c.action_dim = 32;
  c.batch_size = 64;
  common::Rng rng(77);
  Td3Agent source(c, rng);
  UniformReplay buffer(512);
  const auto draw = [&rng](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform();
    return v;
  };
  for (int i = 0; i < 128; ++i) {
    buffer.add({draw(c.state_dim), draw(c.action_dim),
                2.0 * rng.uniform() - 1.0, draw(c.state_dim), false});
  }
  for (int i = 0; i < 4; ++i) (void)source.train_step(buffer, rng);

  struct Probe {
    std::vector<double> state, action;
  };
  struct Reads {
    std::vector<std::vector<double>> acts;
    std::vector<std::pair<double, double>> twins;
    std::vector<double> mins;
  };
  std::vector<Probe> probes;
  for (int i = 0; i < 6; ++i) {
    probes.push_back({draw(c.state_dim), draw(c.action_dim)});
  }
  const auto read_all = [&probes](Td3Agent& agent, Reads& out) {
    for (const Probe& p : probes) {
      out.acts.push_back(agent.act(p.state));
      out.twins.push_back(agent.twin_q(p.state, p.action));
      out.mins.push_back(agent.min_q(p.state, p.action));
    }
  };
  Reads want;
  read_all(source, want);

  constexpr std::size_t kClones = 8;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<Td3Agent>> clones;
  for (std::size_t i = 0; i < kClones; ++i) {
    clones.push_back(std::make_unique<Td3Agent>(c, source));
  }
  std::vector<std::vector<Reads>> got(kClones, std::vector<Reads>(kRounds));
  {
    common::ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < kClones; ++i) {
      done.push_back(pool.submit([&, i] {
        for (Reads& round : got[i]) read_all(*clones[i], round);
      }));
    }
    for (auto& f : done) f.get();
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t i = 0; i < kClones; ++i) {
    for (int r = 0; r < kRounds; ++r) {
      SCOPED_TRACE("clone " + std::to_string(i) + " round " +
                   std::to_string(r));
      const Reads& g = got[i][static_cast<std::size_t>(r)];
      ASSERT_EQ(g.acts.size(), want.acts.size());
      for (std::size_t p = 0; p < want.acts.size(); ++p) {
        ASSERT_EQ(g.acts[p].size(), c.action_dim);
        for (std::size_t j = 0; j < c.action_dim; ++j) {
          EXPECT_EQ(bits(g.acts[p][j]), bits(want.acts[p][j]));
        }
        EXPECT_EQ(bits(g.twins[p].first), bits(want.twins[p].first));
        EXPECT_EQ(bits(g.twins[p].second), bits(want.twins[p].second));
        EXPECT_EQ(bits(g.mins[p]), bits(want.mins[p]));
      }
    }
  }
}

// min_q_rows probes several candidates in one pass per critic; each of its
// outputs must be min_q's for that candidate bit for bit, on every tier,
// at 1 to 9 candidates (whole 4-row blocks and one-row remainders), from a
// trained agent and from an untrained clone reading it in place.
TEST(Td3Test, MinQRowsEqualsMinQPerCandidateOnEveryTier) {
  Td3Config c;
  c.state_dim = 9;
  c.action_dim = 32;
  c.batch_size = 64;
  common::Rng rng(78);
  Td3Agent source(c, rng);
  UniformReplay buffer(512);
  const auto draw = [&rng](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform();
    return v;
  };
  for (int i = 0; i < 128; ++i) {
    buffer.add({draw(c.state_dim), draw(c.action_dim),
                2.0 * rng.uniform() - 1.0, draw(c.state_dim), false});
  }
  for (int i = 0; i < 4; ++i) (void)source.train_step(buffer, rng);
  Td3Agent clone(c, source);

  struct Restore {
    ~Restore() { common::simd::force_backend(common::simd::Backend::kAvx512); }
  } restore;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto be : {common::simd::Backend::kScalar,
                        common::simd::Backend::kAvx2,
                        common::simd::Backend::kAvx512}) {
    if (!common::simd::backend_selectable(be)) continue;
    common::simd::force_backend(be);
    for (Td3Agent* agent : {&source, &clone}) {
      for (std::size_t count = 1; count <= 9; ++count) {
        SCOPED_TRACE(std::string(common::simd::backend_label(be)) + ", " +
                     (agent == &clone ? "clone" : "source") + ", " +
                     std::to_string(count) + " candidates");
        const std::vector<double> state = draw(c.state_dim);
        const std::vector<double> actions = draw(count * c.action_dim);
        std::vector<double> got(count);
        agent->min_q_rows(state, actions, got);
        for (std::size_t r = 0; r < count; ++r) {
          const double want = agent->min_q(
              state, std::span(actions).subspan(r * c.action_dim,
                                                c.action_dim));
          EXPECT_EQ(bits(got[r]), bits(want)) << "candidate " << r;
        }
      }
    }
  }
  std::vector<double> out(2);
  EXPECT_THROW(source.min_q_rows(draw(c.state_dim), draw(c.action_dim), out),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepcat::rl
