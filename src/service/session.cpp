#include "service/session.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"
#include "streamsim/workloads.hpp"

namespace deepcat::service {

namespace {

// Domain-separation constants for the per-session streams: the tuner's
// exploration noise and the environment seed must come from unrelated
// streams even though both derive from the one request seed.
constexpr std::uint64_t kTunerStream = 0x7D3EC47ULL;
constexpr std::uint64_t kEnvStream = 0x0E4B51ULL;

}  // namespace

void SessionAggregate::record(const SessionReport& report) {
  if (!report.ok) {
    ++totals_.sessions_failed;
    return;
  }
  ++totals_.sessions_served;
  totals_.evaluations_paid += report.report.steps.size();
  totals_.evaluation_seconds += report.report.total_evaluation_seconds();
  const double rec = report.report.total_recommendation_seconds();
  totals_.recommendation_seconds += rec;
  rec_costs_.add(rec);
  reward_sum_ += report.mean_reward();
  speedup_sum_ += report.report.speedup_over_default();
}

ServiceMetrics SessionAggregate::snapshot() const {
  ServiceMetrics m = totals_;
  if (m.sessions_served > 0) {
    m.p50_recommendation_seconds = rec_costs_.quantile(0.50);
    m.p95_recommendation_seconds = rec_costs_.quantile(0.95);
    const auto n = static_cast<double>(m.sessions_served);
    m.mean_session_reward = reward_sum_ / n;
    m.mean_speedup = speedup_sum_ / n;
  }
  return m;
}

double SessionReport::mean_reward() const noexcept {
  if (report.steps.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : report.steps) sum += s.reward;
  return sum / static_cast<double>(report.steps.size());
}

SharedRdperReplay::SharedRdperReplay(const rl::RdperReplay& master,
                                     std::shared_mutex& mutex)
    : master_(master),
      mutex_(mutex),
      config_(master.config()),
      master_high_(master.high_pool_size()),
      master_low_(master.low_pool_size()) {}

void SharedRdperReplay::add(rl::Transition t) {
  session_log_.push_back(t);
  if (t.reward >= config_.reward_threshold) {
    local_high_.push_back(std::move(t));
  } else {
    local_low_.push_back(std::move(t));
  }
}

std::size_t SharedRdperReplay::size() const noexcept {
  return master_high_ + master_low_ + local_high_.size() + local_low_.size();
}

std::size_t SharedRdperReplay::capacity() const noexcept {
  return master_.capacity();
}

rl::SampledBatch SharedRdperReplay::sample(std::size_t m, common::Rng& rng) {
  if (size() == 0) throw std::logic_error("SharedRdperReplay: empty sample");
  const std::size_t high_total = master_high_ + local_high_.size();
  const std::size_t low_total = master_low_ + local_low_.size();

  // RdperReplay::sample's split rule, over the combined pool sizes.
  const std::size_t from_high =
      rl::rdper_high_draws(m, config_.beta, high_total, low_total);

  rl::SampledBatch batch;
  batch.weights.assign(m, 1.0);
  batch.ids.reserve(m);
  batch.transitions.reserve(m);
  {
    // Shared lock only for the master reads; indices below master size hit
    // the frozen master storage, the rest the private overlay. The batch
    // points into both without a copy: the master pools stay frozen while
    // this view exists, and the overlay grows only through add(), which
    // the train step does not call between its sample and its pack.
    std::shared_lock lock(mutex_);
    const auto draw = [&](std::span<const rl::Transition> master_pool,
                          const std::vector<rl::Transition>& local_pool,
                          std::size_t total, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = rng.index(total);
        batch.transitions.push_back(
            idx < master_pool.size() ? &master_pool[idx]
                                     : &local_pool[idx - master_pool.size()]);
        batch.ids.push_back(idx);
      }
    };
    draw(master_.high_pool(), local_high_, high_total, from_high);
    draw(master_.low_pool(), local_low_, low_total, m - from_high);
  }
  return batch;
}

SessionReport run_session(const rl::Td3Agent& master,
                          const core::DeepCatApiOptions& api,
                          const TuningRequest& request,
                          const rl::RdperReplay& master_pools,
                          std::shared_mutex& master_mutex) {
  SessionReport out;
  out.id = request.id;
  out.workload = request.workload;
  out.cluster = request.cluster;
  try {
    // Batch id ("TS-D1") or streaming id ("SA-P1")? Resolve the batch suite
    // first; a miss there falls through to the streaming suite, and only a
    // miss in both is the unknown-workload error.
    const sparksim::HiBenchCase* batch_case = nullptr;
    const streamsim::StreamCase* stream_case = nullptr;
    try {
      batch_case = &sparksim::hibench_case(request.workload);
    } catch (const std::out_of_range&) {
      stream_case = &streamsim::stream_case(request.workload);
    }

    // The clone's agent is built from the master's and samples the
    // master's pools through a shared view; it never owns pools of its own.
    const sparksim::ClusterSpec cluster =
        sparksim::cluster_from_tag(request.cluster);
    core::DeepCat dc(cluster, api);
    auto view = std::make_unique<SharedRdperReplay>(master_pools, master_mutex);
    SharedRdperReplay* shared = view.get();
    dc.tuner().materialize(master, std::move(view));

    // Per-session determinism: both streams depend only on the request
    // seed, never on scheduling, so a session's report is reproducible for
    // any pool size or batch composition.
    dc.tuner().rng() =
        common::Rng(common::mix_seed(request.seed, kTunerStream));
    dc.set_next_env_seed(common::mix_seed(request.seed, kEnvStream));

    // The clone is dropped once its report is written: only its
    // transitions reach the master, at the next flush.
    const tuners::TuneBudget budget{
        .max_steps = request.max_steps,
        .max_total_seconds = request.max_total_seconds,
        .seed_actions = request.warm_actions,
        .keep_agent = false};
    out.report =
        batch_case != nullptr
            ? dc.tune_online(sparksim::workload_for(*batch_case), budget)
            : dc.tune_online_stream(cluster, *stream_case, budget);
    out.warm_seeds = static_cast<int>(
        std::min(request.warm_actions.size(), out.report.steps.size()));
    out.new_transitions = shared->session_transitions();
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

}  // namespace deepcat::service
