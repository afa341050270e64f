// e2e_replay: the traced run's split of a session below `tune_online`,
// measured from outside the library.
//
//   e2e_replay --checkpoint default.v1.dckp --plan requests.jsonl
//              --threads C --sessions K --epoch E --master-steps 4
//              --train-iters 600 --trace-out replay.json
//
// It loads the published master with service::load_checkpoint_file and, on C
// threads, replays the first K sessions of the plan through the public calls
// a served session makes: service::checkpoint_from_string (the clone),
// Td3Agent::act_noisy and DeepCatTuner::optimize_action (the recommendation),
// TuningEnvironment::reset/step (the simulated evaluation) and
// Td3Agent::train_step (the fine-tune), with a span around each call. The
// loop mirrors DeepCatTuner::tune_with_budget step for step. Each replayed
// report (and the experience it hands to the merge) is compared bit for bit
// against core::DeepCat::tune_online run on an identical clone with the same
// seeds, which shows the spans time the same program.
//
// Sessions run in epochs of E: after each epoch the experience is merged into
// the master in canonical (id, seed, workload) order, the master takes
// --master-steps fine-tune steps and is snapshotted again, as the streaming
// service does at FLSH. E >= K means one epoch (no FLSH in the workload).
//
// It also times core::DeepCat::train_offline with the server's settings
// (cluster a, TeraSort 3.2, --train-iters) and service::checkpoint_to_string.
// Prints one JSON object of aggregates on stdout.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/deepcat_api.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "sparksim/hardware.hpp"
#include "sparksim/workloads.hpp"
#include "streamsim/environment.hpp"
#include "streamsim/workloads.hpp"
#include "tuners/tuner.hpp"

namespace {

using namespace deepcat;
using Clock = std::chrono::steady_clock;

// The per-session seed streams of service::run_session (service/session.cpp):
// tuner noise and environment seed both derive from the request seed.
constexpr std::uint64_t kTunerStream = 0x7D3EC47ULL;
constexpr std::uint64_t kEnvStream = 0x0E4B51ULL;

double us_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

sparksim::ClusterSpec cluster_for(const std::string& tag) {
  return (tag == "b" || tag == "B") ? sparksim::cluster_b()
                                    : sparksim::cluster_a();
}

/// The server's api settings for `deepcat serve --seed 1`.
core::DeepCatApiOptions server_api() {
  core::DeepCatApiOptions api;
  api.tuner.seed = 1;
  api.env.seed = 1001;
  return api;
}

struct SpanRec {
  const char* name;
  std::size_t session;
  std::size_t thread;
  Clock::time_point t0, t1;
};

/// Samples one replay thread collects; merged after the run.
struct Samples {
  std::vector<SpanRec> spans;
  std::vector<double> clone_ms, act_us, min_q_us, recommend_us, batch_eval_us,
      train_step_ms, session_ms;
  std::size_t recommendations = 0, probes = 0, accepted = 0, train_steps = 0;
  std::size_t sessions = 0, mismatches = 0;
  std::vector<std::string> mismatch_ids;
};

struct Pending {
  std::string id;
  std::uint64_t seed = 0;
  std::string workload;
  std::vector<rl::Transition> transitions;
};

bool same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same(const tuners::TuningReport& a, const tuners::TuningReport& b) {
  if (!same(a.default_time, b.default_time) || !same(a.best_time, b.best_time) ||
      !(a.best_config == b.best_config) || a.objective != b.objective ||
      a.steps.size() != b.steps.size() || a.stream.has_value() != b.stream.has_value()) {
    return false;
  }
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const auto& x = a.steps[i];
    const auto& y = b.steps[i];
    if (x.step != y.step || !same(x.exec_seconds, y.exec_seconds) ||
        !same(x.reward, y.reward) || x.success != y.success ||
        !same(x.recommendation_seconds, y.recommendation_seconds) ||
        !same(x.best_so_far, y.best_so_far)) {
      return false;
    }
  }
  return true;
}

bool same(const std::vector<rl::Transition>& a, const std::vector<rl::Transition>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i].state, b[i].state) || !same(a[i].action, b[i].action) ||
        !same(a[i].reward, b[i].reward) || !same(a[i].next_state, b[i].next_state) ||
        a[i].done != b[i].done) {
      return false;
    }
  }
  return true;
}

/// The frozen epoch a batch of sessions clones from.
struct Epoch {
  const std::string* blob = nullptr;
  const rl::RdperReplay* pools = nullptr;
  std::shared_mutex* mutex = nullptr;
};

/// A private clone of the epoch, seeded exactly as service::run_session seeds
/// one, sampling the master pools through a SharedRdperReplay view.
struct Clone {
  Clone(const Epoch& epoch, const service::TuningRequest& req)
      : dc(cluster_for(req.cluster), server_api()) {
    service::checkpoint_from_string(*epoch.blob, dc);
    dc.tuner().rng() = common::Rng(common::mix_seed(req.seed, kTunerStream));
    dc.set_next_env_seed(common::mix_seed(req.seed, kEnvStream));
    auto view = std::make_unique<service::SharedRdperReplay>(*epoch.pools, *epoch.mutex);
    shared = view.get();
    dc.tuner().set_replay(std::move(view));
  }
  core::DeepCat dc;
  service::SharedRdperReplay* shared = nullptr;
};

/// The HiBench case a request names.
const sparksim::HiBenchCase& batch_case_of(const std::string& workload) {
  for (const auto& c : sparksim::hibench_suite()) {
    if (c.id == workload) return c;
  }
  throw std::invalid_argument("not a HiBench case: " + workload);
}

/// One session, replayed through the public calls with a span around each.
/// Mirrors tuners::DeepCatTuner::tune_with_budget (cold requests, no warm
/// seeds) exactly, so its report must equal tune_online's bit for bit.
tuners::TuningReport replay_session(Clone& clone, const service::TuningRequest& req,
                                    std::size_t index, std::size_t thread,
                                    Samples& out) {
  tuners::DeepCatTuner& tuner = clone.dc.tuner();
  rl::Td3Agent& agent = tuner.agent();
  rl::ReplayBuffer& replay = *tuner.replay();
  const tuners::DeepCatOptions& opt = tuner.options();
  const auto span = [&](const char* name, Clock::time_point t0, Clock::time_point t1) {
    out.spans.push_back({name, index, thread, t0, t1});
    return us_since(t0, t1);
  };

  sparksim::EnvOptions env_options = clone.dc.api_options().env;
  env_options.seed = clone.dc.next_env_seed();
  sparksim::TuningEnvironment env(cluster_for(req.cluster),
                                  sparksim::workload_for(batch_case_of(req.workload)),
                                  env_options);
  std::vector<double>& eval_us = out.batch_eval_us;
  double session_us = 0.0;

  tuners::TuningReport report;
  report.tuner_name = tuner.name();
  report.workload_name = env.workload().name;
  auto t0 = Clock::now();
  std::vector<double> state = env.reset();
  auto t1 = Clock::now();
  eval_us.push_back(span("evaluate", t0, t1));
  session_us += eval_us.back();
  report.default_time = env.default_time();
  env.reset_cost_counters();

  const int num_steps = req.max_steps;
  for (int step = 1; step <= num_steps; ++step) {
    t0 = Clock::now();
    std::vector<double> action = agent.act_noisy(state, opt.online_explore_sigma, tuner.rng());
    t1 = Clock::now();
    const tuners::TwinQOptimizerTrace trace = tuner.optimize_action(state, action);
    const auto t2 = Clock::now();
    const double act = span("act", t0, t1);
    const double optimize = span("optimize", t1, t2);
    span("recommend", t0, t2);
    const std::size_t probes = 1 + trace.iterations;
    out.act_us.push_back(act);
    out.min_q_us.push_back(optimize / static_cast<double>(probes));
    out.recommend_us.push_back(act + optimize);
    ++out.recommendations;
    out.probes += probes;
    if (trace.accepted_original) ++out.accepted;
    session_us += act + optimize;
    double rec_seconds = tuners::rec_cost::kActorForward +
                         tuners::rec_cost::kCriticPair * static_cast<double>(probes);

    t0 = Clock::now();
    const sparksim::StepResult res = env.step(action);
    t1 = Clock::now();
    eval_us.push_back(span("evaluate", t0, t1));
    session_us += eval_us.back();

    replay.add({state, action, res.reward, res.state, step == num_steps});
    if (replay.size() >= opt.td3.batch_size) {
      for (std::size_t k = 0; k < opt.online_finetune_steps; ++k) {
        t0 = Clock::now();
        (void)agent.train_step(replay, tuner.rng());
        t1 = Clock::now();
        out.train_step_ms.push_back(span("train_step", t0, t1) / 1000.0);
        session_us += out.train_step_ms.back() * 1000.0;
        ++out.train_steps;
      }
      rec_seconds += tuners::rec_cost::kTrainStep *
                     static_cast<double>(opt.online_finetune_steps);
    }

    tuners::TuningStepRecord rec;
    rec.step = step;
    rec.exec_seconds = res.exec_seconds;
    rec.reward = res.reward;
    rec.success = res.success;
    rec.recommendation_seconds = rec_seconds;
    rec.best_so_far = env.best_time();
    report.steps.push_back(rec);
    state = res.state;
    if (report.total_tuning_seconds() >= req.max_total_seconds) break;
  }
  report.best_time = env.best_time();
  report.best_config = env.best_config();
  report.objective = env.objective();
  report.stream = env.stream_summary();
  out.session_ms.push_back(session_us / 1000.0);
  return report;
}

/// Times `evaluations` streaming windows, which no benchmark session runs:
/// reset, then steps with the master's deterministic actor, on SA-P1 (cluster
/// a), so the streamsim layer is still measured.
std::vector<double> probe_stream_windows(rl::Td3Agent& agent, std::size_t evaluations) {
  streamsim::StreamEnvironment env(sparksim::cluster_a(), streamsim::stream_case("SA-P1"),
                                   server_api().env);
  std::vector<double> us;
  auto t0 = Clock::now();
  std::vector<double> state = env.reset();
  us.push_back(us_since(t0, Clock::now()));
  while (us.size() < evaluations) {
    const std::vector<double> action = agent.act(state);
    t0 = Clock::now();
    state = env.step(action).state;
    us.push_back(us_since(t0, Clock::now()));
  }
  return us;
}

/// The same session through the library's own entry point.
tuners::TuningReport reference_session(Clone& clone, const service::TuningRequest& req) {
  tuners::TuneBudget budget;
  budget.max_steps = req.max_steps;
  budget.max_total_seconds = req.max_total_seconds;
  return clone.dc.tune_online(sparksim::workload_for(batch_case_of(req.workload)), budget);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string arg(int argc, char** argv, const std::string& name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  throw std::invalid_argument("missing --" + name);
}

void write_trace(const std::string& path, const std::vector<SpanRec>& spans,
                 Clock::time_point origin) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os.setf(std::ios::fixed);
  os.precision(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
       << "\",\"cat\":\"replay\",\"ph\":\"X\",\"ts\":" << us_since(origin, s.t0)
       << ",\"dur\":" << us_since(s.t0, s.t1) << ",\"pid\":2,\"tid\":" << s.thread
       << ",\"args\":{\"session\":" << s.session << "}}";
  }
  os << "\n]}\n";
}

int run(int argc, char** argv) {
  const std::string checkpoint = arg(argc, argv, "checkpoint");
  const std::size_t threads = std::stoul(arg(argc, argv, "threads"));
  const std::size_t sessions = std::stoul(arg(argc, argv, "sessions"));
  const std::size_t epoch_size = std::stoul(arg(argc, argv, "epoch"));
  const std::size_t master_steps = std::stoul(arg(argc, argv, "master-steps"));
  const std::size_t train_iters = std::stoul(arg(argc, argv, "train-iters"));
  if (threads == 0 || epoch_size == 0) {
    throw std::invalid_argument("--threads and --epoch must be >= 1");
  }

  std::vector<service::TuningRequest> plan;
  {
    std::ifstream in(arg(argc, argv, "plan"));
    if (!in) throw std::invalid_argument("cannot open the plan file");
    for (std::string line; std::getline(in, line) && plan.size() < sessions;) {
      if (!line.empty()) plan.push_back(service::parse_request_json(line, plan.size()));
    }
  }

  const auto origin = Clock::now();
  core::DeepCat master(sparksim::cluster_a(), server_api());
  service::load_checkpoint_file(checkpoint, master);
  std::shared_mutex master_mutex;
  const auto* pools = dynamic_cast<const rl::RdperReplay*>(master.tuner().replay());
  if (pools == nullptr) throw std::runtime_error("master replay is not RDPER");

  std::vector<double> snapshot_ms;
  const auto snapshot = [&] {
    const auto t0 = Clock::now();
    std::string blob = service::checkpoint_to_string(master);
    snapshot_ms.push_back(us_since(t0, Clock::now()) / 1000.0);
    return blob;
  };
  std::string blob = snapshot();

  // Replays plan[begin, end) against the current epoch on `threads` threads.
  std::mutex pending_mutex;
  const auto run_epoch = [&](std::size_t begin, std::size_t end,
                             std::vector<Samples>& samples, std::vector<Pending>& pending) {
    const Epoch epoch{&blob, pools, &master_mutex};
    std::atomic<std::size_t> next{begin};
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Samples& out = samples[t];
        for (std::size_t i = next++; i < end; i = next++) {
          const service::TuningRequest& req = plan[i];
          try {
            const auto t0 = Clock::now();
            Clone replayed(epoch, req);
            const auto t1 = Clock::now();
            out.spans.push_back({"clone", i, t, t0, t1});
            out.clone_ms.push_back(us_since(t0, t1) / 1000.0);
            const tuners::TuningReport got = replay_session(replayed, req, i, t, out);
            out.session_ms.back() += out.clone_ms.back();
            out.spans.push_back({"session", i, t, t0, Clock::now()});

            Clone reference(epoch, req);
            const tuners::TuningReport want = reference_session(reference, req);
            ++out.sessions;
            if (!same(got, want) || !same(replayed.shared->session_transitions(),
                                          reference.shared->session_transitions())) {
              ++out.mismatches;
              out.mismatch_ids.push_back(req.id);
            }
            std::scoped_lock lock(pending_mutex);
            pending.push_back({req.id, req.seed, req.workload,
                               replayed.shared->session_transitions()});
          } catch (const std::exception& e) {
            // A session the server would answer ok:false; here it is a
            // mismatch, never an escape from the thread.
            ++out.mismatches;
            out.mismatch_ids.push_back(req.id);
            std::cerr << ("e2e_replay: session " + req.id + ": " + e.what() + "\n");
          }
        }
      });
    }
  };

  // Untimed warm-up, as the server has: a fresh process runs its first
  // sessions slow. Its experience is discarded.
  {
    std::vector<Samples> unused(threads);
    std::vector<Pending> discard;
    run_epoch(0, std::min(plan.size(), 2 * threads), unused, discard);
  }

  std::vector<Samples> samples(threads);
  std::vector<Pending> pending;
  for (std::size_t begin = 0; begin < plan.size(); begin += epoch_size) {
    const std::size_t end = std::min(plan.size(), begin + epoch_size);
    run_epoch(begin, end, samples, pending);
    if (end < plan.size()) {
      // The FLSH barrier: canonical-order merge, bounded master fine-tune,
      // next epoch's snapshot.
      std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
        return std::tie(a.id, a.seed, a.workload) < std::tie(b.id, b.seed, b.workload);
      });
      rl::ReplayBuffer& replay = *master.tuner().replay();
      for (auto& p : pending) {
        for (auto& t : p.transitions) replay.add(std::move(t));
      }
      (void)master.tuner().agent().fine_tune(replay, master.tuner().rng(), master_steps);
      pending.clear();
      blob = snapshot();
    }
  }
  // A few more snapshots of the final master for a steadier median.
  for (int i = 0; i < 5; ++i) blob = snapshot();

  Samples all;
  for (auto& s : samples) {
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    all.spans.insert(all.spans.end(), s.spans.begin(), s.spans.end());
    append(all.clone_ms, s.clone_ms);
    append(all.act_us, s.act_us);
    append(all.min_q_us, s.min_q_us);
    append(all.recommend_us, s.recommend_us);
    append(all.batch_eval_us, s.batch_eval_us);
    append(all.train_step_ms, s.train_step_ms);
    append(all.session_ms, s.session_ms);
    all.recommendations += s.recommendations;
    all.probes += s.probes;
    all.accepted += s.accepted;
    all.train_steps += s.train_steps;
    all.sessions += s.sessions;
    all.mismatches += s.mismatches;
    all.mismatch_ids.insert(all.mismatch_ids.end(), s.mismatch_ids.begin(),
                            s.mismatch_ids.end());
  }
  const std::vector<double> stream_eval_us = probe_stream_windows(master.tuner().agent(), 16);

  // Offline training with the server's settings, alone on the machine as it
  // is in the server before it listens. Timed after the sessions, which are
  // compared with the server's sessions and so run first.
  double train_offline_s = 0.0;
  {
    core::DeepCat trainer(sparksim::cluster_a(), server_api());
    const auto t0 = Clock::now();
    (void)trainer.train_offline(
        sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), train_iters);
    train_offline_s = us_since(t0, Clock::now()) / 1e6;
  }

  if (const std::string path = arg(argc, argv, "trace-out"); !path.empty()) {
    write_trace(path, all.spans, origin);
  }

  const auto ratio = [](double num, std::size_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  std::ostringstream os;
  os.precision(17);
  os << "{\"sessions\":" << all.sessions << ",\"mismatches\":" << all.mismatches
     << ",\"mismatch_ids\":[";
  for (std::size_t i = 0; i < all.mismatch_ids.size(); ++i) {
    os << (i ? "," : "") << '"' << all.mismatch_ids[i] << '"';
  }
  os << "],\"clone_ms\":" << median(all.clone_ms)
     << ",\"session_ms\":" << median(all.session_ms)
     << ",\"act_us\":" << median(all.act_us)
     << ",\"min_q_us\":" << median(all.min_q_us)
     << ",\"recommend_us\":" << median(all.recommend_us)
     << ",\"batch_eval_us\":" << median(all.batch_eval_us)
     << ",\"stream_eval_us\":" << median(stream_eval_us)
     << ",\"train_step_ms\":" << median(all.train_step_ms)
     << ",\"twinq_probes\":" << ratio(static_cast<double>(all.probes), all.recommendations)
     << ",\"twinq_accept_share\":"
     << ratio(static_cast<double>(all.accepted), all.recommendations)
     << ",\"train_steps_per_session\":"
     << ratio(static_cast<double>(all.train_steps), all.sessions)
     << ",\"recommendations_per_session\":"
     << ratio(static_cast<double>(all.recommendations), all.sessions)
     << ",\"snapshot_ms\":" << median(snapshot_ms)
     << ",\"snapshot_mb\":" << static_cast<double>(blob.size()) / 1e6
     << ",\"train_offline_s\":" << train_offline_s
     << ",\"model_train_step_s\":" << tuners::rec_cost::kTrainStep
     << ",\"model_critic_pair_s\":" << tuners::rec_cost::kCriticPair
     << ",\"model_actor_forward_s\":" << tuners::rec_cost::kActorForward << "}\n";
  std::cout << os.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_replay: " << e.what() << '\n';
    return 2;
  }
}
