// Microbenchmarks: the numeric kernels and simulator hot paths that
// determine how cheap DeepCAT's "free" operations are — in particular the
// Twin-Q indicator, whose entire point is costing microseconds instead of
// a multi-minute cluster run.
//
// Three modes:
//   bench_micro                    google-benchmark suite (default)
//   bench_micro --json[=path]      kernel benchmark: times every GEMM/fused
//                                  kernel once per selectable ISA tier
//                                  (scalar/avx2/avx512 columns), the GEMMs
//                                  a TD3 train step runs, one critic Adam
//                                  step (kernel.adam_update.critic), the
//                                  whole step and each step kind apart
//                                  (rl.td3_train_step), a FLSH's 4-step
//                                  master fine-tune serial and on a
//                                  borrowed pool worker (rl.fine_tune4),
//                                  the serial GP
//                                  refit wall time at n={512,1024,2048},
//                                  and a served session's clone of the
//                                  frozen master (and the training state
//                                  it copies at its first train step)
//                                  against the checkpoint codec
//                                  (service.*, checkpoint.*);
//                                  the header records nproc and the build
//                                  type; every ns value is a min-of-N with
//                                  the rep count in the export, emitted
//                                  through the obs metrics exporter — a
//                                  build-info line followed by one gauge
//                                  line per statistic (the committed
//                                  BENCH_kernels.json baseline).
//   bench_micro --json-obs[=path]  obs-overhead benchmark: the streaming
//                                  determinism workload (8 tuning sessions
//                                  through StreamingService) with streaming
//                                  span export + metrics on vs. tracing off
//                                  (the committed BENCH_obs.json baseline).
//   bench_micro --json-serve[=path] serving front-end load generator: 32
//                                  concurrent clients x 64 request round
//                                  trips against an in-process FrontEnd
//                                  (deterministic fake sessions, so the
//                                  numbers isolate the epoll/framing path),
//                                  once over AF_UNIX and once over TCP
//                                  loopback; exports throughput and
//                                  p50/p95/p99 round-trip latency per
//                                  transport (the committed
//                                  BENCH_serve.json baseline).
//   bench_micro --json-warm[=path] warm-start evaluations-to-target (the
//                                  paper's fig9/fig10 protocol): trains one
//                                  master, builds an experience index from
//                                  D1 sessions, then runs warm (k retrieved
//                                  seeds) vs cold sessions on the D2 cases
//                                  and counts paid evaluations until each
//                                  run first reaches the cold run's best
//                                  cost (the committed BENCH_warm.json
//                                  baseline). Fully deterministic — every
//                                  number is a pure function of the seeds.
//                                  Index sessions whose default run fails
//                                  in the simulator are recorded in the
//                                  header's "skipped" array, so the
//                                  baseline never under-reports coverage.
//   bench_micro --json-stream[=path] streaming re-adaptation: every stream
//                                  suite case runs as one long phase-
//                                  shifted session (no restart), warm
//                                  (offline-trained master) vs cold, and
//                                  exports per-shift recovery-evaluation
//                                  counts (the committed BENCH_stream.json
//                                  baseline). Publishing refuses when a
//                                  warm session fails to recover within 5%
//                                  of its pre-shift objective.
#include <benchmark/benchmark.h>

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/sharding.hpp"
#include "service/wire.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "obs/build_info.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/tracer.hpp"
#include "core/deepcat_api.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "retrieval/index.hpp"
#include "rl/replay_rdper.hpp"
#include "rl/td3.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "service/streaming.hpp"
#include "sparksim/job_sim.hpp"
#include "sparksim/workloads.hpp"
#include "streamsim/workloads.hpp"

namespace {

using namespace deepcat;

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  nn::Matrix a(n, n), b(n, n);
  for (double& x : a.flat()) x = rng.normal();
  for (double& x : b.flat()) x = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulScalar(benchmark::State& state) {
  // Same workload with the vector backend disabled: the dispatch overhead
  // and the scalar reference cost in one number.
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  nn::Matrix a(n, n), b(n, n);
  for (double& x : a.flat()) x = rng.normal();
  for (double& x : b.flat()) x = rng.normal();
  common::simd::force_backend(common::simd::Backend::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  common::simd::force_backend(common::simd::Backend::kAvx512);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatMulScalar)->Arg(32)->Arg(64)->Arg(128);

void BM_MlpForward(benchmark::State& state) {
  common::Rng rng(2);
  nn::Mlp net({41, 128, 128, 1}, rng);
  nn::Matrix x(static_cast<std::size_t>(state.range(0)), 41);
  for (double& v : x.flat()) v = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
}
BENCHMARK(BM_MlpForward)->Arg(1)->Arg(64);

void BM_Td3TrainStep(benchmark::State& state) {
  common::Rng rng(3);
  rl::Td3Config config;
  config.state_dim = 9;
  config.action_dim = 32;
  rl::Td3Agent agent(config, rng);
  rl::RdperReplay replay(10'000, {.reward_threshold = 0.0, .beta = 0.6});
  for (int i = 0; i < 1000; ++i) {
    std::vector<double> s(9), a(32), s2(9);
    for (double& v : s) v = rng.uniform();
    for (double& v : a) v = rng.uniform();
    for (double& v : s2) v = rng.uniform();
    replay.add({s, a, rng.uniform(-3.0, 1.0), s2, false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.train_step(replay, rng));
  }
}
BENCHMARK(BM_Td3TrainStep);

void BM_TwinQIndicator(benchmark::State& state) {
  // The cost of one Twin-Q Optimizer probe: two critic forward passes.
  common::Rng rng(4);
  rl::Td3Config config;
  config.state_dim = 9;
  config.action_dim = 32;
  rl::Td3Agent agent(config, rng);
  std::vector<double> s(9, 0.5), a(32, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.min_q(s, a));
  }
}
BENCHMARK(BM_TwinQIndicator);

void BM_RdperSample(benchmark::State& state) {
  common::Rng rng(5);
  rl::RdperReplay replay(100'000, {.reward_threshold = 0.0, .beta = 0.6});
  for (int i = 0; i < 50'000; ++i) {
    replay.add({{0.5}, {0.5}, rng.uniform(-3.0, 1.0), {0.5}, false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay.sample(64, rng));
  }
}
BENCHMARK(BM_RdperSample);

void BM_JobSimulatorRun(benchmark::State& state) {
  // One simulated cluster run — the stand-in for a multi-minute physical
  // configuration evaluation.
  const sparksim::JobSimulator sim(sparksim::cluster_a());
  const auto workload =
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2);
  const auto config = sparksim::pipeline_space().defaults();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(workload, config, seed++));
  }
}
BENCHMARK(BM_JobSimulatorRun);

void BM_GpFitPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(6);
  nn::Matrix x(n, 32);
  std::vector<double> y(n);
  for (double& v : x.flat()) v = rng.uniform();
  for (double& v : y) v = rng.uniform(30.0, 300.0);
  std::vector<double> q(32, 0.5);
  for (auto _ : state) {
    gp::GpRegressor model(std::make_unique<gp::Matern52Kernel>(1.8, 1.0),
                          0.05);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.predict(q));
  }
}
BENCHMARK(BM_GpFitPredict)->Arg(100)->Arg(400);

// ---------------------------------------------------------------------------
// Obs overhead: the streaming determinism workload (same shape as the
// StreamingObsDeterminismTest stress — 8 real tuning sessions against a
// trained master) with streaming span export + health metrics on vs. all
// tracing off. The delta is the full cost of observability for a serve
// run: span begin/end, ring drains through the sink, metric updates.

service::StreamingOptions obs_bench_options() {
  service::StreamingOptions o;
  o.service.threads = 4;
  o.service.api.tuner.seed = 7;
  o.service.api.tuner.td3.hidden = {24, 24};
  o.service.api.tuner.warmup_steps = 16;
  o.service.api.env.seed = 1007;
  o.master_update_steps = 2;
  return o;
}

std::vector<service::TuningRequest> obs_bench_requests() {
  std::vector<service::TuningRequest> reqs;
  const char* cases[] = {"WC-D1", "TS-D1", "PR-D1", "KM-D1",
                         "WC-D2", "TS-D2", "PR-D2", "KM-D2"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    service::TuningRequest r;
    r.id = "req-" + std::to_string(i);
    r.workload = cases[i];
    r.cluster = i % 3 == 2 ? "b" : "a";
    r.max_steps = 2;
    r.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

/// Trained master checkpoint, shared by every obs benchmark iteration so
/// the (expensive) TD3 warmup is paid once, not per timed run.
const std::string& obs_bench_master() {
  static const std::string blob = [] {
    service::StreamingOptions options = obs_bench_options();
    options.service.threads = 1;
    service::StreamingService trainer(options);
    trainer.train_model(
        "default",
        sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 40);
    return trainer.checkpoint_of("default");
  }();
  return blob;
}

struct ObsServeStats {
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ring_highwater = 0;
};

/// One full serve run: load master, submit the 8 requests, drain, flush.
/// With streaming_export the run carries a LogicalClock tracer exporting
/// through a CallbackSpanSink at the default ring capacity plus the
/// tracer-health metrics registry; without it the service runs bare.
ObsServeStats run_streaming_workload(bool streaming_export) {
  obs::LogicalClock clock;
  std::uint64_t sunk = 0;
  obs::CallbackSpanSink sink(
      [&sunk](const obs::SpanRecord&) { ++sunk; });
  obs::MetricsRegistry registry;
  std::optional<obs::Tracer> tracer;
  service::StreamingOptions options = obs_bench_options();
  if (streaming_export) {
    obs::TracerOptions tracer_options;
    tracer_options.exporter = &sink;
    tracer_options.ring_capacity = 256;
    tracer_options.health = &registry;
    tracer.emplace(clock, tracer_options);
    options.service.obs = {&registry, &*tracer};
  }
  service::StreamingService svc(options);
  std::istringstream blob(obs_bench_master(), std::ios::binary);
  svc.load_model("default", blob);
  for (const auto& r : obs_bench_requests()) svc.submit(r);
  while (svc.wait_completed()) {
  }
  (void)svc.flush();
  ObsServeStats stats;
  if (streaming_export) {
    tracer->flush_exporter();
    stats.spans = sunk;
    stats.dropped = tracer->dropped_spans();
    stats.ring_highwater = tracer->ring_highwater();
  }
  return stats;
}

void BM_StreamingServeTracingOff(benchmark::State& state) {
  (void)obs_bench_master();  // train outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_streaming_workload(false));
  }
}
BENCHMARK(BM_StreamingServeTracingOff)->Unit(benchmark::kMillisecond);

void BM_StreamingServeStreamingExport(benchmark::State& state) {
  (void)obs_bench_master();
  std::uint64_t spans = 0;
  for (auto _ : state) {
    const ObsServeStats stats = run_streaming_workload(true);
    spans += stats.spans;
    benchmark::DoNotOptimize(stats);
  }
  state.counters["spans_per_run"] = benchmark::Counter(
      static_cast<double>(spans) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_StreamingServeStreamingExport)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode: chrono-timed kernel suite, scalar vs dispatched backend.

/// Times fn() and returns the best ns/call over `reps` timed repetitions
/// (min filters scheduler noise better than mean for short kernels).
template <typename Fn>
double best_ns_per_call(Fn&& fn, double min_batch_seconds = 0.01,
                        int reps = 5) {
  using clock = std::chrono::steady_clock;
  // Calibrate a batch size that runs for at least min_batch_seconds.
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const std::chrono::duration<double> elapsed = clock::now() - t0;
    if (elapsed.count() >= min_batch_seconds || batch >= (1u << 24)) break;
    batch *= 2;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const std::chrono::duration<double, std::nano> elapsed = clock::now() - t0;
    best = std::min(best, elapsed.count() / static_cast<double>(batch));
  }
  return best;
}

/// Timed repetitions per statistic; every exported ns column is the
/// min-of-kKernelReps (recorded per entry as `.reps`), so large sizes —
/// where the calibrated batch collapses to a single call — still publish
/// a noise-filtered number instead of one arbitrary rep.
constexpr int kKernelReps = 5;
/// GP fits run seconds per call at n=2048; two reps bound the bench time.
constexpr int kGpFitReps = 2;

/// What `nproc` prints: the CPUs this process may run on.
unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

struct BackendColumn {
  std::string label;  ///< metric-name fragment: "scalar" | "avx2" | "avx512"
  common::simd::Backend backend;
};

/// One column per ISA tier selectable in this process (after the CPU,
/// compile-flag and env caps), lowest first. On a non-AVX-512 host the
/// avx512 columns are simply absent from the export.
std::vector<BackendColumn> selectable_columns() {
  namespace simd = common::simd;
  std::vector<BackendColumn> out;
  const std::pair<const char*, simd::Backend> ladder[] = {
      {"scalar", simd::Backend::kScalar},
      {"avx2", simd::Backend::kAvx2},
      {"avx512", simd::Backend::kAvx512},
  };
  for (const auto& [label, backend] : ladder) {
    if (simd::backend_selectable(backend)) out.push_back({label, backend});
  }
  return out;
}

/// Times `fn` once per selectable ISA tier and exports
/// kernel.{name}.{shape}.{tier}_ns / _gflops columns plus the
/// scalar-to-top-tier speedup and the rep count.
template <typename Fn>
void time_kernel_backends(obs::MetricsRegistry& registry,
                          const std::string& name, const std::string& shape,
                          double flops, Fn&& fn) {
  namespace simd = common::simd;
  const std::string prefix = "kernel." + name + "." + shape;
  double scalar_ns = 0.0;
  double top_ns = 0.0;
  for (const auto& col : selectable_columns()) {
    simd::force_backend(col.backend);
    const double ns =
        best_ns_per_call(fn, /*min_batch_seconds=*/0.01, kKernelReps);
    registry.gauge(prefix + "." + col.label + "_ns").set(ns);
    if (flops > 0.0) {
      registry.gauge(prefix + "." + col.label + "_gflops").set(flops / ns);
    }
    if (col.backend == simd::Backend::kScalar) scalar_ns = ns;
    top_ns = ns;  // columns ascend the ladder; the last is the dispatch tier
  }
  simd::force_backend(simd::Backend::kAvx512);
  registry.gauge(prefix + ".reps").set(kKernelReps);
  if (scalar_ns > 0.0 && top_ns > 0.0) {
    registry.gauge(prefix + ".speedup").set(scalar_ns / top_ns);
  }
}

int run_kernel_bench_json(const std::string& path) {
  common::Rng rng(7);
  obs::MetricsRegistry registry;
  common::simd::reset_dispatch_counts();

  for (const std::size_t n : {std::size_t{32}, std::size_t{64},
                              std::size_t{128}, std::size_t{192}}) {
    nn::Matrix a(n, n), b(n, n);
    for (double& x : a.flat()) x = rng.normal();
    for (double& x : b.flat()) x = rng.normal();
    const double flops = 2.0 * static_cast<double>(n * n * n);
    const std::string shape = std::to_string(n) + "x" + std::to_string(n) +
                              "x" + std::to_string(n);
    time_kernel_backends(registry, "matmul", shape, flops, [&] {
      benchmark::DoNotOptimize(nn::matmul(a, b));
    });
    time_kernel_backends(registry, "matmul_tn", shape, flops, [&] {
      benchmark::DoNotOptimize(nn::matmul_tn(a, b));
    });
    time_kernel_backends(registry, "matmul_nt", shape, flops, [&] {
      benchmark::DoNotOptimize(nn::matmul_nt(a, b));
    });
  }

  {
    // The fused Linear+activation step at the TD3 critic's hidden shape.
    const std::size_t m = 64, k = 128, n = 128;
    nn::Matrix x(m, k), w(k, n), bias(1, n);
    for (double& v : x.flat()) v = rng.normal();
    for (double& v : w.flat()) v = rng.normal();
    for (double& v : bias.flat()) v = rng.normal();
    const double flops = 2.0 * static_cast<double>(m * n * k);
    nn::Matrix out;
    time_kernel_backends(registry, "matmul_bias_tanh", "64x128x128", flops,
                         [&] {
                           nn::matmul_bias_act(x, w, bias,
                                               nn::Activation::kTanh, out);
                           benchmark::DoNotOptimize(out.data());
                           benchmark::ClobberMemory();
                         });
  }

  {
    // The GEMMs one TD3 train step runs (shapes m x n x k): dX = G W^T of a
    // 128->128 layer, dW = X^T G of the same layer, and dX of the critic's
    // 128->1 output layer (a k=1 nt). They accumulate into C, exactly as
    // the layers call them, on Matrix storage (64-byte aligned) like theirs.
    struct StepGemm {
      const char* name;
      const char* shape;
      std::size_t m, n, k;
    };
    const StepGemm gemms[] = {{"gemm_nt", "64x128x128", 64, 128, 128},
                              {"gemm_tn", "128x128x64", 128, 128, 64},
                              {"gemm_nt", "64x128x1", 64, 128, 1}};
    for (const auto& g : gemms) {
      const bool tn = std::string(g.name) == "gemm_tn";
      nn::Matrix a(g.m, g.k), b(g.n, g.k), c(g.m, g.n);
      for (double& v : a.flat()) v = rng.normal();
      for (double& v : b.flat()) v = rng.normal();
      const double flops = 2.0 * static_cast<double>(g.m * g.n * g.k);
      time_kernel_backends(registry, g.name, g.shape, flops, [&] {
        if (tn) {
          common::simd::gemm_tn(g.m, g.n, g.k, a.data(), g.m, b.data(), g.n,
                                c.data(), g.n);
        } else {
          common::simd::gemm_nt(g.m, g.n, g.k, a.data(), g.k, b.data(), g.k,
                                c.data(), g.n);
        }
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
      });
    }
  }

  {
    nn::Mlp net({41, 128, 128, 1}, rng);
    nn::Matrix x(64, 41);
    for (double& v : x.flat()) v = rng.uniform();
    // 2*m*k*n per linear layer; activations are noise by comparison.
    const double flops =
        2.0 * 64.0 * (41.0 * 128.0 + 128.0 * 128.0 + 128.0 * 1.0);
    time_kernel_backends(registry, "mlp_forward", "batch64 41-128-128-1",
                         flops,
                         [&] { benchmark::DoNotOptimize(net.forward(x)); });
  }

  {
    const std::size_t len = 4096;
    std::vector<double> u(len), v(len);
    for (double& x : u) x = rng.normal();
    for (double& x : v) x = rng.normal();
    time_kernel_backends(registry, "dot", "4096",
                         2.0 * static_cast<double>(len), [&] {
                           benchmark::DoNotOptimize(common::simd::dot(
                               u.data(), v.data(), len));
                         });
  }

  // A TD3 agent at DeepCAT's serving shape (state 9, action 32, hidden
  // 128x128, batch 64) over 1000 RDPER transitions — BM_Td3TrainStep's
  // setup.
  const rl::Td3Config serving_td3{.state_dim = 9, .action_dim = 32};
  const auto fill_serving_replay = [](rl::ReplayBuffer& replay,
                                      common::Rng& step_rng) {
    for (int i = 0; i < 1000; ++i) {
      std::vector<double> st(9), ac(32), st2(9);
      for (double& v : st) v = step_rng.uniform();
      for (double& v : ac) v = step_rng.uniform();
      for (double& v : st2) v = step_rng.uniform();
      replay.add({st, ac, step_rng.uniform(-3.0, 1.0), st2, false});
    }
  };

  {
    // One whole TD3 train step at the serving shape, min-of-N ns per tier.
    // The agent keeps training across calls; the shapes, and so the work,
    // stay fixed.
    namespace simd = common::simd;
    for (const auto& col : selectable_columns()) {
      simd::force_backend(col.backend);
      common::Rng step_rng(3);
      rl::Td3Agent agent(serving_td3, step_rng);
      rl::RdperReplay replay(10'000, {.reward_threshold = 0.0, .beta = 0.6});
      fill_serving_replay(replay, step_rng);
      const double ns = best_ns_per_call(
          [&] {
            benchmark::DoNotOptimize(agent.train_step(replay, step_rng));
          },
          /*min_batch_seconds=*/0.05, kKernelReps);
      registry.gauge(std::string("rl.td3_train_step.") + col.label + "_ns")
          .set(ns);
    }
    simd::force_backend(simd::Backend::kAvx512);
    registry.gauge("rl.td3_train_step.reps").set(kKernelReps);
  }

  {
    // The two step kinds apart, serial, dispatch tier: a policy step also
    // runs the actor update and three soft updates (policy_delay 2, so
    // the kinds alternate). Best single step of each kind.
    constexpr int kStepsPerKind = 100;
    common::Rng step_rng(3);
    rl::Td3Agent agent(serving_td3, step_rng);
    rl::RdperReplay replay(10'000, {.reward_threshold = 0.0, .beta = 0.6});
    fill_serving_replay(replay, step_rng);
    double best_policy = std::numeric_limits<double>::infinity();
    double best_value = best_policy;
    for (int i = 0; i < 2 * kStepsPerKind; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const rl::Td3TrainStats stats = agent.train_step(replay, step_rng);
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - t0;
      benchmark::DoNotOptimize(stats.critic1_loss);
      double& best = stats.actor_loss ? best_policy : best_value;
      best = std::min(best, elapsed.count());
    }
    registry.gauge("rl.td3_train_step.policy_ns").set(best_policy);
    registry.gauge("rl.td3_train_step.value_ns").set(best_value);
  }

  {
    // One Adam step over the serving critic's six tensors (41x128, 128,
    // 128x128, 128, 128x1, 1) with the TD3 clip, resumed past t = 356 so
    // bc1 == 1 as on every master step: the clip reduction and the fused
    // update, per tier.
    nn::Mlp critic({41, 128, 128, 1}, rng);
    critic.zero_grad();  // sizes the gradients the loop below draws
    std::vector<nn::Matrix> m, v;
    for (const nn::Param& p : critic.params()) {
      for (double& g : p.grad->flat()) g = rng.normal();
      m.emplace_back(p.value->rows(), p.value->cols());
      v.emplace_back(p.value->rows(), p.value->cols());
    }
    nn::Adam opt(critic.params(), {.lr = 1e-3, .grad_clip = 5.0},
                 std::move(m), std::move(v), 400);
    time_kernel_backends(registry, "adam_update", "critic", 0.0, [&] {
      opt.step();
      benchmark::ClobberMemory();
    });
  }

  {
    // A FLSH's master fine-tune, fine_tune(..., 4) at the serving shape:
    // serial, then lending one worker of an idle 4-worker pool. Each rep
    // follows a 2 ms sleep, so the workers are parked as they are when a
    // flush begins. Min-of-N ns per call, dispatch tier.
    constexpr int kFineTuneReps = 20;
    common::ThreadPool pool(4);
    for (common::ThreadPool* helpers :
         {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      common::Rng step_rng(3);
      rl::Td3Agent agent(serving_td3, step_rng);
      rl::RdperReplay replay(10'000, {.reward_threshold = 0.0, .beta = 0.6});
      fill_serving_replay(replay, step_rng);
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < kFineTuneReps; ++rep) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(agent.fine_tune(replay, step_rng, 4, helpers));
        const std::chrono::duration<double, std::nano> elapsed =
            std::chrono::steady_clock::now() - t0;
        best = std::min(best, elapsed.count());
      }
      registry.gauge(helpers == nullptr ? "rl.fine_tune4.serial_ns"
                                        : "rl.fine_tune4.pool_ns")
          .set(best);
    }
    registry.gauge("rl.fine_tune4.reps").set(kFineTuneReps);
  }

  // GP refit wall time at OtterTune sizes. The fit is serial; the
  // "threads1" column name is kept so the committed baseline still lines up.
  for (const std::size_t n :
       {std::size_t{512}, std::size_t{1024}, std::size_t{2048}}) {
    const std::size_t dim = 12;
    nn::Matrix x(n, dim);
    std::vector<double> y(n);
    for (double& v : x.flat()) v = rng.uniform();
    for (double& v : y) v = rng.uniform(30.0, 300.0);
    const std::string prefix = "gp.fit.n" + std::to_string(n);
    const double ns = best_ns_per_call(
        [&] {
          gp::GpRegressor model(
              std::make_unique<gp::Matern52Kernel>(1.8, 1.0), 0.05);
          model.fit(x, y);
          benchmark::DoNotOptimize(model);
        },
        /*min_batch_seconds=*/0.0, kGpFitReps);
    registry.gauge(prefix + ".threads1_ns").set(ns);
    registry.gauge(prefix + ".reps").set(kGpFitReps);
  }

  {
    // A served session's clone (a fresh agent built from the frozen
    // master's, over a view of its pools), a Twin-Q probe on it, the state
    // a clone copies at its first train step, the checkpoint codec that a
    // load still pays, and whole served sessions, on the master `deepcat serve
    // --seed 1` trains (600 iterations, TeraSort 3.2, cluster a). Dispatch
    // tier, min-of-N.
    core::DeepCatApiOptions api;
    api.tuner.seed = 1;
    api.env.seed = 1001;
    core::DeepCat master(sparksim::cluster_a(), api);
    (void)master.train_offline(
        sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2), 600);
    const rl::Td3Agent& agent = master.tuner().agent();
    const auto& pools =
        dynamic_cast<const rl::RdperReplay&>(*master.tuner().replay());
    std::shared_mutex pools_mutex;
    const std::string blob = service::checkpoint_to_string(master);
    const auto time_row = [&](const std::string& name, auto&& fn,
                              double min_batch_seconds = 0.01) {
      registry.gauge(name).set(
          best_ns_per_call(fn, min_batch_seconds, kKernelReps));
    };
    time_row("service.clone.frozen_ns", [&] {
      core::DeepCat clone(sparksim::cluster_a(), api);
      clone.tuner().materialize(
          agent,
          std::make_unique<service::SharedRdperReplay>(pools, pools_mutex));
      benchmark::DoNotOptimize(clone);
    });
    {
      // One Twin-Q probe (min_q: both critics' one-row passes) through an
      // untrained clone, i.e. on the master's critics read in place, as a
      // served session's Twin-Q Optimizer probes them.
      rl::Td3Agent reader(agent.config(), agent);
      const rl::Transition& seen = pools.low_pool().empty()
                                       ? pools.high_pool().front()
                                       : pools.low_pool().front();
      time_row("rl.min_q_ns", [&] {
        benchmark::DoNotOptimize(reader.min_q(seen.state, seen.action));
      });
    }
    {
      // The late copy alone: optimizers() completes it, as a first train
      // step would, on a clone built outside the clock. One clone at a
      // time, so its memory is recycled as a server's sessions recycle it.
      constexpr int kClones = 64;
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < kKernelReps; ++r) {
        double total = 0.0;
        for (int i = 0; i < kClones; ++i) {
          rl::Td3Agent clone(agent.config(), agent);
          const auto t0 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(clone.optimizers());
          const std::chrono::duration<double, std::nano> elapsed =
              std::chrono::steady_clock::now() - t0;
          total += elapsed.count();
        }
        best = std::min(best, total / kClones);
      }
      registry.gauge("service.clone.train_state_ns").set(best);
    }
    const auto session = [](int steps) {
      service::TuningRequest request;
      request.id = "bench";
      request.workload = "TS-D1";
      request.max_steps = steps;
      return request;
    };
    for (const int steps : {1, 5}) {
      time_row(
          "service.session.steps" + std::to_string(steps) + "_ns",
          [&] {
            benchmark::DoNotOptimize(service::run_session(
                agent, api, session(steps), pools, pools_mutex));
          },
          /*min_batch_seconds=*/0.0);
    }
    {
      // Train steps one 5-step session takes: 8 after each evaluation but
      // the last, whose fine-tune nothing reads.
      obs::MetricsRegistry counted;
      core::DeepCatApiOptions counted_api = api;
      counted_api.tuner.obs.metrics = &counted;
      (void)service::run_session(agent, counted_api, session(5), pools,
                                 pools_mutex);
      registry.gauge("service.session.steps5_train_steps")
          .set(static_cast<double>(counted.counter("rl.train_steps").value()));
    }
    time_row("service.clone.checkpoint_ns", [&] {
      core::DeepCat clone(sparksim::cluster_a(), api);
      service::checkpoint_from_string(blob, clone);
      benchmark::DoNotOptimize(clone);
    });
    time_row("service.snapshot.checkpoint_ns", [&] {
      benchmark::DoNotOptimize(service::checkpoint_to_string(master));
    });
    time_row("checkpoint.crc32.blob_ns", [&] {
      benchmark::DoNotOptimize(service::crc32(
          reinterpret_cast<const unsigned char*>(blob.data()), blob.size()));
    });
    registry.gauge("checkpoint.blob_bytes")
        .set(static_cast<double>(blob.size()));
    registry.gauge("service.reps").set(kKernelReps);
  }

  // Export through the observability layer instead of a private
  // serializer: line 1 is the same build-info object `deepcat info --json`
  // and the TELE frame carry, the rest is the obs metrics exporter — one
  // gauge per kernel statistic. Anything that learns to read --metrics-out
  // files reads this baseline for free.
  const auto dispatches = common::simd::dispatch_counts();
  registry.counter("simd.scalar_dispatches").add(dispatches.scalar_calls);
  registry.counter("simd.avx2_dispatches").add(dispatches.avx2_calls);
  registry.counter("simd.avx512_dispatches").add(dispatches.avx512_calls);

  // nproc and the CMake build type sit in this header, next to (not
  // inside) the shared build-info object, so every other surface that
  // carries build info stays byte-identical.
  std::ostringstream json;
  json << "{\"bench\":\"deepcat kernel microbenchmarks\",\"nproc\":"
       << available_cpus() << ",\"build_type\":\"" << DEEPCAT_BUILD_TYPE
       << "\",\"build\":";
  obs::write_build_info_json(json, obs::current_build_info());
  json << "}\n";
  registry.write_jsonl(json);

  if (path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << path << "\n";
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

/// Writes the obs-overhead baseline (BENCH_obs.json): best wall time of the
/// streaming determinism workload with observability off and with streaming
/// span export + health metrics on, plus the derived per-span overhead.
int run_obs_bench_json(const std::string& path) {
  (void)obs_bench_master();           // pay the TD3 warmup up front
  (void)run_streaming_workload(true); // warm allocators / code paths
  // Best-of-8 per mode: the workload is scheduler-noisy (a thread pool
  // draining 8 sessions), and the publish gate below compares the two
  // minima — too few reps and noise, not tracing, trips it.
  const double off_ns =
      best_ns_per_call([] { run_streaming_workload(false); },
                       /*min_batch_seconds=*/0.0, /*reps=*/8);
  ObsServeStats last;
  const double on_ns = best_ns_per_call(
      [&last] { last = run_streaming_workload(true); },
      /*min_batch_seconds=*/0.0, /*reps=*/8);

  obs::MetricsRegistry registry;
  registry.gauge("obs.serve.tracing_off_ns").set(off_ns);
  registry.gauge("obs.serve.streaming_export_ns").set(on_ns);
  registry.gauge("obs.serve.overhead_ratio").set(on_ns / off_ns);
  if (last.spans > 0) {
    registry.gauge("obs.serve.overhead_ns_per_span")
        .set((on_ns - off_ns) / static_cast<double>(last.spans));
  }
  registry.gauge("obs.serve.spans_per_run")
      .set(static_cast<double>(last.spans));
  registry.gauge("obs.serve.ring_highwater")
      .set(static_cast<double>(last.ring_highwater));
  registry.counter("obs.serve.dropped_spans").add(last.dropped);

  // Tracing must stay a rounding error on the serve path; a regression
  // past 5% is a finding, not a baseline, so refuse to publish it.
  constexpr double kMaxOverheadRatio = 1.05;
  if (on_ns > off_ns * kMaxOverheadRatio) {
    std::cerr << "bench_micro: tracing overhead " << on_ns / off_ns
              << "x exceeds the " << kMaxOverheadRatio
              << "x publish gate; not publishing\n";
    return 1;
  }

  // GET /metrics scrape under load: render the Prometheus exposition from
  // the live registry while the traced workload runs — the same
  // registry-snapshot-plus-render the HTTP endpoint performs between
  // epoll wakeups, contending with every instrumented layer.
  {
    obs::LogicalClock clock;
    obs::CallbackSpanSink sink([](const obs::SpanRecord&) {});
    obs::MetricsRegistry live;
    obs::TracerOptions tracer_options;
    tracer_options.exporter = &sink;
    tracer_options.ring_capacity = 256;
    tracer_options.health = &live;
    obs::Tracer tracer(clock, tracer_options);
    service::StreamingOptions options = obs_bench_options();
    options.service.obs = {&live, &tracer};
    service::StreamingService svc(options);
    std::istringstream blob(obs_bench_master(), std::ios::binary);
    svc.load_model("default", blob);

    std::atomic<bool> done{false};
    std::thread worker([&] {
      for (const auto& r : obs_bench_requests()) svc.submit(r);
      while (svc.wait_completed()) {
      }
      (void)svc.flush();
      done.store(true, std::memory_order_release);
    });
    const obs::BuildInfo info = obs::current_build_info();
    double scrape_total_ns = 0.0;
    double scrape_max_ns = 0.0;
    std::size_t scrapes = 0;
    std::size_t scrape_bytes = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto t0 = std::chrono::steady_clock::now();
      std::ostringstream text;
      obs::write_prometheus_text(text, live.snapshot(), info);
      const auto ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      scrape_bytes = text.str().size();
      scrape_total_ns += ns;
      scrape_max_ns = std::max(scrape_max_ns, ns);
      ++scrapes;
    }
    worker.join();
    registry.gauge("obs.scrape.count")
        .set(static_cast<double>(scrapes));
    if (scrapes > 0) {
      registry.gauge("obs.scrape.mean_ns")
          .set(scrape_total_ns / static_cast<double>(scrapes));
      registry.gauge("obs.scrape.max_ns").set(scrape_max_ns);
      registry.gauge("obs.scrape.last_bytes")
          .set(static_cast<double>(scrape_bytes));
    }
  }

  std::ostringstream json;
  json << "{\"bench\":\"deepcat obs overhead microbenchmark\",\"build\":";
  obs::write_build_info_json(json, obs::current_build_info());
  json << "}\n";
  registry.write_jsonl(json);

  if (path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << path << "\n";
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

// --json-serve mode: load-generates the epoll front end over both
// transports. Sessions are the deterministic fake, so throughput and
// latency measure the serving path (accept, framing, admission-order
// release, completion hand-off) rather than model math.

constexpr std::size_t kServeClients = 32;
constexpr std::size_t kServeRequestsPerClient = 64;

service::SessionReport serve_bench_fake_session(
    const service::TuningRequest& r) {
  service::SessionReport report;
  report.id = r.id;
  report.workload = r.workload;
  report.cluster = r.cluster;
  report.ok = true;
  report.report.default_time = 100.0;
  report.report.best_time = 80.0;
  return report;
}

struct ServeLoadResult {
  double wall_seconds = 0.0;
  std::vector<double> latencies_ms;  ///< one per request round trip
};

/// One transport's load phase: kServeClients threads, each doing
/// kServeRequestsPerClient synchronous REQ->REP round trips, then a clean
/// END handshake. Aborts (throws) on any ERR frame — the bench must not
/// publish numbers from a run with failures.
ServeLoadResult run_serve_load(const net::FrontEndOptions& options,
                               std::uint16_t tcp_port, bool use_tcp) {
  ServeLoadResult result;
  result.latencies_ms.reserve(kServeClients * kServeRequestsPerClient);
  std::mutex latencies_mutex;
  std::vector<std::thread> clients;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = use_tcp
                        ? net::BlockingClient::to_tcp("127.0.0.1", tcp_port)
                        : net::BlockingClient::to_unix(options.unix_path);
      client.send_header();
      std::vector<double> local;
      local.reserve(kServeRequestsPerClient);
      for (std::size_t r = 0; r < kServeRequestsPerClient; ++r) {
        const std::string payload =
            "{\"id\":\"c" + std::to_string(c) + "-r" + std::to_string(r) +
            "\",\"workload\":\"TS-D1\",\"steps\":2}";
        const auto sent = std::chrono::steady_clock::now();
        client.send_frame(service::FrameType::kRequest, payload);
        for (;;) {
          auto frame = client.read_frame();
          if (!frame) throw std::runtime_error("serve bench: early EOF");
          if (frame->type == service::FrameType::kError) {
            throw std::runtime_error("serve bench: ERR " + frame->payload);
          }
          if (frame->type == service::FrameType::kReply) break;
        }
        local.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - sent)
                            .count());
      }
      client.send_frame(service::FrameType::kEnd, "");
      while (auto frame = client.read_frame()) {
        if (frame->type == service::FrameType::kEnd) break;
      }
      std::scoped_lock lock(latencies_mutex);
      result.latencies_ms.insert(result.latencies_ms.end(), local.begin(),
                                 local.end());
    });
  }
  for (auto& t : clients) t.join();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

double latency_quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void export_serve_phase(obs::MetricsRegistry& registry,
                        const std::string& prefix,
                        const ServeLoadResult& load) {
  const double requests =
      static_cast<double>(kServeClients * kServeRequestsPerClient);
  registry.gauge(prefix + ".throughput_rps").set(requests / load.wall_seconds);
  registry.gauge(prefix + ".p50_ms")
      .set(latency_quantile(load.latencies_ms, 0.50));
  registry.gauge(prefix + ".p95_ms")
      .set(latency_quantile(load.latencies_ms, 0.95));
  registry.gauge(prefix + ".p99_ms")
      .set(latency_quantile(load.latencies_ms, 0.99));
}

int run_serve_bench_json(const std::string& path) {
  service::StreamingOptions streaming;
  streaming.service.threads = 4;
  service::ShardedStreamingService svc(streaming, /*shards=*/4);
  svc.set_session_runner_for_test(serve_bench_fake_session);

  net::FrontEndOptions options;
  options.unix_path =
      "/tmp/deepcat_bench_serve_" + std::to_string(::getpid()) + ".sock";
  options.tcp_port = 0;  // ephemeral
  options.max_connections = kServeClients + 8;
  options.max_inflight = 4096;
  net::FrontEnd front_end(svc, options);
  const std::uint16_t tcp_port = front_end.tcp_port();
  net::FrontEndStats stats;
  std::thread loop([&] { stats = front_end.run(); });

  // Warm both transports (connect path, allocator, code) off the record.
  (void)run_serve_load(options, tcp_port, /*use_tcp=*/false);
  const auto unix_load = run_serve_load(options, tcp_port, /*use_tcp=*/false);
  const auto tcp_load = run_serve_load(options, tcp_port, /*use_tcp=*/true);

  front_end.request_shutdown();
  loop.join();
  if (stats.failed_sessions != 0 || stats.protocol_errors != 0 ||
      stats.rejected_overload != 0 || stats.forced_closes != 0) {
    std::cerr << "bench_micro: serve bench saw failures; not publishing\n";
    return 1;
  }

  obs::MetricsRegistry registry;
  registry.gauge("serve.clients").set(static_cast<double>(kServeClients));
  registry.gauge("serve.requests_per_client")
      .set(static_cast<double>(kServeRequestsPerClient));
  export_serve_phase(registry, "serve.unix", unix_load);
  export_serve_phase(registry, "serve.tcp", tcp_load);

  std::ostringstream json;
  json << "{\"bench\":\"deepcat serving front-end load generator\",\"build\":";
  obs::write_build_info_json(json, obs::current_build_info());
  json << "}\n";
  registry.write_jsonl(json);

  if (path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << path << "\n";
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

// --json-warm mode: the paper's evaluations-to-target comparison
// (fig9/fig10) on the simulator. Warm sessions replay k retrieved best
// configurations before the actor takes over; the figure of merit is how
// many paid evaluations each mode needs before its best-so-far first
// reaches the cold run's final best cost. Everything below is a pure
// function of the fixed seeds — no wall clock, no scheduling.

constexpr int kWarmBenchTrainIters = 600;
constexpr int kWarmBenchIndexSteps = 10;
constexpr int kWarmBenchSessionSteps = 10;
constexpr std::uint64_t kWarmBenchIndexSeeds = 3;
constexpr std::size_t kWarmBenchNeighbors = 2;

/// Target rule: a run "reaches the target" when its best-so-far first gets
/// within 5% of the cold run's final best cost — the same
/// within-tolerance-of-reference protocol the paper's adaptation figures
/// use, applied to both modes so the comparison is symmetric.
constexpr double kWarmBenchTargetSlack = 1.05;

/// 1-based evaluation count until best-so-far first reaches `target`;
/// steps+1 when the run never gets there (a miss).
int evals_to_target(const tuners::TuningReport& report, double target) {
  for (const auto& s : report.steps) {
    if (s.best_so_far <= target) return s.step;
  }
  return static_cast<int>(report.steps.size()) + 1;
}

int run_warm_bench_json(const std::string& path) {
  const core::DeepCatApiOptions api;
  core::DeepCat master(sparksim::cluster_a(), api);
  (void)master.train_offline(
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2),
      kWarmBenchTrainIters);
  // Sessions clone the master's agent and sample its pools, as served
  // sessions do.
  const rl::Td3Agent& agent = master.tuner().agent();
  const auto& pools =
      dynamic_cast<const rl::RdperReplay&>(*master.tuner().replay());
  std::shared_mutex pools_mutex;

  const auto try_run = [&](const std::string& case_id, std::uint64_t seed,
                           int steps,
                           std::vector<std::vector<double>> warm_actions) {
    service::TuningRequest request;
    request.id = case_id + "-s" + std::to_string(seed);
    request.workload = case_id;
    request.max_steps = steps;
    request.seed = seed;
    request.warm_actions = std::move(warm_actions);
    return service::run_session(agent, api, request, pools, pools_mutex);
  };
  const auto run = [&](const std::string& case_id, std::uint64_t seed,
                       int steps,
                       std::vector<std::vector<double>> warm_actions) {
    service::SessionReport report =
        try_run(case_id, seed, steps, std::move(warm_actions));
    if (!report.ok) {
      throw std::runtime_error("warm bench: session " + report.id +
                               " failed: " + report.error);
    }
    return report;
  };

  // Leave-one-size-out: the index holds the D1 and D3 sessions, the warm
  // targets below are the held-out D2 cases, so retrieval always crosses
  // input sizes and never sees the exact case it is asked to seed.
  retrieval::ExperienceIndex index;
  std::vector<std::string> skipped;
  for (const char* case_id : {"WC-D1", "TS-D1", "PR-D1", "KM-D1", "WC-D3",
                              "TS-D3", "PR-D3", "KM-D3"}) {
    const sparksim::HiBenchCase& c = sparksim::hibench_case(case_id);
    for (std::uint64_t seed = 1; seed <= kWarmBenchIndexSeeds; ++seed) {
      const auto report = try_run(case_id, seed, kWarmBenchIndexSteps, {});
      if (!report.ok) {
        // A seed whose default run fails in the simulator (e.g. an OOM
        // dataset/seed combination) simply contributes no experience — but
        // the published JSON must say so, or the baseline under-reports
        // its own coverage.
        std::cerr << "warm bench: skipping index session " << report.id
                  << ": " << report.error << "\n";
        skipped.push_back(report.id);
        continue;
      }
      index.add(retrieval::entry_from_report(c, seed, report.report));
    }
  }

  obs::MetricsRegistry registry;
  double cold_total = 0.0;
  double warm_total = 0.0;
  std::size_t runs = 0;
  std::size_t warm_misses = 0;
  for (const char* case_id : {"WC-D2", "TS-D2", "PR-D2", "KM-D2"}) {
    const sparksim::HiBenchCase& c = sparksim::hibench_case(case_id);
    std::vector<std::vector<double>> seeds_for_case;
    for (const auto& nb :
         index.query_case(c, kWarmBenchNeighbors, retrieval::Metric::kCosine)) {
      const auto& action = index.entries()[nb.entry].best_action;
      seeds_for_case.emplace_back(action.begin(), action.end());
    }
    double cold_case = 0.0;
    double warm_case = 0.0;
    std::size_t case_runs = 0;
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
      const auto cold = run(case_id, seed, kWarmBenchSessionSteps, {});
      const auto warm =
          run(case_id, seed, kWarmBenchSessionSteps, seeds_for_case);
      const double target = cold.report.best_time * kWarmBenchTargetSlack;
      const int cold_evals = evals_to_target(cold.report, target);
      const int warm_evals = evals_to_target(warm.report, target);
      if (warm_evals > kWarmBenchSessionSteps) ++warm_misses;
      cold_case += cold_evals;
      warm_case += warm_evals;
      ++case_runs;
    }
    cold_total += cold_case;
    warm_total += warm_case;
    runs += case_runs;
    const auto per = static_cast<double>(case_runs);
    registry.gauge(std::string("warm.") + case_id + ".cold_evals_to_target")
        .set(cold_case / per);
    registry.gauge(std::string("warm.") + case_id + ".warm_evals_to_target")
        .set(warm_case / per);
  }

  const auto n = static_cast<double>(runs);
  registry.gauge("warm.sessions_per_mode").set(n);
  registry.gauge("warm.neighbors_k")
      .set(static_cast<double>(kWarmBenchNeighbors));
  registry.gauge("warm.index_entries").set(static_cast<double>(index.size()));
  registry.gauge("warm.mean_cold_evals_to_target").set(cold_total / n);
  registry.gauge("warm.mean_warm_evals_to_target").set(warm_total / n);
  registry.gauge("warm.eval_savings_ratio")
      .set(1.0 - warm_total / cold_total);
  registry.counter("warm.misses").add(warm_misses);

  if (warm_total >= cold_total) {
    std::cerr << "bench_micro: warm start did not beat cold ("
              << warm_total / n << " vs " << cold_total / n
              << " mean evaluations); not publishing\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\"bench\":\"deepcat warm-start evaluations-to-target\",\"build\":";
  obs::write_build_info_json(json, obs::current_build_info());
  json << ",\"skipped\":[";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    if (i) json << ",";
    json << "\"" << service::json_escape(skipped[i]) << "\"";
  }
  json << "]}\n";
  registry.write_jsonl(json);

  if (path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << path << "\n";
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

// --json-stream mode: the streaming re-adaptation benchmark. Every suite
// case runs as ONE long session over its full phase schedule — the model
// fine-tunes across the mid-session load shifts, there is no restart — and
// the figure of merit is the per-shift recovery: how many evaluation
// windows after each shift until the normalized p95 objective is back
// within 5% of the pre-shift best. Warm sessions start from an offline-
// trained master; cold sessions start untrained. Fully deterministic.

constexpr int kStreamBenchTrainIters = 600;

/// Extra evaluation windows past the scheduled ones (the last phase holds
/// forever), so a shift landing near the end of the schedule still gets a
/// fair recovery window before the guard judges it.
constexpr int kStreamBenchTailWindows = 4;

int run_stream_bench_json(const std::string& path) {
  const core::DeepCatApiOptions api;
  core::DeepCat master(sparksim::cluster_a(), api);
  (void)master.train_offline(
      sparksim::make_workload(sparksim::WorkloadType::kTeraSort, 3.2),
      kStreamBenchTrainIters);
  const std::string blob = service::checkpoint_to_string(master);

  obs::MetricsRegistry registry;
  struct ModeTotals {
    std::size_t shifts = 0;
    std::size_t recovered = 0;
    double recovery_evals = 0.0;  ///< summed over recovered shifts
  };
  ModeTotals warm_totals;
  ModeTotals cold_totals;
  std::vector<std::string> unrecovered_warm;
  for (const auto& c : streamsim::stream_suite()) {
    for (const bool warm : {false, true}) {
      core::DeepCat dc(sparksim::cluster_a(), api);
      if (warm) service::checkpoint_from_string(blob, dc);
      tuners::TuneBudget budget;
      // reset() consumes window 0 under defaults; the budget covers the
      // rest of the schedule plus the recovery tail.
      budget.max_steps =
          c.schedule.total_windows() - 1 + kStreamBenchTailWindows;
      const tuners::TuningReport report =
          dc.tune_online_stream(sparksim::cluster_a(), c, budget);
      if (!report.stream) {
        std::cerr << "bench_micro: stream session " << c.id
                  << " produced no stream summary; not publishing\n";
        return 1;
      }
      const sparksim::StreamSummary& ss = *report.stream;
      const std::string prefix =
          std::string("stream.") + c.id + (warm ? ".warm" : ".cold");
      registry.gauge(prefix + ".windows")
          .set(static_cast<double>(ss.windows));
      registry.gauge(prefix + ".final_p95_s").set(ss.final_p95_s);
      ModeTotals& totals = warm ? warm_totals : cold_totals;
      for (std::size_t s = 0; s < ss.shifts.size(); ++s) {
        const sparksim::ShiftRecord& shift = ss.shifts[s];
        const std::string at = prefix + ".shift" + std::to_string(s + 1);
        registry.gauge(at + ".at_eval")
            .set(static_cast<double>(shift.at_eval));
        // recovery_evals is 0 while unrecovered (mirrors ShiftRecord);
        // read it together with .recovered.
        registry.gauge(at + ".recovery_evals")
            .set(static_cast<double>(shift.recovery_evals));
        registry.gauge(at + ".recovered").set(shift.recovered ? 1.0 : 0.0);
        ++totals.shifts;
        if (shift.recovered) {
          ++totals.recovered;
          totals.recovery_evals += shift.recovery_evals;
        }
      }
      if (warm && !ss.all_recovered()) unrecovered_warm.push_back(c.id);
    }
  }

  registry.gauge("stream.cases")
      .set(static_cast<double>(streamsim::stream_suite().size()));
  for (const bool warm : {false, true}) {
    const ModeTotals& totals = warm ? warm_totals : cold_totals;
    const std::string prefix = warm ? "stream.warm" : "stream.cold";
    registry.gauge(prefix + ".shifts")
        .set(static_cast<double>(totals.shifts));
    registry.gauge(prefix + ".recovered_shifts")
        .set(static_cast<double>(totals.recovered));
    registry.gauge(prefix + ".mean_recovery_evals")
        .set(totals.recovered == 0
                 ? 0.0
                 : totals.recovery_evals /
                       static_cast<double>(totals.recovered));
  }

  if (!unrecovered_warm.empty()) {
    std::cerr << "bench_micro: warm streaming session did not recover after "
                 "a load shift (";
    for (std::size_t i = 0; i < unrecovered_warm.size(); ++i) {
      if (i) std::cerr << ", ";
      std::cerr << unrecovered_warm[i];
    }
    std::cerr << "); not publishing\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\"bench\":\"deepcat streaming re-adaptation\",\"build\":";
  obs::write_build_info_json(json, obs::current_build_info());
  json << "}\n";
  registry.write_jsonl(json);

  if (path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_micro: cannot write " << path << "\n";
      return 1;
    }
    out << json.str();
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return run_kernel_bench_json("");
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_kernel_bench_json(argv[i] + 7);
    }
    if (std::strcmp(argv[i], "--json-obs") == 0) {
      return run_obs_bench_json("");
    }
    if (std::strncmp(argv[i], "--json-obs=", 11) == 0) {
      return run_obs_bench_json(argv[i] + 11);
    }
    if (std::strcmp(argv[i], "--json-serve") == 0) {
      return run_serve_bench_json("");
    }
    if (std::strncmp(argv[i], "--json-serve=", 13) == 0) {
      return run_serve_bench_json(argv[i] + 13);
    }
    if (std::strcmp(argv[i], "--json-warm") == 0) {
      return run_warm_bench_json("");
    }
    if (std::strncmp(argv[i], "--json-warm=", 12) == 0) {
      return run_warm_bench_json(argv[i] + 12);
    }
    if (std::strcmp(argv[i], "--json-stream") == 0) {
      return run_stream_bench_json("");
    }
    if (std::strncmp(argv[i], "--json-stream=", 14) == 0) {
      return run_stream_bench_json(argv[i] + 14);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
