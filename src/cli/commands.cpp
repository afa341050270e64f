#include "cli/commands.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "core/deepcat_api.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/build_info.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "retrieval/index.hpp"
#include "service/checkpoint.hpp"
#include "service/jsonl.hpp"
#include "service/session.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/config_export.hpp"
#include "sparksim/job_sim.hpp"
#include "streamsim/workloads.hpp"

namespace deepcat::cli {

namespace {

using namespace deepcat::sparksim;

/// Upper bound on `serve --threads` (tests and CI use 4).
constexpr std::size_t kMaxThreads = 1024;

WorkloadType workload_from_flag(const std::string& tag) {
  if (tag == "WC" || tag == "wordcount") return WorkloadType::kWordCount;
  if (tag == "TS" || tag == "terasort") return WorkloadType::kTeraSort;
  if (tag == "PR" || tag == "pagerank") return WorkloadType::kPageRank;
  if (tag == "KM" || tag == "kmeans") return WorkloadType::kKMeans;
  if (tag == "SA" || tag == "streamagg") return WorkloadType::kStreamAgg;
  if (tag == "SJ" || tag == "streamjoin") return WorkloadType::kStreamJoin;
  throw std::invalid_argument("unknown workload '" + tag +
                              "' (use WC, TS, PR, KM, SA or SJ)");
}

double default_size(WorkloadType type) {
  switch (type) {
    case WorkloadType::kWordCount:
    case WorkloadType::kTeraSort: return 3.2;
    case WorkloadType::kPageRank: return 0.5;
    case WorkloadType::kKMeans: return 20.0;
    // Streaming families size in MB per micro-batch, not GB of input.
    case WorkloadType::kStreamAgg: return 384.0;
    case WorkloadType::kStreamJoin: return 256.0;
  }
  return 1.0;
}

ConfigValues config_from_assignments(const ParsedArgs& args) {
  const ConfigSpace& space = pipeline_space();
  ConfigValues values = space.defaults();
  for (const auto& [knob, value] : args.assignments) {
    const KnobId id = space.id_of(knob);  // throws on unknown knob
    values.set(id, std::stod(value));
  }
  return values;
}

void print_usage(std::ostream& os) {
  os << "usage: deepcat <command> [flags]\n\n"
        "commands:\n"
        "  info [--json 1]             build version, numeric backend,\n"
        "      [--threads 0]           thread-pool size\n"
        "  knobs                       list the 32 tuned parameters\n"
        "  suite                       list the HiBench + streaming\n"
        "                              workload registries\n"
        "  simulate --workload TS      run the cluster simulator once\n"
        "      [--size 3.2] [--cluster a|b] [--seed 1] [--runs 1]\n"
        "      [--set spark.executor.memory=6144 ...]\n"
        "  tune --workload TS          train offline + tune online\n"
        "      [--size 3.2] [--cluster a|b] [--steps 5]\n"
        "      [--offline-iters 1200] [--seed 1]\n"
        "      [--export spark|yarn|hdfs|submit]\n"
        "  serve --checkpoint dir/     serve a JSONL tuning-request batch\n"
        "      [--requests file.jsonl] [--out file.jsonl] [--model default]\n"
        "                              (request lines may name streaming\n"
        "                               workload ids SA-P1..SJ-P2)\n"
        "      [--train-iters 0] [--train-workload TS] [--train-size 3.2]\n"
        "      [--threads 0] [--cluster a|b] [--seed 1] [--publish 1]\n"
        "      [--master-steps 4]      (fine-tune steps after the batch merge)\n"
        "  serve --stream 1            serve a framed wire stream (DCWP)\n"
        "      --checkpoint dir/ [--in wire.bin] [--out wire.bin]\n"
        "      [--requests file.jsonl]  (framed as REQ* + END; excludes --in)\n"
        "      [--warm-index index.bin] (enables \"warm\" request retrieval)\n"
        "      [--socket /path.sock] [--tcp host:port]\n"
        "      [--max-conns 256] [--max-inflight 1024] [--drain-timeout 5]\n"
        "      [--idle-timeout 0]\n"
        "      [--model default] [--master-steps 4]\n"
        "      [--max-models 4] [--train-iters 0] [--train-workload TS]\n"
        "      [--threads 0] [--cluster a|b] [--seed 1]\n"
        "      [--trace-out trace.json] [--metrics-out metrics.jsonl]\n"
        "      [--tele-every 0] [--clock steady|logical]\n"
        "      [--http host:port]      (GET /metrics /healthz /varz\n"
        "                               /timeseries on the same epoll loop;\n"
        "                               needs --socket or --tcp)\n"
        "      [--series N]            (retain convergence time-series, ~N\n"
        "                               points per series; exported as TSER\n"
        "                               frames and GET /timeseries)\n"
        "      [--reply-timings 1]     (echo per-stage t_*_ns in traced REPs;\n"
        "                               needs --trace-out)\n"
        "      (every stream runs through the epoll front end. --tcp runs\n"
        "       the long-lived multiplexing server; --socket alone, --in,\n"
        "       --requests and stdin serve one connection and exit.\n"
        "       without --in/--socket/--tcp reads stdin; without\n"
        "       --out/--socket/--tcp writes wire bytes to stdout silently)\n"
        "  stats --socket /path.sock   poll a streaming server for one TELE\n"
        "      [--tcp host:port]       telemetry snapshot (STAT over DCWP)\n"
        "      [--requests file.jsonl] (first send each line as a REQ and\n"
        "                               print every REP/ERR payload)\n"
        "      [--series 1]            (render sparklines from the server's\n"
        "                               TSER time-series frame)\n"
        "      [--trace-out trace.json] [--trace-id deepcat-stats]\n"
        "                              (tag REQs with a trace id, collect\n"
        "                               client spans + echoed server stage\n"
        "                               timings into one Chrome trace)\n"
        "  index build --checkpoint dir/ --out index.bin\n"
        "      [--model default] [--workloads TS-D1,WC-D1 | all]\n"
        "      [--seeds 2] [--steps 5] [--cluster a|b]\n"
        "                              replay deterministic sessions against\n"
        "                              the registry model into a warm-start\n"
        "                              experience index\n"
        "  index query --index index.bin --workload TS-D1\n"
        "      [--k 3] [--metric cosine|l2] [--json 1]\n"
        "                              k-NN query against a saved index\n";
}

/// The service settings both serve modes read from the same flags.
service::StreamingOptions serve_options(const ParsedArgs& args) {
  const auto seed = args.integer_or<std::uint64_t>("seed", 1);
  service::StreamingOptions options;
  options.service.cluster = args.flag_or("cluster", "a");
  options.service.threads = args.integer_or<std::size_t>("threads", 0);
  options.service.api.tuner.seed = seed;
  options.service.api.env.seed = seed + 1000;
  options.master_update_steps =
      args.integer_or<std::size_t>("master-steps", 4);
  return options;
}

/// Loads the newest published `model_name` into `svc`, or trains one for
/// --train-iters iterations and publishes it. Status lines go to `os`
/// unless `quiet` (its stdout carries wire bytes).
void bootstrap_model(const ParsedArgs& args, service::StreamingService& svc,
                     service::ModelRegistry& registry,
                     const std::string& model_name, std::ostream& os,
                     bool quiet) {
  const auto train_iters = args.integer_or<std::size_t>("train-iters", 0);
  const auto version = registry.latest_version(model_name);
  if (version) {
    svc.load_model_file(model_name, registry.path_for(model_name, *version));
    if (!quiet) {
      os << "loaded model '" << model_name << "' v" << *version << " from "
         << registry.directory() << '\n';
    }
  } else if (train_iters > 0) {
    const WorkloadType type =
        workload_from_flag(args.flag_or("train-workload", "TS"));
    const double size = args.number_or("train-size", default_size(type));
    if (!quiet) {
      os << "no published model '" << model_name << "'; training "
         << train_iters << " offline iterations...\n";
    }
    const std::uint32_t v = registry.publish(
        model_name,
        svc.train_model(model_name, make_workload(type, size), train_iters));
    if (!quiet) os << "published model '" << model_name << "' v" << v << '\n';
  } else {
    throw std::invalid_argument(
        "serve: no published model '" + model_name +
        "' in the registry and --train-iters is 0; train one first");
  }
}

int front_end_exit_code(obs::MetricsRegistry& registry) {
  // Overload rejections are the protocol working as designed, not a
  // failure; anything lost or corrupted is (a stream without its END
  // frame counts as a protocol error).
  for (const char* name : {"net.failed_sessions", "net.parse_errors",
                           "net.protocol_errors", "net.forced_closes"}) {
    if (registry.counter(name).value() != 0) return 1;
  }
  return 0;
}

int cmd_serve_stream(const ParsedArgs& args, std::ostream& os,
                     const std::string& checkpoint_dir) {
  const std::string model_name = args.flag_or("model", "default");
  service::StreamingOptions options = serve_options(args);
  const auto socket_path = args.flag("socket");
  const auto tcp_spec = args.flag("tcp");
  const bool listening = socket_path.has_value() || tcp_spec.has_value();
  const auto http_spec = args.flag("http");
  if (http_spec && !listening) {
    throw std::invalid_argument(
        "serve: --http requires --socket or --tcp (the observability "
        "endpoint shares the front end's epoll loop)");
  }
  // One service per process: --shards survives only as `--shards 1`, so
  // older launch lines keep parsing.
  if (const auto shards = args.flag("shards");
      shards && args.number_or("shards", 1) != 1.0) {
    throw std::invalid_argument(
        "serve: flag --shards accepts only 1 (one service per process), "
        "got '" + *shards + "'");
  }

  options.max_loaded_models = args.integer_or<std::size_t>("max-models", 4);
  options.registry_dir = checkpoint_dir;

  // Observability taps: the service, its sessions and the front end count
  // into one registry, always (STAT, /varz, /metrics and the summary line
  // read it); --metrics-out writes it at exit. --trace-out streams
  // completed spans into a Chrome trace file. --clock logical makes the
  // trace and the TELE payloads deterministic for golden comparisons.
  const auto trace_out = args.flag("trace-out");
  const auto metrics_out = args.flag("metrics-out");
  const std::string clock_kind = args.flag_or("clock", "steady");
  if (clock_kind != "steady" && clock_kind != "logical") {
    throw std::invalid_argument("serve: unknown --clock '" + clock_kind +
                                "' (use steady or logical)");
  }
  // Declared so that the tracer goes first: its last drain still writes
  // the file and sets the registry's health gauge.
  obs::MetricsRegistry metrics_registry;
  options.service.obs.metrics = &metrics_registry;
  std::unique_ptr<obs::Clock> clock;
  std::ofstream trace_file;
  std::unique_ptr<obs::ChromeTraceFileSink> trace_sink;
  std::unique_ptr<obs::Tracer> tracer;
  if (trace_out) {
    // Opened before the service is built, so an unwritable path fails
    // before anything trains; from here on the file is a valid trace.
    trace_file.open(*trace_out, std::ios::binary | std::ios::trunc);
    if (!trace_file) {
      throw std::invalid_argument("serve: cannot open trace output '" +
                                  *trace_out + "'");
    }
    if (clock_kind == "logical") {
      clock = std::make_unique<obs::LogicalClock>();
    } else {
      clock = std::make_unique<obs::SteadyClock>();
    }
    trace_sink =
        std::make_unique<obs::ChromeTraceFileSink>(trace_file, clock_kind);
    obs::TracerOptions tracer_options;
    tracer_options.health = &metrics_registry;
    tracer = std::make_unique<obs::Tracer>(*clock, *trace_sink, tracer_options);
    options.service.obs.tracer = tracer.get();
  }

  // Convergence time-series retention is independent of the trace/metrics
  // gate: --series alone turns it on (for TSER frames + GET /timeseries)
  // without paying for span bookkeeping.
  std::unique_ptr<obs::TimeSeriesRegistry> series_registry;
  if (auto capacity = args.integer_or<std::size_t>("series", 0);
      capacity != 0) {
    if (capacity < 2) capacity = 128;  // --series 1 means "just enable it"
    if (capacity % 2 != 0) ++capacity;
    series_registry = std::make_unique<obs::TimeSeriesRegistry>(capacity);
    options.service.obs.series = series_registry.get();
  }
  options.reply_timings = args.number_or("reply-timings", 0) != 0.0;
  if (options.reply_timings && tracer == nullptr) {
    throw std::invalid_argument(
        "serve: --reply-timings needs a tracer (--trace-out)");
  }

  net::FrontEndOptions fe;
  fe.tele_every = args.integer_or<std::size_t>("tele-every", 0);
  // Logical-clock runs promise byte-identical telemetry across thread
  // counts; scheduling-dependent fields would break that promise.
  fe.tele_include_nondeterministic = clock_kind != "logical";

  // One byte stream — stdin, --in, or --requests framed as REQ* + END —
  // is served as the front end's single connection when not listening.
  // Its input is opened (a --requests file read and framed) before
  // anything trains.
  std::ifstream in_file;
  std::istringstream synth_in(std::ios::binary);
  std::istream* in = &std::cin;
  if (const auto req_path = args.flag("requests"); req_path && !listening) {
    // Human-writable bridge: frame each JSONL request line as a REQ and
    // append a clean END, so smoke tests don't need a wire encoder.
    if (args.flag("in")) {
      throw std::invalid_argument(
          "serve: --requests and --in are mutually exclusive in stream "
          "mode");
    }
    std::ifstream req(*req_path);
    if (!req) {
      throw std::invalid_argument("serve: cannot open requests file '" +
                                  *req_path + "'");
    }
    std::vector<std::pair<service::FrameType, std::string>> frames;
    std::string line;
    while (std::getline(req, line)) {
      if (!line.empty()) {
        frames.emplace_back(service::FrameType::kRequest, line);
      }
    }
    frames.emplace_back(service::FrameType::kEnd, "");
    synth_in.str(service::encode_frames(frames));
    in = &synth_in;
  } else if (const auto in_path = args.flag("in"); in_path && !listening) {
    in_file.open(*in_path, std::ios::binary);
    if (!in_file) {
      throw std::invalid_argument("serve: cannot open wire input '" +
                                  *in_path + "'");
    }
    in = &in_file;
  }

  // Wire bytes to stdout (no --out / --socket / --tcp) must stay pure
  // protocol, so status text is suppressed in that mode.
  const bool quiet = !args.flag("out") && !listening;
  service::StreamingService svc(options);
  service::ModelRegistry registry(checkpoint_dir);
  bootstrap_model(args, svc, registry, model_name, os, quiet);

  if (const auto warm_path = args.flag("warm-index")) {
    auto index = std::make_shared<retrieval::ExperienceIndex>(
        service::load_index_file(*warm_path));
    if (index->empty()) {
      throw std::invalid_argument("serve: warm index '" + *warm_path +
                                  "' is empty");
    }
    if (!quiet) {
      os << "loaded warm index (" << index->size() << " entries) from "
         << *warm_path << '\n';
    }
    svc.set_warm_index(std::move(index));
  }

  // The front end's counts, as the summary lines print them.
  const auto count = [&metrics_registry](const char* name) {
    return metrics_registry.counter(std::string("net.") + name).value();
  };
  if (listening) {
    if (socket_path) fe.unix_path = *socket_path;
    if (tcp_spec) {
      const auto [host, port] = net::parse_host_port(*tcp_spec);
      fe.tcp_host = host.empty() ? "127.0.0.1" : host;
      fe.tcp_port = port;
    }
    fe.max_connections = args.integer_or<std::size_t>("max-conns", 256);
    fe.max_inflight = args.integer_or<std::size_t>("max-inflight", 1024);
    fe.drain_timeout_seconds = args.number_or("drain-timeout", 5);
    fe.idle_timeout_seconds = args.number_or("idle-timeout", 0);
    // --socket alone serves exactly one connection (flushing at its END)
    // and exits; --tcp runs the long-lived multiplexing server.
    fe.single_connection = socket_path.has_value() && !tcp_spec;
    if (http_spec) {
      const auto [http_host, http_port] = net::parse_host_port(*http_spec);
      fe.http_host = http_host.empty() ? "127.0.0.1" : http_host;
      fe.http_port = http_port;
    }
    net::FrontEnd server(svc, fe);
    if (!fe.single_connection) server.install_signal_handlers();
    if (socket_path) os << "listening on " << *socket_path << '\n';
    if (tcp_spec) {
      os << "listening on " << fe.tcp_host << ':' << server.tcp_port()
         << '\n';
    }
    if (http_spec) {
      os << "observability http on " << fe.http_host << ':'
         << server.http_port() << '\n';
    }
    os << std::flush;
    server.run();
    os << "serve done: " << count("accepted") << " connections ("
       << count("clean_ends") << " clean), " << count("requests")
       << " requests, " << count("replies") << " replies, "
       << count("failed_sessions") << " failed sessions, "
       << count("parse_errors") << " parse errors, "
       << count("protocol_errors") << " protocol errors, "
       << count("rejected_overload") + count("overloaded_requests")
       << " overload rejections, " << count("forced_closes")
       << " forced closes";
    if (http_spec) {
      os << ", " << count("http_requests") << " http requests, "
         << count("http_errors") << " http errors";
    }
    os << '\n';
  } else {
    std::ofstream out_file;
    std::ostream* out = &os;  // quiet mode: wire bytes into the CLI stream
    if (const auto out_path = args.flag("out")) {
      out_file.open(*out_path, std::ios::binary | std::ios::trunc);
      if (!out_file) {
        throw std::invalid_argument("serve: cannot open wire output '" +
                                    *out_path + "'");
      }
      out = &out_file;
    }
    net::serve_stream(*in, *out, svc, fe);
    if (!quiet) {
      os << "stream done: " << count("requests") << " requests, "
         << count("failed_sessions") << " failed sessions, "
         << count("parse_errors") << " parse errors, "
         << count("protocol_errors") << " protocol errors"
         << (count("clean_ends") != 0 ? "" : " (no clean END frame)")
         << '\n';
    }
  }
  const int exit_code = front_end_exit_code(metrics_registry);

  if (tracer != nullptr) {
    tracer->flush_exporter();
    if (!trace_file) {
      throw std::runtime_error("serve: writing trace output '" + *trace_out +
                               "' failed");
    }
    if (!quiet) {
      os << "wrote trace to " << *trace_out << " ("
         << tracer->exported_spans() << " spans, ring highwater "
         << tracer->ring_highwater() << ", dropped "
         << tracer->dropped_spans() << ")\n";
    }
  }
  if (metrics_out) {
    std::ofstream mf(*metrics_out, std::ios::trunc);
    if (!mf) {
      throw std::invalid_argument("serve: cannot open metrics output '" +
                                  *metrics_out + "'");
    }
    svc.metrics_registry().write_jsonl(mf);
    if (!quiet) os << "wrote metrics to " << *metrics_out << '\n';
  }
  return exit_code;
}

}  // namespace

namespace {

/// Comma-joined enumerations of the tuning surface (flat strings, not
/// arrays, so the info JSON stays parseable by the flat reader).
std::string workload_family_list() {
  std::string out;
  for (const WorkloadType t :
       {WorkloadType::kWordCount, WorkloadType::kTeraSort,
        WorkloadType::kPageRank, WorkloadType::kKMeans,
        WorkloadType::kStreamAgg, WorkloadType::kStreamJoin}) {
    if (!out.empty()) out += ',';
    out += to_string(t);
  }
  return out;
}

std::string objective_kind_list() {
  return std::string(to_string(ObjectiveKind::kJobCompletionSeconds)) + "," +
         to_string(ObjectiveKind::kBatchLatencyP95);
}

}  // namespace

int cmd_info(const ParsedArgs& args, std::ostream& os) {
  // Reports what THIS process would actually use: the backend comes from
  // the live dispatch decision (CPU features + the DEEPCAT_SIMD cap), not
  // from compile flags alone. The ladder lists every tier the CPU +
  // compile flags expose, whether or not an env cap keeps it inactive.
  namespace simd = common::simd;
  const obs::BuildInfo info =
      obs::current_build_info(args.integer_or<std::size_t>("threads", 0));
  if (args.number_or("json", 0) != 0.0) {
    // Flat object (cli_test parses it with a flat-JSON reader): the
    // ladder is a comma-joined string, not an array.
    os << '{';
    obs::write_build_info_json_fields(os, info);
    os << ",\"isa_ladder\":\"" << simd::isa_ladder() << "\",\"detected\":\""
       << simd::backend_label(simd::detected_backend())
       << "\",\"embedding_dim\":" << retrieval::kEmbeddingDim
       << ",\"warm_default_k\":" << retrieval::kDefaultNeighbors
       << ",\"index_section_version\":" << service::kIndexSectionVersion
       << ",\"workload_families\":\"" << workload_family_list()
       << "\",\"objective_kinds\":\"" << objective_kind_list()
       << "\",\"stream_cases\":" << streamsim::stream_suite().size()
       << "}\n";
    return 0;
  }
  os << "deepcat " << info.version << '\n'
     << "numeric backend:  " << info.backend << '\n'
     << "isa ladder:       " << simd::isa_ladder() << '\n'
     << "detected tier:    " << simd::backend_label(simd::detected_backend())
     << '\n'
     << "simd compiled:    " << (info.simd_compiled ? "yes" : "no") << '\n'
     << "thread-pool size: " << info.threads << '\n'
     << "warm embedding:   " << retrieval::kEmbeddingDim << " dims\n"
     << "warm default k:   " << retrieval::kDefaultNeighbors << '\n'
     << "index section:    v" << service::kIndexSectionVersion << '\n'
     << "workload families:" << ' ' << workload_family_list() << '\n'
     << "objective kinds:  " << objective_kind_list() << '\n'
     << "stream cases:     " << streamsim::stream_suite().size() << '\n';
  return 0;
}

int cmd_knobs(const ParsedArgs& /*args*/, std::ostream& os) {
  const ConfigSpace& space = pipeline_space();
  common::Table t("Tuned configuration parameters");
  t.header({"parameter", "component", "min", "max", "default"});
  const char* comp_names[] = {"Spark", "YARN", "HDFS"};
  for (std::size_t i = 0; i < space.size(); ++i) {
    const KnobDef& k = space.knob(static_cast<KnobId>(i));
    t.row({k.name, comp_names[static_cast<int>(k.component)],
           common::cell(k.min_value, 1), common::cell(k.max_value, 1),
           common::cell(k.default_value, 1)});
  }
  t.print(os);
  return 0;
}

int cmd_suite(const ParsedArgs& /*args*/, std::ostream& os) {
  common::Table t("HiBench workload registry");
  t.header({"id", "workload", "input (MB)", "stages"});
  for (const auto& c : hibench_suite()) {
    const WorkloadSpec w = workload_for(c);
    t.row({c.id, w.name, common::cell(w.input_mb, 0),
           common::cell(w.stages.size())});
  }
  t.print(os);
  common::Table s("Streaming workload registry (micro-batch)");
  s.header({"id", "workload", "phases", "windows", "floor"});
  for (const auto& c : streamsim::stream_suite()) {
    s.row({c.id, to_string(c.type), common::cell(c.schedule.phases.size()),
           common::cell(c.schedule.total_windows()),
           common::percent_cell(c.throughput_floor, 0)});
  }
  s.print(os);
  return 0;
}

int cmd_simulate(const ParsedArgs& args, std::ostream& os) {
  const WorkloadType type = workload_from_flag(args.flag_or("workload", "TS"));
  const double size = args.number_or("size", default_size(type));
  const WorkloadSpec workload = make_workload(type, size);
  const ClusterSpec cluster = cluster_from_tag(args.flag_or("cluster", "a"));
  const ConfigValues config = config_from_assignments(args);
  const auto runs = args.integer_or<int>("runs", 1);
  const auto seed0 = args.integer_or<std::uint64_t>("seed", 1);

  const JobSimulator sim(cluster);
  for (int run = 0; run < runs; ++run) {
    const ExecutionResult r =
        sim.run(workload, config, seed0 + static_cast<std::uint64_t>(run));
    os << workload.name << " on " << cluster.name << " (seed "
       << seed0 + static_cast<std::uint64_t>(run) << "): ";
    if (r.success) {
      os << common::cell(r.exec_seconds, 1) << " s, " << r.executors
         << " executors, " << r.total_slots << " slots\n";
    } else {
      os << "FAILED after " << common::cell(r.exec_seconds, 1) << " s ("
         << r.failure_reason << ")\n";
    }
    if (runs == 1) {
      common::Table t("stages");
      t.header({"stage", "tasks", "duration (s)", "spill (MB)", "cache hit"});
      for (const auto& s : r.stages) {
        t.row({s.name, common::cell(s.num_tasks),
               common::cell(s.duration_s, 1), common::cell(s.spilled_mb, 0),
               common::percent_cell(s.cache_hit_fraction, 0)});
      }
      t.print(os);
    }
  }
  return 0;
}

int cmd_tune(const ParsedArgs& args, std::ostream& os) {
  const WorkloadType type = workload_from_flag(args.flag_or("workload", "TS"));
  const double size = args.number_or("size", default_size(type));
  const ClusterSpec cluster = cluster_from_tag(args.flag_or("cluster", "a"));
  const auto steps = args.integer_or<int>("steps", 5);
  const auto offline_iters =
      args.integer_or<std::size_t>("offline-iters", 1200);
  const auto seed = args.integer_or<std::uint64_t>("seed", 1);

  core::DeepCatApiOptions options;
  options.tuner.seed = seed;
  options.env.seed = seed + 1000;
  core::DeepCat tuner(cluster, options);

  os << "offline: training " << offline_iters << " iterations...\n";
  (void)tuner.train_offline(make_workload(type, size), offline_iters);

  const auto report =
      tuner.tune_online(make_workload(type, size), {.max_steps = steps});
  common::Table t("online tuning report");
  t.header({"step", "exec (s)", "best so far (s)"});
  for (const auto& s : report.steps) {
    t.row({common::cell(s.step), common::cell(s.exec_seconds, 1),
           common::cell(s.best_so_far, 1)});
  }
  t.print(os);
  os << "default " << common::cell(report.default_time, 1) << " s -> best "
     << common::cell(report.best_time, 1) << " s ("
     << common::speedup_cell(report.speedup_over_default())
     << "), tuning cost " << common::cell(report.total_tuning_seconds(), 1)
     << " s\n";

  if (const auto format = args.flag("export")) {
    os << '\n';
    if (*format == "spark") {
      write_spark_defaults(os, report.best_config);
    } else if (*format == "yarn") {
      write_yarn_site_xml(os, report.best_config);
    } else if (*format == "hdfs") {
      write_hdfs_site_xml(os, report.best_config);
    } else if (*format == "submit") {
      os << spark_submit_flags(report.best_config) << '\n';
    } else {
      throw std::invalid_argument("unknown --export format '" + *format +
                                  "' (use spark, yarn, hdfs or submit)");
    }
  }
  return 0;
}

int cmd_serve(const ParsedArgs& args, std::ostream& os) {
  const auto checkpoint_dir = args.flag("checkpoint");
  if (!checkpoint_dir) {
    throw std::invalid_argument("serve: --checkpoint dir/ is required");
  }
  // Every pool worker is an OS thread: refuse counts no host should be
  // asked for before any service starts one.
  (void)args.integer_or<std::size_t>("threads", 0, kMaxThreads);
  if (args.number_or("stream", 0) != 0.0) {
    return cmd_serve_stream(args, os, *checkpoint_dir);
  }
  // The request file is parsed before anything trains, so a bad line
  // fails before a model is published.
  const auto requests_path = args.flag("requests");
  std::vector<service::TuningRequest> requests;
  if (requests_path) {
    std::ifstream req_stream(*requests_path);
    if (!req_stream) {
      throw std::invalid_argument("serve: cannot open requests file '" +
                                  *requests_path + "'");
    }
    requests = service::parse_requests_jsonl(req_stream);
  }
  const std::string model_name = args.flag_or("model", "default");
  const service::StreamingOptions options = serve_options(args);
  service::StreamingService svc(options);
  service::ModelRegistry registry(*checkpoint_dir);
  bootstrap_model(args, svc, registry, model_name, os, /*quiet=*/false);
  if (!requests_path) return 0;  // train/publish-only invocation

  os << "serving " << requests.size() << " requests on "
     << (options.service.threads == 0
             ? std::string("hardware")
             : std::to_string(options.service.threads))
     << " threads...\n";
  // Every request is served cold by the one loaded master, whatever model
  // or warm count its line names: the batch path is REQ* + one flush, with
  // no routing and no experience index.
  for (service::TuningRequest& r : requests) {
    r.model = model_name;
    r.warm_k = 0;
  }
  const auto reports = service::serve_all(svc, std::move(requests));
  (void)svc.flush();

  // The aggregate is fed in request order, so its float sums — and the
  // whole output — are identical for any --threads.
  service::SessionAggregate batch;
  std::ostringstream body;
  for (const auto& r : reports) {
    service::write_report_jsonl(body, r.session);
    batch.record(r.session);
  }
  service::ServiceMetrics metrics = batch.snapshot();
  const service::ServiceMetrics merged = svc.metrics();
  metrics.merges = merged.merges;
  metrics.merged_transitions = merged.merged_transitions;
  metrics.fine_tune_steps = merged.fine_tune_steps;
  service::write_metrics_jsonl(body, metrics);
  if (const auto out_path = args.flag("out")) {
    std::ofstream out(*out_path, std::ios::trunc);
    if (!out) {
      throw std::invalid_argument("serve: cannot open output file '" +
                                  *out_path + "'");
    }
    out << body.str();
    os << "wrote " << reports.size() << " report lines + metrics to "
       << *out_path << '\n';
  } else {
    os << body.str();
  }

  if (args.number_or("publish", 0) != 0.0) {
    const std::uint32_t v =
        registry.publish(model_name, svc.master(model_name));
    os << "published post-batch model '" << model_name << "' v" << v << '\n';
  }

  return metrics.sessions_failed == 0 ? 0 : 1;
}

int cmd_stats(const ParsedArgs& args, std::ostream& os) {
  const auto socket_path = args.flag("socket");
  const auto tcp_spec = args.flag("tcp");
  if (!socket_path && !tcp_spec) {
    throw std::invalid_argument(
        "stats: --socket /path.sock or --tcp host:port is required");
  }
  const std::string endpoint = socket_path ? *socket_path : *tcp_spec;

  // --trace-out: stream a client-side trace, tag every request with a
  // trace id + parent span, and graft the server's echoed t_*_ns stage
  // block back in as server.* child spans — one Chrome-trace file then
  // shows a request's full life across both processes.
  const auto trace_out = args.flag("trace-out");
  if (args.flag("trace-id") && !trace_out) {
    throw std::invalid_argument("stats: --trace-id needs --trace-out");
  }
  const std::string trace_id = args.flag_or("trace-id", "deepcat-stats");
  obs::SteadyClock clock;
  std::ofstream trace_file;
  std::unique_ptr<obs::ChromeTraceFileSink> trace_sink;
  std::unique_ptr<obs::Tracer> tracer;
  std::uint64_t root_span = 0;
  if (trace_out) {
    trace_file.open(*trace_out, std::ios::binary | std::ios::trunc);
    if (!trace_file) {
      throw std::invalid_argument("stats: cannot open trace output '" +
                                  *trace_out + "'");
    }
    trace_sink =
        std::make_unique<obs::ChromeTraceFileSink>(trace_file, clock.kind());
    tracer = std::make_unique<obs::Tracer>(clock, *trace_sink);
    root_span = tracer->begin_span("client.stats");
  }

  net::BlockingClient client = [&] {
    if (socket_path) return net::BlockingClient::to_unix(*socket_path);
    const auto [host, port] = net::parse_host_port(*tcp_spec);
    return net::BlockingClient::to_tcp(host.empty() ? "127.0.0.1" : host,
                                       port);
  }();
  if (tracer != nullptr) {
    obs::Sink sink;
    sink.tracer = tracer.get();
    sink.trace_parent = root_span;
    client.set_obs(sink);
  }

  // Optional request leg (the warm-start smoke path in CI drives warm
  // queries over the socket this way): each JSONL line goes out as one
  // REQ frame before the STAT poll; the loop below prints every REP/ERR
  // payload the server answers with.
  struct OpenRpc {
    std::uint64_t span = 0;
    std::uint64_t t0_ns = 0;
  };
  std::deque<OpenRpc> open_rpcs;  // REPs arrive in admission order
  client.send_header();
  if (const auto requests_path = args.flag("requests")) {
    std::ifstream req(*requests_path);
    if (!req) {
      throw std::invalid_argument("stats: cannot open requests file '" +
                                  *requests_path + "'");
    }
    std::string line;
    while (std::getline(req, line)) {
      if (line.empty()) continue;
      if (tracer != nullptr) {
        const std::uint64_t rpc = tracer->begin_span("client.rpc", root_span);
        open_rpcs.push_back({rpc, clock.now_ns()});
        const std::size_t brace = line.rfind('}');
        if (brace != std::string::npos) {
          line.insert(brace, ",\"trace\":\"" + common::json_escape(trace_id) +
                                 "\",\"span\":" + std::to_string(rpc));
        }
      }
      client.send_frame(service::FrameType::kRequest, line);
    }
  }
  // STAT asks for one mid-stream TELE; END lets the server finish its
  // tail (final TELE + END) and close.
  client.send_frame(service::FrameType::kStat, "");
  client.send_frame(service::FrameType::kEnd, "");

  std::string tele;
  std::string tser;
  std::size_t errors = 0;
  for (;;) {
    const auto frame = client.read_frame();
    if (!frame) break;  // server closed without END: report what we got
    if (frame->type == service::FrameType::kReply) {
      os << frame->payload << '\n';
      if (tracer != nullptr && !open_rpcs.empty()) {
        const OpenRpc rpc = open_rpcs.front();
        open_rpcs.pop_front();
        const auto fields = service::parse_flat_json(frame->payload);
        std::uint64_t t = rpc.t0_ns;
        for (const char* stage :
             {"decode", "queue", "session", "merge", "write"}) {
          const auto it = fields.find(std::string("t_") + stage + "_ns");
          if (it == fields.end()) continue;
          const auto dur =
              static_cast<std::uint64_t>(std::stoull(it->second));
          tracer->add_complete_span(std::string("server.") + stage, rpc.span,
                                    t, dur);
          t += dur;
        }
        tracer->end_span(rpc.span);
      }
    }
    if (frame->type == service::FrameType::kError) {
      os << frame->payload << '\n';
      ++errors;
      if (tracer != nullptr && !open_rpcs.empty()) {
        tracer->end_span(open_rpcs.front().span);
        open_rpcs.pop_front();
      }
    }
    if (frame->type == service::FrameType::kTelemetry && tele.empty()) {
      tele = frame->payload;  // the STAT answer is the first TELE
    }
    if (frame->type == service::FrameType::kTimeSeries) {
      tser = frame->payload;  // keep the freshest snapshot
    }
    if (frame->type == service::FrameType::kEnd) break;
  }
  if (tracer != nullptr) {
    for (const OpenRpc& rpc : open_rpcs) tracer->end_span(rpc.span);
    tracer->end_span(root_span);
  }
  if (tele.empty()) {
    os << "error: no TELE frame received from '" << endpoint << "'\n";
    return 1;
  }
  os << tele << '\n';

  if (args.number_or("series", 0) != 0.0) {
    if (tser.empty()) {
      os << "no TSER frame received (start the server with --series N)\n";
    } else {
      std::istringstream lines(tser);
      std::string line;
      bool header = true;
      while (std::getline(lines, line)) {
        if (line.empty()) continue;
        if (header) {  // {"tser":1,"series":N}
          header = false;
          continue;
        }
        const auto fields = service::parse_flat_json(line);
        const auto name = fields.find("name");
        const auto points_field = fields.find("points");
        if (name == fields.end() || points_field == fields.end()) continue;
        const auto points = obs::parse_timeseries_points(points_field->second);
        os << name->second << " (n=" << fields.at("count") << ", stride "
           << fields.at("stride") << ") " << obs::render_sparkline(points);
        if (!points.empty()) os << " last=" << points.back().last;
        os << '\n';
      }
    }
  }

  if (tracer != nullptr) {
    tracer->flush_exporter();
    if (!trace_file) {
      throw std::runtime_error("stats: writing trace output '" + *trace_out +
                               "' failed");
    }
    os << "wrote trace to " << *trace_out << " (" << tracer->exported_spans()
       << " spans, trace id '" << trace_id << "')\n";
  }
  return errors == 0 ? 0 : 1;
}

namespace {

int cmd_index_build(const ParsedArgs& args, std::ostream& os) {
  const auto checkpoint_dir = args.flag("checkpoint");
  const auto out_path = args.flag("out");
  if (!checkpoint_dir || !out_path) {
    throw std::invalid_argument(
        "index build: --checkpoint dir/ and --out index.bin are required");
  }
  const std::string model_name = args.flag_or("model", "default");
  const std::string cluster_tag = args.flag_or("cluster", "a");
  const auto seeds =
      std::max<std::uint64_t>(1, args.integer_or<std::uint64_t>("seeds", 2));
  const auto steps = args.integer_or<int>("steps", 5);

  service::ModelRegistry registry(*checkpoint_dir);
  const auto version = registry.latest_version(model_name);
  if (!version) {
    throw std::invalid_argument("index build: no published model '" +
                                model_name + "' in the registry");
  }
  // Served sessions on the loaded master, side by side on the pool; no
  // flush ever changes it, so it is dropped unmerged.
  service::StreamingService svc;
  svc.load_model_file(model_name, registry.path_for(model_name, *version));

  std::vector<HiBenchCase> cases;
  const std::string which = args.flag_or("workloads", "all");
  if (which == "all") {
    for (const auto& c : hibench_suite()) cases.push_back(c);
  } else {
    std::istringstream list(which);
    std::string id;
    while (std::getline(list, id, ',')) {
      if (!id.empty()) cases.push_back(hibench_case(id));  // throws on unknown
    }
  }
  if (cases.empty()) {
    throw std::invalid_argument("index build: --workloads selected nothing");
  }

  std::vector<service::TuningRequest> requests;
  for (const auto& c : cases) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      service::TuningRequest request;
      request.id = c.id + "-s" + std::to_string(seed);
      request.workload = c.id;
      request.cluster = cluster_tag;
      request.max_steps = steps;
      request.seed = seed;
      request.model = model_name;
      requests.push_back(std::move(request));
    }
  }
  // Sessions are pure functions of (model, request), and entries go in
  // request order, so the index built here is bit-identical for any pool
  // size and on every machine that holds the same model.
  const auto reports = service::serve_all(svc, std::move(requests));
  retrieval::ExperienceIndex index;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const service::SessionReport& report = reports[i].session;
    if (!report.ok) {
      os << "error: session " << report.id << " failed: " << report.error
         << '\n';
      return 1;
    }
    index.add(retrieval::entry_from_report(
        cases[i / seeds], i % seeds + 1, report.report));
  }

  service::save_index_file(*out_path, index);
  os << "built index: " << index.size() << " entries (" << cases.size()
     << " workloads x " << seeds << " seeds, " << steps
     << " steps each), embedding dim " << retrieval::kEmbeddingDim
     << ", wrote " << *out_path << '\n';
  return 0;
}

int cmd_index_query(const ParsedArgs& args, std::ostream& os) {
  const auto index_path = args.flag("index");
  const auto workload = args.flag("workload");
  if (!index_path || !workload) {
    throw std::invalid_argument(
        "index query: --index index.bin and --workload TS-D1 are required");
  }
  const auto k =
      args.integer_or<std::size_t>("k", retrieval::kDefaultNeighbors);
  const retrieval::Metric metric =
      retrieval::metric_from_name(args.flag_or("metric", "cosine"));

  const retrieval::ExperienceIndex index =
      service::load_index_file(*index_path);
  const HiBenchCase& c = hibench_case(*workload);
  const std::vector<retrieval::Neighbor> neighbors =
      index.query_case(c, k, metric);
  if (neighbors.empty()) {
    os << "error: index '" << *index_path << "' has no entries\n";
    return 1;
  }

  if (args.number_or("json", 0) != 0.0) {
    os.precision(17);
    std::size_t rank = 0;
    for (const auto& nb : neighbors) {
      const retrieval::ExperienceEntry& e = index.entries()[nb.entry];
      os << "{\"rank\":" << rank++ << ",\"workload\":\""
         << common::json_escape(e.workload) << "\",\"seed\":" << e.seed
         << ",\"distance\":" << nb.distance
         << ",\"best_cost\":" << e.best_cost
         << ",\"default_cost\":" << e.default_cost << "}\n";
    }
    return 0;
  }
  common::Table t(std::string("nearest neighbors (") +
                  retrieval::metric_name(metric) + ")");
  t.header({"rank", "workload", "seed", "distance", "best (s)", "speedup"});
  std::size_t rank = 0;
  for (const auto& nb : neighbors) {
    const retrieval::ExperienceEntry& e = index.entries()[nb.entry];
    const double speedup =
        e.best_cost > 0.0 ? e.default_cost / e.best_cost : 0.0;
    t.row({common::cell(rank++), e.workload, common::cell(e.seed),
           common::cell(nb.distance, 6), common::cell(e.best_cost, 1),
           common::speedup_cell(speedup)});
  }
  t.print(os);
  return 0;
}

}  // namespace

int cmd_index(const ParsedArgs& args, std::ostream& os) {
  if (args.subcommand == "build") return cmd_index_build(args, os);
  if (args.subcommand == "query") return cmd_index_query(args, os);
  throw std::invalid_argument("index: unknown subcommand '" +
                              args.subcommand + "' (use build or query)");
}

namespace {

/// The flags each command reads ("index build" with its subcommand, "serve
/// --stream" for the wire server). run_cli rejects any other flag before
/// the command runs, so a misspelt --master-step fails instead of serving
/// the default. "set" is the repeatable --set knob=value.
const std::map<std::string_view, std::vector<std::string_view>>&
flags_read() {
  static const std::map<std::string_view, std::vector<std::string_view>>
      table = {
          {"info", {"json", "threads"}},
          {"knobs", {}},
          {"suite", {}},
          {"simulate", {"cluster", "runs", "seed", "set", "size", "workload"}},
          {"tune",
           {"cluster", "export", "offline-iters", "seed", "size", "steps",
            "workload"}},
          {"serve",
           {"checkpoint", "cluster", "master-steps", "model", "out",
            "publish", "requests", "seed", "stream", "threads",
            "train-iters", "train-size", "train-workload"}},
          {"serve --stream",
           {"checkpoint",   "clock",        "cluster",     "drain-timeout",
            "http",         "idle-timeout", "in",          "master-steps",
            "max-conns",    "max-inflight", "max-models",  "metrics-out",
            "model",        "out",          "reply-timings", "requests",
            "seed",         "series",       "shards",      "socket",
            "stream",       "tcp",          "tele-every",  "threads",
            "trace-out",    "train-iters",  "train-size",  "train-workload",
            "warm-index"}},
          {"stats",
           {"requests", "series", "socket", "tcp", "trace-id", "trace-out"}},
          {"index build",
           {"checkpoint", "cluster", "model", "out", "seeds", "steps",
            "workloads"}},
          {"index query", {"index", "json", "k", "metric", "workload"}},
      };
  return table;
}

}  // namespace

void check_flags(const ParsedArgs& args) {
  std::string command = args.command;
  if (!args.subcommand.empty()) command += " " + args.subcommand;
  if (command == "serve" && args.number_or("stream", 0) != 0.0) {
    command += " --stream";
  }
  const auto it = flags_read().find(command);
  if (it == flags_read().end()) return;  // usage or a subcommand error
  const auto reads = [&](std::string_view flag) {
    return std::find(it->second.begin(), it->second.end(), flag) !=
           it->second.end();
  };
  for (const auto& [name, value] : args.flags) {
    if (!reads(name)) {
      throw std::invalid_argument(command + ": unknown flag --" + name);
    }
  }
  if (!args.assignments.empty() && !reads("set")) {
    throw std::invalid_argument(command + ": unknown flag --set");
  }
}

int run_cli(const std::vector<std::string>& argv, std::ostream& os) {
  try {
    const ParsedArgs args = parse_args(argv);
    if (!args.subcommand.empty() && args.command != "index") {
      throw std::invalid_argument("unexpected positional argument '" +
                                  args.subcommand + "'");
    }
    check_flags(args);
    if (args.command == "info") return cmd_info(args, os);
    if (args.command == "knobs") return cmd_knobs(args, os);
    if (args.command == "suite") return cmd_suite(args, os);
    if (args.command == "simulate") return cmd_simulate(args, os);
    if (args.command == "tune") return cmd_tune(args, os);
    if (args.command == "serve") return cmd_serve(args, os);
    if (args.command == "stats") return cmd_stats(args, os);
    if (args.command == "index") return cmd_index(args, os);
    print_usage(os);
    return args.command.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    os << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace deepcat::cli
