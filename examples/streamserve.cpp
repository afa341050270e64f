// Streamserve: the multi-model streaming side of `deepcat serve --stream`.
// Requests route to named master models; each report comes back through
// its request's completion callback (collected here in request order), and
// a flush merges the sessions' experience so the master keeps learning
// between requests (continuous master updates). It finishes by driving the
// same requests through the framed DCWP wire protocol, client-side,
// against the epoll front end serving an in-process byte stream.
//
//   $ ./streamserve
#include <cstdio>
#include <sstream>
#include <vector>

#include "net/server.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"
#include "sparksim/workloads.hpp"

int main() {
  using namespace deepcat;
  using sparksim::WorkloadType;

  // 1. A streaming service routes requests to named master models; train
  //    one model per workload family to show the multi-model routing.
  service::StreamingOptions options;
  options.service.threads = 4;
  options.service.api.tuner.seed = 7;
  options.master_update_steps = 4;  // fine-tune steps after each merge
  service::StreamingService svc(options);

  std::puts("training models 'sort' and 'graph'...");
  svc.train_model("sort", sparksim::make_workload(WorkloadType::kTeraSort, 3.2),
                  400);
  svc.train_model("graph",
                  sparksim::make_workload(WorkloadType::kPageRank, 0.5), 400);

  // 2. Submit the requests; they run side by side on the pool, and the
  //    collector hands the reports back in request order. Each carries
  //    the model epoch it was served against.
  const char* suite[] = {"TS-D1", "PR-D1", "TS-D2", "PR-D2"};
  std::size_t seq = 0;
  std::vector<service::TuningRequest> requests;
  for (const char* id : suite) {
    service::TuningRequest r;
    r.id = std::string("req-") + id;
    r.workload = id;
    r.model = (id[0] == 'T') ? "sort" : "graph";
    r.max_steps = 4;
    r.seed = 100 + seq++;
    requests.push_back(std::move(r));
  }

  std::puts("\nid        model  epoch  best(s)  speedup");
  for (const auto& report : service::serve_all(svc, std::move(requests))) {
    const auto& s = report.session;
    if (!s.ok) {
      std::printf("%-9s %-6s FAILED: %s\n", s.id.c_str(), s.model.c_str(),
                  s.error.c_str());
      continue;
    }
    std::printf("%-9s %-6s %5llu %8.1f %7.2fx\n", s.id.c_str(),
                s.model.c_str(),
                static_cast<unsigned long long>(report.model_epoch),
                s.report.best_time, s.report.speedup_over_default());
  }

  // 3. Flush: merge every session's experience into its master (canonical
  //    order, so the result is independent of arrival order), take the
  //    bounded fine-tune steps, and advance the model epochs.
  const std::size_t merged = svc.flush();
  std::printf("\nflush merged %zu transitions; epochs now sort=%llu graph=%llu\n",
              merged, static_cast<unsigned long long>(svc.model_epoch("sort")),
              static_cast<unsigned long long>(svc.model_epoch("graph")));

  // 4. The same conversation over the framed wire protocol: encode REQ
  //    frames (JSONL payloads), serve them as one front-end connection,
  //    decode the REP frames.
  std::vector<std::pair<service::FrameType, std::string>> frames;
  for (const char* id : suite) {
    std::string payload = std::string("{\"id\":\"wire-") + id +
                          "\",\"workload\":\"" + id + "\",\"model\":\"" +
                          ((id[0] == 'T') ? "sort" : "graph") +
                          "\",\"steps\":3,\"seed\":" + std::to_string(7 + seq++) +
                          "}";
    frames.emplace_back(service::FrameType::kRequest, std::move(payload));
  }
  frames.emplace_back(service::FrameType::kEnd, std::string());

  std::istringstream wire_in(service::encode_frames(frames));
  std::ostringstream wire_out;
  net::serve_stream(wire_in, wire_out, svc, net::FrontEndOptions{});

  // The front end counted the stream into the service's registry.
  obs::MetricsRegistry& counts = svc.metrics_registry();
  std::printf("\nwire stream: %llu requests, %llu failed, clean_end=%d\n",
              static_cast<unsigned long long>(
                  counts.counter("net.requests").value()),
              static_cast<unsigned long long>(
                  counts.counter("net.failed_sessions").value()),
              static_cast<int>(counts.counter("net.clean_ends").value() == 1));
  for (const auto& frame : service::decode_frames(wire_out.str())) {
    std::printf("  %-4s %s\n",
                service::frame_type_name(
                    static_cast<std::uint32_t>(frame.type)).c_str(),
                frame.payload.substr(0, 100).c_str());
  }

  const auto m = svc.metrics();
  std::printf(
      "\nserved %zu sessions (%zu failed), p50/p95 recommendation cost "
      "%.4f/%.4f s, mean speedup %.2fx\n",
      m.sessions_served, m.sessions_failed, m.p50_recommendation_seconds,
      m.p95_recommendation_seconds, m.mean_speedup);
  return 0;
}
