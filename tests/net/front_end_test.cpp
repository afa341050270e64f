// FrontEnd behavior over real sockets: round trips on both transports,
// slot-order reply release, typed (never silent) overload rejection at
// both caps, wire-robustness isolation (oversized frames and midstream
// disconnects kill only their own connection), the deferred FLSH barrier,
// graceful drain, idle/drain timeouts, a 256-connection fan-in with zero
// silent drops, and the byte-stream bridge under a 5,000-request load.
//
// All tests use the deterministic fake session runner: FrontEnd semantics
// do not depend on model float math, and the fake keeps the suite fast.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "service/jsonl.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"

namespace deepcat::net {
namespace {

using service::Frame;
using service::FrameType;
using service::StreamReport;
using service::TuningRequest;

service::StreamingOptions fake_options(std::size_t threads) {
  service::StreamingOptions o;
  o.service.threads = threads;
  o.build_info = obs::BuildInfo{"golden", "pinned", false, 1};
  return o;
}

service::SessionReport fake_report(const TuningRequest& r) {
  service::SessionReport report;
  report.id = r.id;
  report.workload = r.workload;
  report.cluster = r.cluster;
  report.ok = true;
  report.report.default_time = 100.0;
  report.report.best_time = 80.0;
  return report;
}

/// Holds fake sessions hostage until the test releases them.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<std::size_t> entered{0};

  void release() {
    {
      std::scoped_lock lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait_inside() {
    ++entered;
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
  void wait_entered(std::size_t n) {
    while (entered.load() < n) std::this_thread::yield();
  }
};

std::string request_json(const std::string& id) {
  return "{\"id\":\"" + id + "\",\"workload\":\"TS-D1\",\"steps\":2}";
}

std::vector<Frame> read_until_end(BlockingClient& client) {
  std::vector<Frame> frames;
  while (auto frame = client.read_frame()) {
    const bool end = frame->type == FrameType::kEnd;
    frames.push_back(*std::move(frame));
    if (end) break;
  }
  return frames;
}

std::size_t count_type(const std::vector<Frame>& frames, FrameType type) {
  std::size_t n = 0;
  for (const auto& f : frames) n += f.type == type ? 1 : 0;
  return n;
}

std::string unique_socket_path(const std::string& tag) {
  return ::testing::TempDir() + "dcfe_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// One HTTP exchange with the observability port: sends `request` (if
/// any) and returns everything the server wrote before it closed.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  auto client = BlockingClient::to_tcp("127.0.0.1", port);
  if (!request.empty()) {
    EXPECT_EQ(
        ::send(client.fd(), request.data(), request.size(), MSG_NOSIGNAL),
        static_cast<ssize_t>(request.size()));
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(client.fd(), buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\n\r\n");
}

/// The status code and the body of an HTTP response.
std::pair<int, std::string> http_status_and_body(const std::string& response) {
  const std::size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 ", 0) != 0 || body == std::string::npos) {
    ADD_FAILURE() << "not an HTTP response: " << response;
    return {0, ""};
  }
  return {std::stoi(response.substr(9, 3)), response.substr(body + 4)};
}

/// Counter values by name: what a run counted into its service's registry.
using Counts = std::map<std::string, std::uint64_t>;

Counts counts_of(const service::StreamingService& svc) {
  Counts counts;
  for (const obs::MetricSnapshot& m : svc.metrics_registry().snapshot()) {
    if (m.kind == obs::MetricKind::kCounter) counts[m.name] = m.counter_value;
  }
  return counts;
}

/// Runs a FrontEnd on its own thread; the test thread plays the clients.
class TestServer {
 public:
  TestServer(service::StreamingService& svc, FrontEndOptions options)
      : svc_(svc),
        front_end_(svc, std::move(options)),
        thread_([this] { front_end_.run(); }) {}

  ~TestServer() { join(); }

  FrontEnd& front_end() { return front_end_; }
  [[nodiscard]] std::uint16_t tcp_port() const noexcept {
    return front_end_.tcp_port();
  }
  [[nodiscard]] std::uint16_t http_port() const noexcept {
    return front_end_.http_port();
  }

  /// Requests shutdown (if still running) and returns the final counts.
  Counts finish() {
    front_end_.request_shutdown();
    join();
    return counts_of(svc_);
  }

 private:
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  service::StreamingService& svc_;
  FrontEnd front_end_;
  std::thread thread_;
};

TEST(FrontEndTest, UnixAndTcpRoundTripWithStatPoll) {
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("roundtrip");
  options.tcp_port = 0;
  TestServer server(svc, options);

  auto unix_client = BlockingClient::to_unix(options.unix_path);
  unix_client.send_header();
  unix_client.send_frame(FrameType::kRequest, request_json("u-0"));
  unix_client.send_frame(FrameType::kRequest, request_json("u-1"));
  unix_client.send_frame(FrameType::kStat, "");
  unix_client.send_frame(FrameType::kRequest, request_json("u-2"));
  unix_client.send_frame(FrameType::kEnd, "");
  const auto unix_frames = read_until_end(unix_client);

  ASSERT_GT(server.tcp_port(), 0);
  auto tcp_client = BlockingClient::to_tcp("127.0.0.1", server.tcp_port());
  tcp_client.send_header();
  tcp_client.send_frame(FrameType::kRequest, request_json("t-0"));
  tcp_client.send_frame(FrameType::kEnd, "");
  const auto tcp_frames = read_until_end(tcp_client);

  const Counts stats = server.finish();

  // Unix transcript: replies in admission order, then TELE + END.
  std::vector<std::string> reply_ids;
  for (const auto& f : unix_frames) {
    if (f.type == FrameType::kReply) {
      for (const char* id : {"u-0", "u-1", "u-2"}) {
        if (f.payload.find("\"id\":\"" + std::string(id) + "\"") !=
            std::string::npos) {
          reply_ids.emplace_back(id);
        }
      }
    }
  }
  EXPECT_EQ(reply_ids, (std::vector<std::string>{"u-0", "u-1", "u-2"}));
  // STAT answers with the global TELE; the END tail adds the
  // connection-scoped TELE.
  EXPECT_EQ(count_type(unix_frames, FrameType::kTelemetry), 2u);
  EXPECT_EQ(unix_frames.back().type, FrameType::kEnd);
  EXPECT_EQ(count_type(unix_frames, FrameType::kError), 0u);

  EXPECT_EQ(count_type(tcp_frames, FrameType::kReply), 1u);
  EXPECT_EQ(tcp_frames.back().type, FrameType::kEnd);

  EXPECT_EQ(stats.at("net.accepted"), 2u);
  EXPECT_EQ(stats.at("net.requests"), 4u);
  EXPECT_EQ(stats.at("net.replies"), 4u);
  EXPECT_EQ(stats.at("net.clean_ends"), 2u);
  EXPECT_EQ(stats.at("net.failed_sessions"), 0u);
  EXPECT_EQ(stats.at("net.stat_polls"), 1u);
  EXPECT_EQ(stats.at("net.rejected_overload"), 0u);
  EXPECT_EQ(stats.at("net.forced_closes"), 0u);
}

TEST(FrontEndTest, RepliesAreReleasedInAdmissionOrder) {
  // req-0 is held hostage while req-1/req-2 complete; their replies must
  // still come out 0, 1, 2.
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(3));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "req-0") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("order");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("req-0"));
  client.send_frame(FrameType::kRequest, request_json("req-1"));
  client.send_frame(FrameType::kRequest, request_json("req-2"));
  client.send_frame(FrameType::kEnd, "");

  // Wait until req-0 is parked, then let req-1/req-2 drain through the
  // pool first.
  gate->wait_entered(1);
  while (svc.in_flight() > 1) std::this_thread::yield();
  gate->release();

  const auto frames = read_until_end(client);
  (void)server.finish();
  std::vector<std::size_t> reply_positions;
  std::vector<std::string> ids;
  for (const auto& f : frames) {
    if (f.type != FrameType::kReply) continue;
    for (const char* id : {"req-0", "req-1", "req-2"}) {
      if (f.payload.find("\"id\":\"" + std::string(id) + "\"") !=
          std::string::npos) {
        ids.emplace_back(id);
      }
    }
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"req-0", "req-1", "req-2"}));
}

TEST(FrontEndTest, ConnectionCapRejectsWithTypedError) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("conncap");
  options.max_connections = 1;
  TestServer server(svc, options);

  auto first = BlockingClient::to_unix(options.unix_path);
  first.send_header();
  // A STAT round trip proves the server has ACCEPTED first before the
  // second client arrives (connect() alone only proves the backlog took
  // it).
  first.send_frame(FrameType::kStat, "");
  const auto stat_reply = first.read_frame();
  ASSERT_TRUE(stat_reply.has_value());
  EXPECT_EQ(stat_reply->type, FrameType::kTelemetry);

  auto second = BlockingClient::to_unix(options.unix_path);
  const auto frames = read_until_end(second);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("overloaded: connection limit reached"),
            std::string::npos)
      << frames[0].payload;
  EXPECT_EQ(frames[1].type, FrameType::kEnd);

  first.send_frame(FrameType::kEnd, "");
  const auto tail = read_until_end(first);
  EXPECT_EQ(tail.back().type, FrameType::kEnd);

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.accepted"), 1u);
  EXPECT_EQ(stats.at("net.rejected_overload"), 1u);
  EXPECT_EQ(stats.at("net.clean_ends"), 1u);
}

TEST(FrontEndTest, InflightCapRejectsRequestsWithTypedError) {
  auto gate = std::make_shared<Gate>();
  obs::MetricsRegistry registry;
  service::StreamingOptions streaming = fake_options(2);
  streaming.service.obs.metrics = &registry;
  service::StreamingService svc(streaming);
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("inflight");
  options.max_inflight = 1;
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("req-0"));
  client.send_frame(FrameType::kRequest, request_json("req-1"));
  client.send_frame(FrameType::kRequest, request_json("req-2"));

  // req-1 and req-2 are refused at parse time, while req-0 is hostage;
  // their ERRs take their slots behind req-0's REP.
  const obs::Counter& refused = registry.counter("net.overloaded_requests");
  while (refused.value() != 2) std::this_thread::yield();
  gate->release();
  const auto reply = client.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kReply);
  EXPECT_NE(reply->payload.find("\"id\":\"req-0\""), std::string::npos);
  for (int i = 1; i <= 2; ++i) {
    const auto err = client.read_frame();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, FrameType::kError);
    EXPECT_NE(err->payload.find("request " + std::to_string(i) +
                                ": overloaded: in-flight limit reached"),
              std::string::npos)
        << err->payload;
  }
  client.send_frame(FrameType::kEnd, "");
  const auto tail = read_until_end(client);
  EXPECT_EQ(tail.back().type, FrameType::kEnd);

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.requests"), 3u);
  EXPECT_EQ(stats.at("net.replies"), 1u);
  EXPECT_EQ(stats.at("net.overloaded_requests"), 2u);
  EXPECT_EQ(stats.at("net.failed_sessions"), 0u);
}

TEST(FrontEndTest, DuplicateRequestKeyGetsTypedErrorAndTheConnCarriesOn) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("dupkey");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest,
                    R"({"id":"dup","workload":"TS-D1","steps":1,"steps":9})");
  client.send_frame(FrameType::kRequest, request_json("after"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  ASSERT_GE(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find(
                R"(request 0: malformed JSON: duplicate key \"steps\")"),
            std::string::npos)
      << frames[0].payload;
  EXPECT_EQ(frames[1].type, FrameType::kReply);
  EXPECT_NE(frames[1].payload.find("\"id\":\"after\""), std::string::npos);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.requests"), 2u);
  EXPECT_EQ(stats.at("net.replies"), 1u);
  EXPECT_EQ(stats.at("net.parse_errors"), 1u);
}

TEST(FrontEndTest, OversizedFrameGetsTypedErrorAndSparesOtherConns) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("oversize");
  TestServer server(svc, options);

  auto healthy = BlockingClient::to_unix(options.unix_path);
  healthy.send_header();

  auto hostile = BlockingClient::to_unix(options.unix_path);
  hostile.send_header();
  // A 12-byte frame head claiming 16 MiB + 1 of payload; the server must
  // reject at the head without ever waiting for the bytes.
  std::string head;
  const auto tag = static_cast<std::uint32_t>(FrameType::kRequest);
  for (int i = 0; i < 4; ++i) {
    head.push_back(static_cast<char>((tag >> (8 * i)) & 0xffu));
  }
  const std::uint64_t huge = service::kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i) {
    head.push_back(static_cast<char>((huge >> (8 * i)) & 0xffu));
  }
  ASSERT_EQ(::send(hostile.fd(), head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  const auto frames = read_until_end(hostile);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("claims"), std::string::npos)
      << frames[0].payload;
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  // The hostile connection died alone: the healthy one still serves.
  healthy.send_frame(FrameType::kRequest, request_json("alive"));
  healthy.send_frame(FrameType::kEnd, "");
  const auto ok_frames = read_until_end(healthy);
  EXPECT_EQ(count_type(ok_frames, FrameType::kReply), 1u);
  EXPECT_EQ(ok_frames.back().type, FrameType::kEnd);

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.protocol_errors"), 1u);
  EXPECT_EQ(stats.at("net.replies"), 1u);
  EXPECT_EQ(stats.at("net.clean_ends"), 1u);
}

TEST(FrontEndTest, MidstreamDisconnectDoesNotPoisonOtherConnections) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("midstream");
  TestServer server(svc, options);

  // Flavor 1 — half-close: the peer stops sending mid-frame but still
  // reads. The server must answer with the stream reader's typed
  // truncation ERR and a decodable tail.
  auto truncating = BlockingClient::to_unix(options.unix_path);
  truncating.send_header();
  const std::string bytes =
      service::encode_frame(FrameType::kRequest, request_json("never"));
  ASSERT_EQ(::send(truncating.fd(), bytes.data(), bytes.size() / 2,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() / 2));
  truncating.shutdown_writes();
  const auto err_frames = read_until_end(truncating);
  ASSERT_GE(err_frames.size(), 2u);
  EXPECT_EQ(err_frames[0].type, FrameType::kError);
  EXPECT_NE(err_frames[0].payload.find("truncated wire stream inside a frame"),
            std::string::npos)
      << err_frames[0].payload;
  EXPECT_EQ(err_frames.back().type, FrameType::kEnd);

  // Flavor 2 — hard close: the peer vanishes entirely (its unread greeting
  // turns the server's read into ECONNRESET). Transport reset, not a
  // protocol error; teardown must be clean either way.
  auto vanishing = BlockingClient::to_unix(options.unix_path);
  vanishing.send_header();
  ASSERT_EQ(::send(vanishing.fd(), bytes.data(), bytes.size() / 2,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() / 2));
  vanishing.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto healthy = BlockingClient::to_unix(options.unix_path);
  healthy.send_header();
  healthy.send_frame(FrameType::kRequest, request_json("alive"));
  healthy.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(healthy);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.protocol_errors"), 1u)
      << "flavor 1 only; resets don't count";
  EXPECT_EQ(stats.at("net.replies"), 1u);
  EXPECT_EQ(stats.at("net.failed_sessions"), 0u);
}

TEST(FrontEndTest, FlushBarrierAcksWithConnectionTele) {
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("flush");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("pre"));
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  (void)server.finish();

  // REP(pre), TELE (flush ack), REP(post), TELE, END.
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kEnd}));
  EXPECT_NE(frames[0].payload.find("\"id\":\"pre\""), std::string::npos);
  EXPECT_NE(frames[2].payload.find("\"id\":\"post\""), std::string::npos);
}

TEST(FrontEndTest, BackToBackFlushBarriersBothAck) {
  // Regression: a FLSH decoded while re-pumping buffered frames after a
  // barrier re-parks the connection AFTER flush_waiters_ was reset; the
  // barrier must be re-evaluated, not left stranded in epoll_wait (this
  // test used to hang the loop forever).
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("flushflush");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("pre"));
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kFlush, "");
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  (void)server.finish();

  // REP(pre), TELE, TELE (each barrier acks), REP(post), TELE, END.
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kTelemetry, FrameType::kReply,
                       FrameType::kTelemetry, FrameType::kEnd}));
}

TEST(FrontEndTest, FramesBufferedDuringBarrierAreServedAfterResume) {
  // While a FLSH barrier holds the global pause, reads are deasserted, so
  // frames sent mid-barrier wait in the kernel socket buffer (bounded)
  // rather than the decoder backlog (unbounded). They must all be served
  // once the barrier resolves and reads re-arm.
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "slow") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("pausedreads");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("slow"));
  client.send_frame(FrameType::kFlush, "");
  gate->wait_entered(1);
  // The barrier is pending (the session is hostage). These frames arrive
  // mid-pause.
  client.send_frame(FrameType::kRequest, request_json("post"));
  client.send_frame(FrameType::kEnd, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();

  const auto frames = read_until_end(client);
  (void)server.finish();
  std::vector<FrameType> types;
  for (const auto& f : frames) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kEnd}));
}

TEST(FrontEndTest, AbandonedFlushBarrierUnblocksOtherConnections) {
  // A client that sends FLSH and vanishes must not leave the global
  // admission pause wedged: the loop must notice the barrier dissolved
  // (no waiters left) and resume everyone else's reads and buffered
  // frames even though no merge ran.
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "slow") gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("flushabandon");
  TestServer server(svc, options);

  auto worker = BlockingClient::to_unix(options.unix_path);
  worker.send_header();
  worker.send_frame(FrameType::kRequest, request_json("slow"));
  gate->wait_entered(1);

  // Parks a barrier behind the hostage session, then vanishes.
  auto flusher = BlockingClient::to_unix(options.unix_path);
  flusher.send_header();
  flusher.send_frame(FrameType::kFlush, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // A bystander whose frames land while the pause is in force.
  auto bystander = BlockingClient::to_unix(options.unix_path);
  bystander.send_header();
  bystander.send_frame(FrameType::kRequest, request_json("by-0"));
  bystander.send_frame(FrameType::kEnd, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  flusher.close();

  // The bystander must be served while "slow" is STILL hostage: the
  // pause ended with the flusher, not with the merge.
  const auto frames = read_until_end(bystander);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  EXPECT_EQ(count_type(frames, FrameType::kError), 0u);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);

  gate->release();
  const auto reply = worker.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kReply);
  worker.send_frame(FrameType::kEnd, "");
  const auto tail = read_until_end(worker);
  EXPECT_EQ(tail.back().type, FrameType::kEnd);
  (void)server.finish();
}

TEST(FrontEndTest, TcpHostnamesResolveViaGetaddrinfo) {
  // --tcp documents host:port; names (not just IPv4 literals) must bind
  // and connect. 'localhost' goes through getaddrinfo like any name.
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.tcp_host = "localhost";
  options.tcp_port = 0;
  TestServer server(svc, options);
  ASSERT_GT(server.tcp_port(), 0);

  auto client = BlockingClient::to_tcp("localhost", server.tcp_port());
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("named"));
  client.send_frame(FrameType::kEnd, "");
  const auto frames = read_until_end(client);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  EXPECT_EQ(frames.back().type, FrameType::kEnd);
  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.replies"), 1u);
}

TEST(FrontEndTest, GracefulDrainFlushesInFlightRepliesAndTails) {
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("drain");
  options.drain_timeout_seconds = 30.0;
  TestServer server(svc, options);

  auto a = BlockingClient::to_unix(options.unix_path);
  a.send_header();
  a.send_frame(FrameType::kRequest, request_json("a-0"));
  auto b = BlockingClient::to_unix(options.unix_path);
  b.send_header();
  b.send_frame(FrameType::kRequest, request_json("b-0"));

  gate->wait_entered(2);
  server.front_end().request_shutdown();
  gate->release();

  for (auto* client : {&a, &b}) {
    const auto frames = read_until_end(*client);
    EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
    EXPECT_EQ(count_type(frames, FrameType::kTelemetry), 1u);
    EXPECT_EQ(frames.back().type, FrameType::kEnd);
  }
  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.replies"), 2u);
  EXPECT_EQ(stats.at("net.forced_closes"), 0u);
  EXPECT_EQ(stats.at("net.clean_ends"), 0u) << "neither client ever sent END";
}

TEST(FrontEndTest, DrainTimeoutForceClosesAndCountsStragglers) {
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("draintimeout");
  options.drain_timeout_seconds = 0.2;
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("stuck"));
  gate->wait_entered(1);
  server.front_end().request_shutdown();
  // Let the 200 ms drain window lapse with the session still hostage,
  // then release it so run() can retire the zombie and return.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  gate->release();

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.forced_closes"), 1u);
  EXPECT_EQ(stats.at("net.replies"), 0u)
      << "the peer was cut off before the reply";
}

TEST(FrontEndTest, IdleConnectionsTimeOutWithTypedError) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("idle");
  options.idle_timeout_seconds = 0.15;
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  const auto frames = read_until_end(client);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_NE(frames[0].payload.find("idle timeout"), std::string::npos);
  EXPECT_EQ(frames[1].type, FrameType::kEnd);

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.idle_timeouts"), 1u);
}

TEST(FrontEndTest, ServesHundredsOfConcurrentMixedConnections) {
  // The acceptance bar: >= 256 simultaneously open connections across
  // both transports, every one answered, zero silent drops.
  constexpr std::size_t kPerTransport = 128;
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("fanin");
  options.tcp_port = 0;
  options.max_connections = 2 * kPerTransport + 8;
  options.max_inflight = 4096;
  TestServer server(svc, options);
  ASSERT_GT(server.tcp_port(), 0);

  // Open every connection and send every request BEFORE reading any
  // reply, so all 256 are in flight at once.
  std::vector<std::unique_ptr<BlockingClient>> clients;
  clients.reserve(2 * kPerTransport);
  for (std::size_t i = 0; i < 2 * kPerTransport; ++i) {
    const bool tcp = i % 2 == 1;
    clients.push_back(std::make_unique<BlockingClient>(
        tcp ? BlockingClient::to_tcp("127.0.0.1", server.tcp_port())
            : BlockingClient::to_unix(options.unix_path)));
    auto& client = *clients.back();
    client.send_header();
    client.send_frame(FrameType::kRequest,
                      request_json("conn-" + std::to_string(i)));
    client.send_frame(FrameType::kEnd, "");
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto frames = read_until_end(*clients[i]);
    EXPECT_EQ(count_type(frames, FrameType::kError), 0u) << "conn " << i;
    ASSERT_EQ(count_type(frames, FrameType::kReply), 1u) << "conn " << i;
    bool found = false;
    for (const auto& f : frames) {
      if (f.type == FrameType::kReply &&
          f.payload.find("\"id\":\"conn-" + std::to_string(i) + "\"") !=
              std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "conn " << i << " must get ITS reply";
    EXPECT_EQ(frames.back().type, FrameType::kEnd) << "conn " << i;
  }

  const Counts stats = server.finish();
  EXPECT_EQ(stats.at("net.accepted"), 2 * kPerTransport);
  EXPECT_EQ(stats.at("net.requests"), 2 * kPerTransport);
  EXPECT_EQ(stats.at("net.replies"), 2 * kPerTransport);
  EXPECT_EQ(stats.at("net.clean_ends"), 2 * kPerTransport);
  EXPECT_EQ(stats.at("net.rejected_overload"), 0u);
  EXPECT_EQ(stats.at("net.overloaded_requests"), 0u);
  EXPECT_EQ(stats.at("net.failed_sessions"), 0u);
  EXPECT_EQ(stats.at("net.forced_closes"), 0u);
}

TEST(FrontEndTest, StatCarriesInstrumentsWithoutACallerRegistry) {
  // The service was given no registry: it counts into its own, and STAT
  // answers with the aggregate line plus every instrument.
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("ownregistry");
  TestServer server(svc, options);

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("counted"));
  const auto reply = client.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kReply);
  client.send_frame(FrameType::kStat, "");
  const auto tele = client.read_frame();
  ASSERT_TRUE(tele.has_value());
  ASSERT_EQ(tele->type, FrameType::kTelemetry);
  std::map<std::string, std::string> values;
  std::istringstream lines(tele->payload);
  for (std::string line; std::getline(lines, line);) {
    for (const char* name : {"stream.requests_admitted", "net.accepted"}) {
      if (line.find("\"name\":\"" + std::string(name) + "\"") !=
          std::string::npos) {
        values[name] = service::parse_flat_json(line).at("value");
      }
    }
  }
  EXPECT_EQ(values["stream.requests_admitted"], "1") << tele->payload;
  EXPECT_EQ(values["net.accepted"], "1") << tele->payload;
  client.send_frame(FrameType::kEnd, "");
  (void)read_until_end(client);
  (void)server.finish();
}

TEST(FrontEndTest, ScriptedRunOverBothTransportsCountsEveryEvent) {
  // One script touches every DCWP count: a STAT on each transport, a
  // connection past the cap, a corrupt frame, a request past the in-flight
  // cap, a malformed request, a FLSH, a failed session, a clean END and an
  // idle timeout. The net.* counters must read what the front end's own
  // per-run tally read for the same script.
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(2));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    if (r.id == "slow") gate->wait_inside();
    service::SessionReport report = fake_report(r);
    report.ok = r.id != "fail";
    return report;
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("script");
  options.tcp_port = 0;
  options.max_connections = 2;
  options.max_inflight = 1;
  options.idle_timeout_seconds = 1.0;
  TestServer server(svc, options);
  ASSERT_GT(server.tcp_port(), 0);

  // A STAT round trip on each transport proves both are accepted.
  auto a = BlockingClient::to_unix(options.unix_path);
  a.send_header();
  a.send_frame(FrameType::kStat, "");
  ASSERT_EQ(a.read_frame()->type, FrameType::kTelemetry);
  auto b = BlockingClient::to_tcp("127.0.0.1", server.tcp_port());
  b.send_header();
  b.send_frame(FrameType::kStat, "");
  ASSERT_EQ(b.read_frame()->type, FrameType::kTelemetry);

  auto refused = BlockingClient::to_unix(options.unix_path);
  EXPECT_EQ(read_until_end(refused).front().type, FrameType::kError);

  std::string corrupt =
      service::encode_frame(FrameType::kRequest, request_json("torn"));
  corrupt.back() ^= 0x01;  // the CRC
  ASSERT_EQ(::send(b.fd(), corrupt.data(), corrupt.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(corrupt.size()));
  const auto b_tail = read_until_end(b);
  EXPECT_EQ(count_type(b_tail, FrameType::kError), 1u);

  a.send_frame(FrameType::kRequest, request_json("slow"));
  gate->wait_entered(1);
  a.send_frame(FrameType::kRequest, request_json("over"));
  // Both slots are taken before the hostage goes: the refusal is decided.
  while (svc.metrics_registry().counter("net.requests").value() != 2) {
    std::this_thread::yield();
  }
  gate->release();
  EXPECT_EQ(a.read_frame()->type, FrameType::kReply);
  EXPECT_EQ(a.read_frame()->type, FrameType::kError);
  a.send_frame(FrameType::kRequest, "{\"id\":");
  a.send_frame(FrameType::kFlush, "");
  a.send_frame(FrameType::kRequest, request_json("fail"));
  a.send_frame(FrameType::kEnd, "");
  std::vector<FrameType> types;
  for (const auto& f : read_until_end(a)) types.push_back(f.type);
  EXPECT_EQ(types, (std::vector<FrameType>{
                       FrameType::kError, FrameType::kTelemetry,
                       FrameType::kReply, FrameType::kTelemetry,
                       FrameType::kEnd}));

  auto idle = BlockingClient::to_tcp("127.0.0.1", server.tcp_port());
  idle.send_header();
  const auto idle_frames = read_until_end(idle);
  ASSERT_EQ(idle_frames.size(), 2u);
  EXPECT_NE(idle_frames[0].payload.find("idle timeout"), std::string::npos);

  const Counts stats = server.finish();
  const Counts expected = {
      {"net.accepted", 3},        {"net.clean_ends", 1},
      {"net.closed", 4},          {"net.failed_sessions", 1},
      {"net.forced_closes", 0},   {"net.http_errors", 0},
      {"net.http_requests", 0},   {"net.idle_timeouts", 1},
      {"net.overloaded_requests", 1}, {"net.parse_errors", 1},
      {"net.protocol_errors", 1}, {"net.rejected_overload", 1},
      {"net.replies", 2},         {"net.requests", 4},
      {"net.stat_polls", 2},      {"net.tele_frames", 5},
      {"net.tser_frames", 0},
  };
  Counts net;
  for (const auto& [name, value] : stats) {
    if (name.rfind("net.", 0) == 0) net.emplace(name, value);
  }
  EXPECT_EQ(net, expected);
}

TEST(FrontEndTest, HttpRoutesAnswerAndCountEveryExchange) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("httproutes");
  options.http_port = 0;
  TestServer server(svc, options);
  ASSERT_GT(server.http_port(), 0);
  // (net.http_requests, net.http_errors) after each exchange.
  using HttpCounts = std::pair<std::uint64_t, std::uint64_t>;
  obs::MetricsRegistry& registry = svc.metrics_registry();
  const auto http_counts = [&registry] {
    return HttpCounts{registry.counter("net.http_requests").value(),
                      registry.counter("net.http_errors").value()};
  };

  auto [status, body] = http_status_and_body(http_get(server.http_port(),
                                                      "/healthz"));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  EXPECT_EQ(http_counts(), HttpCounts(1, 0));

  // One served request, so /metrics and /varz have a DCWP count to show.
  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("scraped"));
  ASSERT_EQ(client.read_frame()->type, FrameType::kReply);

  std::tie(status, body) =
      http_status_and_body(http_get(server.http_port(), "/metrics"));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\ndeepcat_net_requests_total 1\n"), std::string::npos)
      << body;
  EXPECT_EQ(http_counts(), HttpCounts(2, 0));

  std::tie(status, body) =
      http_status_and_body(http_get(server.http_port(), "/varz"));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.rfind("{\"tele\":1,", 0), 0u) << body;
  EXPECT_NE(body.find("\"sessions\":1,"), std::string::npos) << body;
  EXPECT_NE(body.find(R"({"name":"net.requests","kind":"counter",)"
                      R"("deterministic":true,"value":1})"),
            std::string::npos)
      << body;
  EXPECT_EQ(http_counts(), HttpCounts(3, 0));

  std::tie(status, body) =
      http_status_and_body(http_get(server.http_port(), "/timeseries"));
  EXPECT_EQ(status, 404) << "no series registry";
  EXPECT_EQ(http_counts(), HttpCounts(3, 1));

  std::tie(status, body) =
      http_status_and_body(http_get(server.http_port(), "/nope"));
  EXPECT_EQ(status, 404);
  EXPECT_EQ(http_counts(), HttpCounts(3, 2));

  std::tie(status, body) = http_status_and_body(
      http_exchange(server.http_port(), "POST /metrics HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(status, 405);
  EXPECT_EQ(http_counts(), HttpCounts(3, 3));

  client.send_frame(FrameType::kEnd, "");
  (void)read_until_end(client);
  (void)server.finish();
}

TEST(FrontEndTest, HealthzReadsDrainingWhileADrainWaitsOnASession) {
  auto gate = std::make_shared<Gate>();
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test([gate](const TuningRequest& r) {
    gate->wait_inside();
    return fake_report(r);
  });
  FrontEndOptions options;
  options.unix_path = unique_socket_path("httpdrain");
  options.http_port = 0;
  options.drain_timeout_seconds = 30.0;
  TestServer server(svc, options);
  obs::MetricsRegistry& registry = svc.metrics_registry();

  auto [status, body] =
      http_status_and_body(http_get(server.http_port(), "/healthz"));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  auto client = BlockingClient::to_unix(options.unix_path);
  client.send_header();
  client.send_frame(FrameType::kRequest, request_json("held"));
  gate->wait_entered(1);
  server.front_end().request_shutdown();
  // The drain starts on the loop's next pass; poll until readiness flips.
  // The held session keeps the loop (and the HTTP listener) alive.
  std::uint64_t ok = 1;
  for (int i = 0; i < 200; ++i) {
    std::tie(status, body) =
        http_status_and_body(http_get(server.http_port(), "/healthz"));
    if (status != 200) break;
    ++ok;
  }
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "draining\n");
  EXPECT_EQ(registry.counter("net.http_requests").value(), ok);
  EXPECT_EQ(registry.counter("net.http_errors").value(), 1u);

  gate->release();
  const auto frames = read_until_end(client);
  EXPECT_EQ(count_type(frames, FrameType::kReply), 1u);
  (void)server.finish();
}

TEST(FrontEndTest, HttpConnectionPastTheCapGets503) {
  service::StreamingService svc(fake_options(1));
  svc.set_session_runner_for_test(fake_report);
  FrontEndOptions options;
  options.unix_path = unique_socket_path("httpcap");
  options.http_port = 0;
  options.max_connections = 1;
  TestServer server(svc, options);
  obs::MetricsRegistry& registry = svc.metrics_registry();

  // The first scraper holds its connection open without a request; the
  // second is past the cap and answered before it sends a byte.
  auto holder = BlockingClient::to_tcp("127.0.0.1", server.http_port());
  auto [status, body] =
      http_status_and_body(http_exchange(server.http_port(), ""));
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("overloaded"), std::string::npos) << body;
  EXPECT_EQ(registry.counter("net.http_requests").value(), 0u);
  EXPECT_EQ(registry.counter("net.http_errors").value(), 1u);
  holder.close();
  (void)server.finish();
}

TEST(FrontEndTest, StreamBridgeServesThousandsOfRequestsInOrder) {
  // 5,000 REQs: more bytes than the socketpair buffer holds and more
  // requests than the default in-flight cap (1024). The bridge's single
  // client is never refused, replies come out in request order, and a
  // corrupt END after them yields one ERR behind every REP — neither
  // input deadlocks the feeder, the loop or the reader.
  constexpr std::size_t kRequests = 5000;
  std::vector<std::pair<FrameType, std::string>> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.emplace_back(FrameType::kRequest,
                          request_json("r-" + std::to_string(i)));
  }
  const std::string body = service::encode_frames(requests);
  for (const bool corrupt : {false, true}) {
    std::string input = body + service::encode_frame(FrameType::kEnd, "");
    if (corrupt) input.back() ^= 0x01;  // the END frame's CRC
    service::StreamingService svc(fake_options(4));
    svc.set_session_runner_for_test(fake_report);
    std::istringstream in(input, std::ios::binary);
    std::ostringstream out(std::ios::binary);
    serve_stream(in, out, svc, FrontEndOptions{});
    const Counts stats = counts_of(svc);

    const auto frames = service::decode_frames(out.str());
    ASSERT_EQ(frames.size(), kRequests + (corrupt ? 3 : 2)) << corrupt;
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_EQ(frames[i].type, FrameType::kReply) << i;
      ASSERT_NE(frames[i].payload.find("\"id\":\"r-" + std::to_string(i) +
                                       "\""),
                std::string::npos)
          << i;
    }
    if (corrupt) {
      EXPECT_EQ(frames[kRequests].type, FrameType::kError);
      EXPECT_NE(frames[kRequests].payload.find("checksum"), std::string::npos);
    }
    EXPECT_EQ(frames[frames.size() - 2].type, FrameType::kTelemetry);
    EXPECT_EQ(frames.back().type, FrameType::kEnd);
    EXPECT_EQ(stats.at("net.replies"), kRequests);
    EXPECT_EQ(stats.at("net.overloaded_requests"), 0u);
    EXPECT_EQ(stats.at("net.protocol_errors"), corrupt ? 1u : 0u);
    EXPECT_EQ(stats.at("net.clean_ends"), corrupt ? 0u : 1u);
  }
}

}  // namespace
}  // namespace deepcat::net
