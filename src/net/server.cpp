#include "net/server.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/prometheus.hpp"
#include "service/jsonl.hpp"

namespace deepcat::net {

namespace {

// Loop-internal epoll tokens; connection ids start above them.
constexpr std::uint64_t kWakeToken = 0;
constexpr std::uint64_t kUnixToken = 1;
constexpr std::uint64_t kTcpToken = 2;
constexpr std::uint64_t kHttpToken = 3;

// HTTP connections are one-exchange and read-only; anything parked this
// long without completing its request is a stuck scraper (or slowloris)
// holding an fd for nothing.
constexpr std::int64_t kHttpIdleTimeoutMs = 30'000;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string strip_newline(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

// Signal routing: handlers may only touch async-signal-safe state, so the
// handler body is one atomic load plus request_shutdown() (an atomic store
// and an eventfd write).
std::atomic<FrontEnd*> g_signal_target{nullptr};

void forward_signal(int) {
  if (FrontEnd* target = g_signal_target.load()) target->request_shutdown();
}

}  // namespace

FrontEnd::FrontEnd(service::StreamingService& service,
                   FrontEndOptions options)
    : service_(service),
      obs_(service.options().service.obs),
      options_(std::move(options)),
      accepted_(service.metrics_registry().counter("net.accepted")),
      rejected_overload_(
          service.metrics_registry().counter("net.rejected_overload")),
      overloaded_requests_(
          service.metrics_registry().counter("net.overloaded_requests")),
      requests_(service.metrics_registry().counter("net.requests")),
      replies_(service.metrics_registry().counter("net.replies")),
      failed_sessions_(
          service.metrics_registry().counter("net.failed_sessions")),
      parse_errors_(service.metrics_registry().counter("net.parse_errors")),
      protocol_errors_(
          service.metrics_registry().counter("net.protocol_errors")),
      stat_polls_(service.metrics_registry().counter("net.stat_polls")),
      tele_frames_(service.metrics_registry().counter("net.tele_frames")),
      tser_frames_(service.metrics_registry().counter("net.tser_frames")),
      clean_ends_(service.metrics_registry().counter("net.clean_ends")),
      idle_timeouts_(service.metrics_registry().counter("net.idle_timeouts")),
      forced_closes_(service.metrics_registry().counter(
          "net.forced_closes", /*deterministic=*/false)),
      closed_(service.metrics_registry().counter("net.closed")),
      http_requests_(service.metrics_registry().counter("net.http_requests")),
      http_errors_(service.metrics_registry().counter("net.http_errors")),
      open_conns_(service.metrics_registry().gauge(
          "net.open_connections", /*deterministic=*/false)) {
  listeners_.reserve(3);  // pointers below index into this vector
  if (!options_.unix_path.empty()) {
    listeners_.push_back(listen_unix(options_.unix_path, /*backlog=*/128));
    unix_listener_ = &listeners_.back();
  }
  if (options_.tcp_port >= 0) {
    listeners_.push_back(
        listen_tcp(options_.tcp_host,
                   static_cast<std::uint16_t>(options_.tcp_port),
                   /*backlog=*/128));
    tcp_listener_ = &listeners_.back();
  }
  if (unix_listener_ == nullptr && tcp_listener_ == nullptr &&
      !options_.single_connection) {
    throw std::runtime_error("front end needs at least one listener");
  }
  if (options_.http_port >= 0) {
    listeners_.push_back(
        listen_tcp(options_.http_host,
                   static_cast<std::uint16_t>(options_.http_port),
                   /*backlog=*/128));
    http_listener_ = &listeners_.back();
  }
  time_replies_ = service_.options().reply_timings;
}

FrontEnd::~FrontEnd() {
  if (signal_handlers_installed_) {
    g_signal_target.store(nullptr);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

std::uint16_t FrontEnd::tcp_port() const noexcept {
  return tcp_listener_ != nullptr ? tcp_listener_->port : 0;
}

std::uint16_t FrontEnd::http_port() const noexcept {
  return http_listener_ != nullptr ? http_listener_->port : 0;
}

void FrontEnd::request_shutdown() noexcept {
  shutdown_requested_.store(true);
  wake_.notify();
}

void FrontEnd::install_signal_handlers() {
  g_signal_target.store(this);
  std::signal(SIGTERM, forward_signal);
  std::signal(SIGINT, forward_signal);
  signal_handlers_installed_ = true;
}

bool FrontEnd::served_single_connection() const noexcept {
  return options_.single_connection && served_one_;
}

bool FrontEnd::accepting() const noexcept {
  return !draining_ && listeners_open_ && !served_single_connection();
}

std::string FrontEnd::global_tele_payload() const {
  std::ostringstream tele;
  service::write_telemetry_payload(
      tele, service_.metrics(), service_.build_info(),
      &service_.metrics_registry(), options_.tele_include_nondeterministic);
  return strip_newline(std::move(tele).str());
}

std::string FrontEnd::telemetry_frames(Connection& conn, bool global,
                                       bool with_series) {
  std::string frames;
  // Convergence time-series, immediately before a TELE at the FLSH, STAT
  // and tail points. Strictly gated on a registry being attached: without
  // one the stream stays byte-identical v2-shaped.
  const obs::TimeSeriesRegistry* series = service_.timeseries_registry();
  if (with_series && series != nullptr) {
    std::ostringstream os;
    obs::write_timeseries_jsonl(os, series->snapshot());
    frames += service::encode_frame(service::FrameType::kTimeSeries,
                                    strip_newline(std::move(os).str()));
    tser_frames_.add(1);
  }
  // Connection-scoped TELE carries this connection's own session
  // aggregate and no instrument lines — a pure function of ITS requests.
  // STAT's is the live global poll: service aggregate + instruments.
  std::string payload;
  if (global) {
    payload = global_tele_payload();
  } else {
    std::ostringstream tele;
    service::write_telemetry_payload(
        tele, conn.metrics.snapshot(), service_.build_info(),
        /*registry=*/nullptr, options_.tele_include_nondeterministic);
    payload = strip_newline(std::move(tele).str());
  }
  frames += service::encode_frame(service::FrameType::kTelemetry, payload);
  tele_frames_.add(1);
  return frames;
}

void FrontEnd::serve_connection(FdGuard fd) {
  set_nonblocking(fd.get());
  add_connection(std::move(fd), /*is_tcp=*/false);
}

void FrontEnd::add_connection(FdGuard fd, bool is_tcp) {
  served_one_ = true;
  accepted_.add(1);
  auto conn =
      std::make_unique<Connection>(next_conn_id_++, std::move(fd), is_tcp);
  if (obs::Tracer* tracer = obs_.tracer) {
    conn->span = tracer->begin_span("conn", obs_.trace_parent);
  }
  conn->writes.append(service::encode_stream_header());
  conn->last_activity_ms = now_ms();
  const std::uint64_t id = conn->id();
  loop_.add(conn->fd(), id);
  Connection& ref = *conns_.emplace(id, std::move(conn)).first->second;
  open_conns_.set(static_cast<double>(conns_.size()));
  pump_writes(ref);
}

void FrontEnd::accept_ready(Listener& listener, bool is_tcp) {
  for (;;) {
    FdGuard fd(::accept4(listener.fd.get(), nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    if (!accepting() || conns_.size() >= options_.max_connections) {
      // Admission control, never a silent drop: greet with a decodable
      // header + typed ERR + END, then close.
      rejected_overload_.add(1);
      auto conn = std::make_unique<Connection>(next_conn_id_++, std::move(fd),
                                               is_tcp);
      conn->writes.append(service::encode_stream_header());
      conn->queue_frame(
          service::FrameType::kError,
          service::stream_error_payload(
              "overloaded: connection limit reached (" +
              std::to_string(options_.max_connections) + ")"));
      conn->queue_frame(service::FrameType::kEnd, "");
      conn->state = ConnState::kClosing;
      const std::uint64_t id = conn->id();
      loop_.add(conn->fd(), id);
      conn->last_activity_ms = now_ms();
      Connection& ref = *conns_.emplace(id, std::move(conn)).first->second;
      pump_writes(ref);
      continue;
    }
    add_connection(std::move(fd), is_tcp);
  }
}

void FrontEnd::answer(Connection& conn, std::string frames) {
  conn.pending_replies[conn.next_slot++].frames = std::move(frames);
  release_replies(conn);
}

void FrontEnd::handle_frame(Connection& conn, service::Frame frame) {
  const auto error_frame = [](const std::string& message) {
    return service::encode_frame(service::FrameType::kError,
                                 service::stream_error_payload(message));
  };
  switch (frame.type) {
    case service::FrameType::kRequest: {
      const std::size_t ordinal = conn.requests++;
      requests_.add(1);
      const std::string where = "request " + std::to_string(ordinal) + ": ";
      if (outstanding_total_ >= options_.max_inflight) {
        overloaded_requests_.add(1);
        answer(conn, error_frame(where +
                                 "overloaded: in-flight limit reached (" +
                                 std::to_string(options_.max_inflight) + ")"));
        break;
      }
      service::TuningRequest request;
      obs::Tracer* tracer = obs_.tracer;
      const bool time_decode = time_replies_ && tracer != nullptr;
      const std::uint64_t t_decode =
          time_decode ? tracer->clock().now_ns() : 0;
      try {
        request = service::parse_request_json(frame.payload, ordinal);
      } catch (const std::exception& e) {
        answer(conn, error_frame(where + e.what()));
        parse_errors_.add(1);
        break;
      }
      // Every request's span parents under this connection's span, so one
      // trace shows conn -> request -> session (client -> conn too when
      // the REQ carries trace context); decode timing is traced-only.
      request.server_parent_span = conn.span;
      if (time_decode && !request.trace_id.empty()) {
        request.decode_ns = tracer->clock().now_ns() - t_decode;
      }
      // A warm request against a missing/empty index is a typed protocol
      // error, never a failed session: the client asked for retrieval the
      // server cannot perform.
      if (const auto warm_err = service_.warm_error(request)) {
        answer(conn, error_frame(where + *warm_err));
        parse_errors_.add(1);
        break;
      }
      const std::uint64_t conn_id = conn.id();
      const std::uint64_t slot = conn.next_slot++;
      ++conn.outstanding;
      ++outstanding_total_;
      service_.submit(std::move(request),
                      [this, conn_id, slot](service::StreamReport report) {
                        std::scoped_lock lock(completions_mutex_);
                        completions_.push_back(
                            {conn_id, slot, std::move(report)});
                        // Under the lock: once the loop has seen this
                        // completion, run() may return and ~FrontEnd
                        // close the wake fd.
                        wake_.notify();
                      });
      break;
    }
    case service::FrameType::kFlush:
      conn.state = ConnState::kFlushWait;
      ++flush_waiters_;
      admissions_paused_ = true;
      break;
    case service::FrameType::kStat:
      // STAT must be empty or a flat JSON object; anything else is
      // rejected so a corrupt STAT cannot be half-honored.
      if (const auto stat_error = service::stat_payload_error(frame.payload)) {
        answer(conn, error_frame("STAT: " + *stat_error));
        parse_errors_.add(1);
      } else {
        stat_polls_.add(1);
        answer(conn, telemetry_frames(conn, /*global=*/true,
                                      /*with_series=*/true));
      }
      break;
    case service::FrameType::kEnd:
      clean_ends_.add(1);
      begin_conn_drain(conn);
      break;
    default:
      // REP/TELE/ERR/... travel server -> client; receiving one is a
      // client bug, but the framing is intact, so the stream continues.
      answer(conn, error_frame("unexpected '" +
                               service::frame_type_name(
                                   static_cast<std::uint32_t>(frame.type)) +
                               "' frame from client"));
      parse_errors_.add(1);
      break;
  }
}

void FrontEnd::process_frames(Connection& conn) {
  // Frame processing pauses globally while a FLSH barrier is pending:
  // admitting new sessions would keep the service busy forever.
  while (conn.state == ConnState::kOpen && flush_waiters_ == 0) {
    std::optional<service::Frame> frame;
    try {
      frame = conn.decoder.next();
    } catch (const service::WireError& e) {
      // Corrupt framing is unrecoverable on a length-prefixed stream:
      // one typed ERR after every admitted reply, then the normal tail.
      // Only THIS connection dies.
      answer(conn, service::encode_frame(service::FrameType::kError,
                                         service::stream_error_payload(
                                             e.what())));
      protocol_errors_.add(1);
      begin_conn_drain(conn);
      return;
    }
    if (!frame) {
      // Every complete frame before the peer's EOF has been served; what
      // is left decides between a truncation and a missing END.
      if (conn.read_eof) on_stream_eof(conn);
      return;
    }
    handle_frame(conn, *std::move(frame));
  }
}

void FrontEnd::on_stream_eof(Connection& conn) {
  // EOF without END is a protocol error, but the peer may be half-closed
  // and still reading — answer with a typed ERR and the normal tail.
  const char* why = !conn.decoder.header_seen()
                        ? "truncated wire stream header"
                    : conn.decoder.midstream()
                        ? "truncated wire stream inside a frame"
                        : "wire stream ended before the 'END' frame";
  answer(conn, service::encode_frame(service::FrameType::kError,
                                     service::stream_error_payload(why)));
  protocol_errors_.add(1);
  begin_conn_drain(conn);
}

void FrontEnd::drain_completions() {
  std::vector<Completion> batch;
  {
    std::scoped_lock lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& completion : batch) {
    --outstanding_total_;
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // force-closed during drain timeout
    Connection& conn = *it->second;
    --conn.outstanding;
    if (conn.state == ConnState::kZombie) {
      // Peer gone; the session still ran (and will merge), but there is
      // nobody to reply to. Retire the husk once accounting settles.
      if (conn.outstanding == 0) finish_conn(conn);
      continue;
    }
    if (!completion.report.session.ok) failed_sessions_.add(1);
    // The service already holds the experience for its next merge.
    completion.report.session.new_transitions = {};
    conn.pending_replies[completion.slot].report =
        std::move(completion.report);
    release_replies(conn);
    pump_writes(conn);
    maybe_emit_tail(conn);
  }
}

void FrontEnd::release_replies(Connection& conn) {
  // Strict slot-order release: an answer that is ready early waits in
  // pending_replies until every earlier slot has been written.
  for (auto it = conn.pending_replies.find(conn.next_release);
       it != conn.pending_replies.end();
       it = conn.pending_replies.find(conn.next_release)) {
    if (std::optional<service::StreamReport>& report = it->second.report) {
      conn.metrics.record(report->session);
      if (report->session.timings.has_value() && obs_.tracer != nullptr) {
        // Write cost via a discarded dry-run serialization (two clock
        // reads bracketing the same encoder the real reply uses below).
        obs::Clock& clock = obs_.tracer->clock();
        const std::uint64_t t0 = clock.now_ns();
        (void)service::stream_reply_payload(*report);
        report->session.timings->write_ns = clock.now_ns() - t0;
      }
      conn.queue_frame(service::FrameType::kReply,
                       service::stream_reply_payload(*report));
      ++conn.replies;
      replies_.add(1);
      if (options_.tele_every != 0 &&
          conn.replies % options_.tele_every == 0) {
        conn.writes.append(telemetry_frames(conn, /*global=*/false,
                                            /*with_series=*/false));
      }
    } else {
      conn.writes.append(it->second.frames);
    }
    conn.pending_replies.erase(it);
    ++conn.next_release;
  }
}

void FrontEnd::maybe_run_flush() {
  // A FLSH decoded during the re-pump below re-parks its connection AFTER
  // flush_waiters_ was reset, so the barrier must be re-evaluated until no
  // waiter remains — otherwise back-to-back FLSH frames strand the loop in
  // epoll_wait with nothing left to wake it. Terminates: each pass either
  // consumes buffered frames (no new bytes arrive while we are here) or
  // puts sessions in flight, whose completions re-invoke us from run().
  while (flush_waiters_ > 0 && outstanding_total_ == 0) {
    // Every callback has been processed, so nothing is in flight: flush()
    // will not block.
    (void)service_.flush();
    for (auto& [id, conn] : conns_) {
      if (conn->state != ConnState::kFlushWait) continue;
      conn->state = ConnState::kOpen;
      conn->writes.append(telemetry_frames(*conn, /*global=*/false,
                                           /*with_series=*/true));
      pump_writes(*conn);
    }
    flush_waiters_ = 0;
    resume_admissions();
  }
}

void FrontEnd::resume_admissions() {
  // Admissions were paused; re-pump every connection's buffered frames
  // and re-arm reads that were deasserted while the barrier was pending
  // (update_interest inside pump_writes re-raises EPOLLIN, so bytes that
  // backed up in the kernel during the pause trigger a fresh event).
  for (auto& [id, conn] : conns_) {
    process_frames(*conn);
    pump_writes(*conn);
    maybe_emit_tail(*conn);
  }
}

void FrontEnd::begin_conn_drain(Connection& conn) {
  if (conn.state == ConnState::kFlushWait) --flush_waiters_;
  conn.state = ConnState::kDraining;
  maybe_emit_tail(conn);
}

void FrontEnd::maybe_emit_tail(Connection& conn) {
  if (conn.state != ConnState::kDraining) return;
  if (conn.outstanding != 0 || !conn.pending_replies.empty()) return;
  if (options_.single_connection) {
    // The single connection's tail runs a global barrier first. Deferred
    // until the service quiesces, like FLSH.
    if (outstanding_total_ != 0) return;
    (void)service_.flush();
  }
  conn.writes.append(telemetry_frames(conn, /*global=*/false,
                                      /*with_series=*/true));
  conn.queue_frame(service::FrameType::kEnd, "");
  conn.state = ConnState::kClosing;
  pump_writes(conn);
}

void FrontEnd::begin_server_drain() {
  if (draining_) return;
  draining_ = true;
  drain_started_ms_ = now_ms();
  for (auto& listener : listeners_) {
    // The HTTP observability listener survives the drain on purpose:
    // /healthz keeps answering 503 "draining" until the loop exits, which
    // is how orchestrators see readiness flip before the process goes.
    if (&listener == http_listener_) continue;
    if (listener.fd.valid()) {
      loop_.remove(listener.fd.get());
      listener.fd.reset();
    }
    listener.socket_file.reset();
  }
  listeners_open_ = false;
  for (auto& [id, conn] : conns_) {
    if (conn->state == ConnState::kOpen ||
        conn->state == ConnState::kFlushWait) {
      // Buffered-but-unprocessed frames are dropped by design: drain
      // means "finish what was admitted", not "accept more work".
      begin_conn_drain(*conn);
    }
  }
  flush_waiters_ = 0;
}

void FrontEnd::check_timeouts(std::int64_t now) {
  if (options_.idle_timeout_seconds > 0 && !draining_) {
    const auto limit =
        static_cast<std::int64_t>(options_.idle_timeout_seconds * 1000.0);
    for (auto& [id, conn] : conns_) {
      if (conn->state != ConnState::kOpen) continue;
      if (conn->outstanding != 0 || !conn->pending_replies.empty()) continue;
      if (now - conn->last_activity_ms < limit) continue;
      idle_timeouts_.add(1);
      conn->queue_frame(service::FrameType::kError,
                        service::stream_error_payload("idle timeout"));
      conn->queue_frame(service::FrameType::kEnd, "");
      conn->state = ConnState::kClosing;
      pump_writes(*conn);
    }
  }
  if (!http_conns_.empty()) {
    for (auto& [id, conn] : http_conns_) {
      if (conn->responded) continue;  // write-draining, bounded by epoll
      if (now - conn->last_activity_ms < kHttpIdleTimeoutMs) continue;
      HttpError timeout{408, "request head not received in time"};
      conn->writes.append(render_http_error(timeout));
      conn->responded = true;
      http_errors_.add(1);
      pump_http_writes(*conn);
    }
    reap();  // pump may finish connections
  }
  if (draining_ && options_.drain_timeout_seconds > 0) {
    const auto limit =
        static_cast<std::int64_t>(options_.drain_timeout_seconds * 1000.0);
    if (now - drain_started_ms_ >= limit) {
      for (auto& [id, conn] : conns_) {
        // Skip conns already retired this iteration (finished, awaiting
        // reap) — they closed on their own, not by force.
        if (conn->state == ConnState::kZombie || conn->finished) continue;
        forced_closes_.add(1);
        make_zombie(*conn);
      }
      reap();
    }
  }
}

bool FrontEnd::wants_read(const Connection& conn) const noexcept {
  // Read only while frames can actually be processed. During a FLSH
  // barrier and once a connection leaves kOpen (draining, closing), bytes
  // would pile up undecoded — kMaxFramePayload bounds one frame, not the
  // backlog — so leave them in the kernel socket buffer: that is bounded
  // backpressure the peer's send() feels. EPOLLRDHUP stays armed, so
  // hangups are still delivered to a read-paused connection.
  return conn.state == ConnState::kOpen && flush_waiters_ == 0 &&
         !conn.read_eof;
}

void FrontEnd::update_interest(Connection& conn) {
  const bool want_write = conn.writes.pending();
  const bool want_read = wants_read(conn);
  const bool want_hangup = !conn.read_eof;
  if (conn.fd() < 0 ||
      (want_write == conn.epollout && want_read == conn.epollin &&
       want_hangup == conn.epollrdhup)) {
    return;
  }
  loop_.modify(conn.fd(), conn.id(), want_write, want_read, want_hangup);
  conn.epollout = want_write;
  conn.epollin = want_read;
  conn.epollrdhup = want_hangup;
}

void FrontEnd::pump_writes(Connection& conn) {
  if (conn.state == ConnState::kZombie || conn.fd() < 0) return;
  const IoStatus status = conn.writes.flush(conn.fd());
  if (status == IoStatus::kError) {
    make_zombie(conn);
    return;
  }
  if (status == IoStatus::kOk) {
    conn.last_activity_ms = now_ms();
    if (conn.state == ConnState::kClosing) {
      finish_conn(conn);
      return;
    }
  }
  update_interest(conn);
}

void FrontEnd::make_zombie(Connection& conn) {
  // The peer can no longer read; drop buffered output and the fd, but
  // keep the Connection until its in-flight sessions complete so the
  // outstanding accounting stays exact (no silent drops — the sessions
  // still run and merge).
  conn.writes.clear();
  if (conn.state == ConnState::kFlushWait) --flush_waiters_;
  if (conn.fd() >= 0) {
    loop_.remove(conn.fd());
    conn.close();
  }
  conn.state = ConnState::kZombie;
  if (conn.outstanding == 0) finish_conn(conn);
}

void FrontEnd::finish_conn(Connection& conn) {
  // Idempotent: a conn queued in dead_conns_ can be reached again before
  // reap() (e.g. the drain-timeout sweep in the same loop iteration);
  // retiring it twice would count net.closed twice and end its span twice.
  if (conn.finished) return;
  conn.finished = true;
  closed_.add(1);
  if (conn.span != 0) obs_.tracer->end_span(conn.span);
  if (conn.fd() >= 0) {
    loop_.remove(conn.fd());
    conn.close();
  }
  dead_conns_.push_back(conn.id());
}

void FrontEnd::reap() {
  for (const std::uint64_t id : dead_conns_) conns_.erase(id);
  if (!dead_conns_.empty()) {
    open_conns_.set(static_cast<double>(conns_.size()));
  }
  dead_conns_.clear();
  for (const std::uint64_t id : dead_http_conns_) http_conns_.erase(id);
  dead_http_conns_.clear();
}

void FrontEnd::accept_http_ready() {
  for (;;) {
    FdGuard fd(::accept4(http_listener_->fd.get(), nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<HttpConnection>(id, std::move(fd));
    conn->last_activity_ms = now_ms();
    loop_.add(conn->fd(), id);
    HttpConnection& ref = *http_conns_.emplace(id, std::move(conn))
                               .first->second;
    if (http_conns_.size() > options_.max_connections) {
      // Scrapers are cheap but not free; past the cap they get the same
      // typed-refusal treatment as DCWP connections.
      HttpError overload{503, "overloaded: connection limit reached"};
      ref.writes.append(render_http_error(overload));
      ref.responded = true;
      http_errors_.add(1);
      pump_http_writes(ref);
    }
  }
}

std::string FrontEnd::route_http(const HttpRequest& request) {
  if (request.path == "/healthz") {
    // Readiness, not liveness: flips to 503 the moment a drain starts (or
    // admission is closed), while the process is still up serving tails.
    if (draining_) {
      http_errors_.add(1);
      return render_http_response(503, "text/plain; charset=utf-8",
                                  "draining\n");
    }
    if (conns_.size() >= options_.max_connections) {
      http_errors_.add(1);
      return render_http_response(503, "text/plain; charset=utf-8",
                                  "overloaded\n");
    }
    http_requests_.add(1);
    return render_http_response(200, "text/plain; charset=utf-8", "ok\n");
  }
  if (request.path == "/metrics") {
    // Counted before the snapshot, so the scrape includes itself.
    http_requests_.add(1);
    std::ostringstream os;
    obs::write_prometheus_text(os, service_.metrics_registry().snapshot(),
                               service_.build_info());
    return render_http_response(
        200, "text/plain; version=0.0.4; charset=utf-8",
        std::move(os).str());
  }
  if (request.path == "/varz") {
    // The same payload a STAT poll gets, over HTTP: live service
    // aggregate plus the instrument set, flat JSON.
    http_requests_.add(1);
    return render_http_response(200, "application/json",
                                global_tele_payload() + "\n");
  }
  if (request.path == "/timeseries") {
    const obs::TimeSeriesRegistry* series = service_.timeseries_registry();
    if (series == nullptr) {
      http_errors_.add(1);
      HttpError off{404, "time-series retention is off (serve --series)"};
      return render_http_error(off);
    }
    std::ostringstream os;
    obs::write_timeseries_json(os, series->snapshot());
    http_requests_.add(1);
    return render_http_response(200, "application/json", std::move(os).str());
  }
  http_errors_.add(1);
  HttpError unknown{404, "no route '" + request.path +
                             "'; routes: /metrics /healthz /varz /timeseries"};
  return render_http_error(unknown);
}

void FrontEnd::respond_http(HttpConnection& conn) {
  if (conn.responded) return;
  HttpRequest request;
  HttpError error;
  switch (parse_http_request(conn.buffer(), request, error)) {
    case HttpParseResult::kNeedMore:
      return;
    case HttpParseResult::kRequest:
      conn.writes.append(route_http(request));
      break;
    case HttpParseResult::kError:
      http_errors_.add(1);
      conn.writes.append(render_http_error(error));
      break;
  }
  conn.responded = true;
}

void FrontEnd::pump_http_writes(HttpConnection& conn) {
  if (conn.fd() < 0) return;
  const IoStatus status = conn.writes.flush(conn.fd());
  if (status == IoStatus::kError) {
    finish_http_conn(conn);
    return;
  }
  if (status == IoStatus::kOk && conn.responded) {
    finish_http_conn(conn);
    return;
  }
  const bool want_write = conn.writes.pending();
  if (want_write != conn.epollout) {
    loop_.modify(conn.fd(), conn.id(), want_write, !conn.responded);
    conn.epollout = want_write;
  }
}

void FrontEnd::finish_http_conn(HttpConnection& conn) {
  if (conn.fd() >= 0) {
    loop_.remove(conn.fd());
    conn.close();
  }
  dead_http_conns_.push_back(conn.id());
}

void FrontEnd::handle_http_event(HttpConnection& conn, const Event& event) {
  if (event.error) {
    finish_http_conn(conn);
    return;
  }
  if (event.readable || event.hangup) {
    const IoStatus status = conn.read_some();
    if (status == IoStatus::kOk) conn.last_activity_ms = now_ms();
    respond_http(conn);
    if (status == IoStatus::kEof && !conn.responded) {
      // Peer closed before completing a request: nothing to answer.
      finish_http_conn(conn);
      return;
    }
    if (status == IoStatus::kError) {
      finish_http_conn(conn);
      return;
    }
  }
  pump_http_writes(conn);
}

void FrontEnd::handle_conn_event(Connection& conn, const Event& event) {
  if (conn.state == ConnState::kZombie) return;
  if (event.error) {
    make_zombie(conn);
    return;
  }
  if ((event.readable || event.hangup) && !conn.read_eof) {
    const IoStatus status = conn.read_some();
    if (status == IoStatus::kOk) conn.last_activity_ms = now_ms();
    if (status == IoStatus::kEof) conn.read_eof = true;
    process_frames(conn);
    pump_writes(conn);
    if (conn.state == ConnState::kZombie) return;
    if (status == IoStatus::kError) {
      make_zombie(conn);
      return;
    }
  }
  if (event.writable && conn.state != ConnState::kZombie) {
    pump_writes(conn);
  }
  if (conn.state != ConnState::kZombie) maybe_emit_tail(conn);
}

void FrontEnd::run() {
  loop_.add(wake_.fd(), kWakeToken);
  if (unix_listener_ != nullptr) {
    loop_.add(unix_listener_->fd.get(), kUnixToken);
  }
  if (tcp_listener_ != nullptr) {
    loop_.add(tcp_listener_->fd.get(), kTcpToken);
  }
  if (http_listener_ != nullptr) {
    loop_.add(http_listener_->fd.get(), kHttpToken);
  }
  listeners_open_ = true;

  std::vector<Event> events;
  for (;;) {
    if ((draining_ || served_single_connection()) && conns_.empty() &&
        outstanding_total_ == 0) {
      break;
    }
    const bool timed = draining_ || options_.idle_timeout_seconds > 0 ||
                       !http_conns_.empty();
    (void)loop_.wait(events, timed ? 100 : -1);
    for (const Event& event : events) {
      if (event.token == kWakeToken) {
        wake_.drain();
      } else if (event.token == kUnixToken) {
        accept_ready(*unix_listener_, /*is_tcp=*/false);
      } else if (event.token == kTcpToken) {
        accept_ready(*tcp_listener_, /*is_tcp=*/true);
      } else if (event.token == kHttpToken) {
        accept_http_ready();
      } else if (const auto it = conns_.find(event.token);
                 it != conns_.end()) {
        handle_conn_event(*it->second, event);
      } else if (const auto hit = http_conns_.find(event.token);
                 hit != http_conns_.end()) {
        handle_http_event(*hit->second, event);
      }
    }
    drain_completions();
    maybe_run_flush();
    if (admissions_paused_ && flush_waiters_ == 0) {
      // The pause can also end without a merge — the last waiter hung up
      // (on_stream_eof/make_zombie decrement) or a server drain reset the
      // barrier. Re-pump and re-arm reads, or paused conns stall forever.
      admissions_paused_ = false;
      resume_admissions();
    }
    if (shutdown_requested_.load()) begin_server_drain();
    if (draining_ ||
        (options_.single_connection && outstanding_total_ == 0)) {
      // Tails can unblock on GLOBAL conditions (server drain, the
      // single-connection quiesce), not just on this connection's own
      // completions — re-check everyone.
      for (auto& [id, conn] : conns_) maybe_emit_tail(*conn);
    }
    check_timeouts(now_ms());
    reap();
  }

  // Final barrier: merge whatever completed without an explicit FLSH so
  // checkpoints after a drain reflect every admitted session.
  (void)service_.flush();
}

namespace {

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      size -= static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EINTR) {
      return false;
    }
  }
  return true;
}

}  // namespace

void serve_stream(std::istream& in, std::ostream& out,
                  service::StreamingService& service,
                  FrontEndOptions options) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw std::runtime_error(std::string("socketpair(): ") +
                             std::strerror(errno));
  }
  FdGuard server_end(fds[0]);
  FdGuard client_end(fds[1]);
  options.unix_path.clear();
  options.tcp_port = -1;
  options.single_connection = true;
  options.max_inflight = std::numeric_limits<std::size_t>::max();
  FrontEnd front_end(service, std::move(options));
  front_end.serve_connection(std::move(server_end));

  const int fd = client_end.get();
  // One slot per thread; each failure also shuts the socket down so the
  // other two unblock, and the first is rethrown once all three are done.
  std::exception_ptr errors[3];
  const auto fail = [fd](std::exception_ptr& slot) {
    slot = std::current_exception();
    ::shutdown(fd, SHUT_RDWR);
  };
  std::thread loop([&] {
    try {
      front_end.run();
    } catch (...) {
      fail(errors[0]);
    }
  });
  std::thread feeder([&] {
    // Block for one byte, then forward whatever else is already buffered,
    // so a live pipe reaches the front end frame by frame. Stop after the
    // END frame (or the first framing error), exactly where the front end
    // stops reading: a client that keeps its end of the pipe open until
    // the reply arrives must not stall the stream.
    try {
      service::FrameDecoder frames;
      char buf[64 * 1024];
      bool done = false;
      while (!done && in.read(buf, 1)) {
        const auto n = 1 + static_cast<std::size_t>(
                               in.readsome(buf + 1, sizeof buf - 1));
        if (!send_all(fd, buf, n)) break;  // the front end already closed
        frames.feed(buf, n);
        try {
          while (const auto frame = frames.next()) {
            if (frame->type == service::FrameType::kEnd) {
              done = true;
              break;
            }
          }
        } catch (const service::WireError&) {
          done = true;
        }
      }
      ::shutdown(fd, SHUT_WR);
    } catch (...) {
      fail(errors[1]);
    }
  });
  try {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        out.write(buf, n);
        out.flush();
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  } catch (...) {
    fail(errors[2]);
  }
  feeder.join();
  loop.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace deepcat::net
