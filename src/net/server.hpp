// FrontEnd: the epoll serving loop that multiplexes many DCWP
// connections over one StreamingService.
//
// Architecture (DESIGN.md §11):
//
//   - ONE event-loop thread owns all sockets and all Connection state;
//     sessions run on the service's pool. Completions cross back via a
//     mutex-guarded queue plus an eventfd wakeup, so no connection state
//     is ever touched off-loop.
//   - Answers are released in per-connection SLOT order (connection.hpp):
//     a REP waits in Connection::pending_replies until every earlier
//     answer is out, and request ERRs, STAT answers and a final framing
//     or EOF ERR take their own slots. Every connection's transcript is a
//     pure function of its own input bytes — independent of thread count,
//     read boundaries and the other connections.
//   - Admission control is typed, never silent: a connection beyond
//     --max-conns is greeted with header + ERR "overloaded" + END; a
//     request beyond --max-inflight gets an ERR naming its index. Both
//     leave the stream decodable.
//   - FLSH is a deferred barrier: the flushing connection parks in
//     kFlushWait and frame processing pauses globally (no new
//     admissions); once every outstanding session has completed the loop
//     runs flush() and answers each waiter with its connection-scoped
//     TELE — re-evaluating until no waiter remains, since a FLSH decoded
//     while re-pumping buffered frames re-parks after the reset. The loop
//     thread itself never blocks in flush(). While paused (and once a
//     connection is past kOpen), EPOLLIN is deasserted so inbound bytes
//     back up in the kernel socket buffer instead of growing the decoder
//     backlog without bound; EPOLLRDHUP stays armed for hangups.
//   - Single-connection contract (`serve --socket`, and every byte stream
//     through serve_stream below): serve one connection, run a global
//     flush barrier when it ends its stream, then return from run().
//   - Graceful drain (SIGTERM/SIGINT or request_shutdown()): stop
//     accepting, let in-flight sessions finish and their replies go out,
//     run one final flush(), then emit each connection's TELE + END
//     tail and close once its write buffer empties. --drain-timeout
//     bounds the wait, after which stragglers are force-closed (counted,
//     never silent).
//   - Counts: every serving count (connections, requests, replies, errors,
//     polls, HTTP exchanges) is a `net.*` instrument in the service's
//     registry, incremented where the event happens — the one record that
//     STAT, /varz, /metrics and the CLI's summary line all read.
//
// TELE scoping: FLSH- and END-tail TELE frames carry the CONNECTION's
// session aggregates (deterministic per connection; no registry
// instrument lines); STAT answers carry the live GLOBAL service aggregate
// plus the instrument set — that is what `deepcat stats` polls. Both read
// the same exact rec-cost quantiles (SessionAggregate).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "obs/sink.hpp"
#include "service/streaming.hpp"

namespace deepcat::net {

struct FrontEndOptions {
  /// AF_UNIX listener path; empty disables.
  std::string unix_path;
  /// TCP listener; port -1 disables, 0 binds an ephemeral port (read it
  /// back from FrontEnd::tcp_port()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// HTTP observability listener (/metrics, /healthz, /varz,
  /// /timeseries); port -1 disables, 0 binds an ephemeral port (read it
  /// back from FrontEnd::http_port()). Stays open during drain so
  /// /healthz can report not-ready while connections finish.
  std::string http_host = "127.0.0.1";
  int http_port = -1;
  /// Admission control.
  std::size_t max_connections = 256;
  std::size_t max_inflight = 1024;
  /// Seconds a drain waits for connections to finish before force-close.
  double drain_timeout_seconds = 5.0;
  /// Disconnect connections idle this long with nothing in flight
  /// (0 = never).
  double idle_timeout_seconds = 0.0;
  /// Serve one connection, run a global flush barrier before its tail,
  /// then return from run(); later connections are refused as overload.
  /// Off by default: under multiplexing merges happen only at explicit
  /// FLSH barriers and at drain, so one connection's END cannot reshuffle
  /// another's epochs.
  bool single_connection = false;
  /// Also emit a connection TELE after every Nth REP (0 = only at FLSH
  /// barriers, STAT polls and the tail).
  std::size_t tele_every = 0;
  /// false = byte-stable TELE payloads (deterministic instruments and
  /// integer aggregates only); the CLI sets this for --clock logical.
  bool tele_include_nondeterministic = true;
};

class FrontEnd {
 public:
  /// Binds all configured listeners (throws on failure, nothing leaks —
  /// the Listener guards own fds and socket files). Needs at least one
  /// DCWP listener unless `single_connection` is set, in which case the
  /// connection can come from serve_connection() instead.
  FrontEnd(service::StreamingService& service, FrontEndOptions options);

  /// Serves an already-connected socket as if it had been accepted (the
  /// byte-stream bridge hands over one end of a socketpair). Call before
  /// run(); the fd is switched to nonblocking.
  void serve_connection(FdGuard fd);

  /// Actual TCP port (resolves a port-0 request); 0 when TCP is off.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept;

  /// Actual HTTP observability port; 0 when the HTTP endpoint is off.
  [[nodiscard]] std::uint16_t http_port() const noexcept;

  /// Runs the loop until shutdown/exit-after. Call once. What it served
  /// reads from the `net.*` counters in the service's registry.
  void run();

  /// Thread- and signal-safe shutdown request (starts a graceful drain).
  void request_shutdown() noexcept;

  /// Routes SIGTERM/SIGINT to request_shutdown() for the lifetime of this
  /// front end. At most one front end can hold the handlers at a time.
  void install_signal_handlers();
  ~FrontEnd();

 private:
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t slot = 0;
    service::StreamReport report;
  };

  void accept_ready(Listener& listener, bool is_tcp);
  void add_connection(FdGuard fd, bool is_tcp);
  /// Puts `frames` in the connection's next slot and releases what it can.
  void answer(Connection& conn, std::string frames);
  void handle_conn_event(Connection& conn, const Event& event);
  void process_frames(Connection& conn);
  void handle_frame(Connection& conn, service::Frame frame);
  void on_stream_eof(Connection& conn);
  void drain_completions();
  void release_replies(Connection& conn);
  /// Encoded TELE frame — the live global aggregate plus instruments for
  /// STAT, else the connection's own aggregate — preceded by TSER when
  /// `with_series` and a time-series registry is attached.
  [[nodiscard]] std::string telemetry_frames(Connection& conn, bool global,
                                             bool with_series);
  void maybe_run_flush();
  void resume_admissions();
  void begin_conn_drain(Connection& conn);
  void maybe_emit_tail(Connection& conn);
  void accept_http_ready();
  void handle_http_event(HttpConnection& conn, const Event& event);
  void respond_http(HttpConnection& conn);
  [[nodiscard]] std::string route_http(const HttpRequest& request);
  void pump_http_writes(HttpConnection& conn);
  void finish_http_conn(HttpConnection& conn);
  void begin_server_drain();
  void check_timeouts(std::int64_t now_ms);
  void pump_writes(Connection& conn);
  void make_zombie(Connection& conn);
  void finish_conn(Connection& conn);
  void reap();
  void update_interest(Connection& conn);
  [[nodiscard]] bool wants_read(const Connection& conn) const noexcept;
  [[nodiscard]] bool accepting() const noexcept;
  [[nodiscard]] bool served_single_connection() const noexcept;
  [[nodiscard]] std::string global_tele_payload() const;

  service::StreamingService& service_;
  /// The service's sink: its tracer and trace parent for `conn` spans.
  const obs::Sink& obs_;
  FrontEndOptions options_;
  EventLoop loop_;
  WakeFd wake_;
  std::vector<Listener> listeners_;  ///< unix, tcp, http (when present)
  Listener* unix_listener_ = nullptr;
  Listener* tcp_listener_ = nullptr;
  Listener* http_listener_ = nullptr;
  bool listeners_open_ = false;
  /// True when traced REPs carry the per-stage timing block (read from
  /// the service options; needs the tracer's clock as a time source).
  bool time_replies_ = false;

  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  /// HTTP connections share the id/token space with DCWP connections but
  /// live in their own map — their lifecycle is one request, one
  /// response, close.
  std::map<std::uint64_t, std::unique_ptr<HttpConnection>> http_conns_;
  std::uint64_t next_conn_id_ = 8;  ///< tokens 0..7 reserved for the loop
  std::vector<std::uint64_t> dead_conns_;
  std::vector<std::uint64_t> dead_http_conns_;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  std::size_t outstanding_total_ = 0;
  std::size_t flush_waiters_ = 0;
  /// True from the moment a FLSH parks until the pause is lifted and the
  /// buffered/deferred frames have been re-pumped (run() clears it).
  bool admissions_paused_ = false;
  bool draining_ = false;
  std::int64_t drain_started_ms_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  bool signal_handlers_installed_ = false;
  /// Set at the first connection; a single-connection front end then
  /// accepts no other.
  bool served_one_ = false;

  // `net.*` instruments in the service's registry, bound once. A drain's
  // forced closes and the open-connection gauge depend on timing, so they
  // register as nondeterministic.
  obs::Counter& accepted_;
  obs::Counter& rejected_overload_;    ///< connections refused at the cap
  obs::Counter& overloaded_requests_;  ///< requests refused at the cap
  obs::Counter& requests_;
  obs::Counter& replies_;
  obs::Counter& failed_sessions_;
  obs::Counter& parse_errors_;
  obs::Counter& protocol_errors_;
  obs::Counter& stat_polls_;
  obs::Counter& tele_frames_;
  obs::Counter& tser_frames_;          ///< convergence time-series frames
  obs::Counter& clean_ends_;           ///< connections that sent END
  obs::Counter& idle_timeouts_;
  obs::Counter& forced_closes_;        ///< drain-timeout casualties
  obs::Counter& closed_;
  obs::Counter& http_requests_;        ///< HTTP exchanges answered 2xx
  obs::Counter& http_errors_;          ///< HTTP exchanges answered 4xx/5xx
  obs::Gauge& open_conns_;
};

/// Serves one DCWP byte stream (stdin, a file, a string) through a
/// FrontEnd: `in` is copied into one end of a socketpair whose other end
/// the front end serves under the single-connection contract, and every
/// byte it answers is copied to `out`. Listener fields in `options` are
/// ignored, and the in-flight cap is lifted — a stream has one client, so
/// admission control would only turn its own requests away. Returns
/// after the stream's END tail (or error tail) has been written.
void serve_stream(std::istream& in, std::ostream& out,
                  service::StreamingService& service,
                  FrontEndOptions options);

}  // namespace deepcat::net
