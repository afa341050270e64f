// Minimal HTTP/1.1 surface for the observability endpoint.
//
// This is deliberately NOT a web server: the front end exposes exactly
// four read-only GET routes (/metrics, /healthz, /varz, /timeseries) on a
// dedicated acceptor, multiplexed on the same epoll loop as the DCWP
// connections. The parser is therefore a sibling of service::FrameDecoder, not a
// general HTTP implementation:
//
//   - GET only (anything else is a typed 405);
//   - the whole request head is bounded by kMaxHttpRequestBytes — a head
//     that exceeds it without terminating is a 431, never an unbounded
//     buffer;
//   - HTTP/1.0 and HTTP/1.1 are accepted, anything else is a 505;
//   - bodies are ignored; every response carries Content-Length and
//     "Connection: close", and the connection closes after one exchange —
//     no keep-alive state machine to get wrong.
//
// Malformed input always yields a typed 4xx/5xx response (400 bad request
// line, 404 unknown route, 405 bad method, 413 oversized declared body,
// 431 oversized head, 505 bad version) — mirroring the wire contract that
// protocol errors are answered, never silently dropped. The HTTP fuzz leg
// drives mutated requests through parse_http_request and pins "typed
// error or request, never a crash".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/connection.hpp"
#include "net/fd.hpp"

namespace deepcat::net {

/// Upper bound on one request head (request line + headers + CRLFCRLF).
inline constexpr std::size_t kMaxHttpRequestBytes = 8192;

struct HttpRequest {
  std::string method;  ///< "GET" (anything else was already rejected)
  std::string path;    ///< origin-form target, query string stripped
  std::string query;   ///< bytes after '?' (empty when absent)
};

/// Typed parse failure -> the response to send.
struct HttpError {
  int status = 400;
  std::string message;  ///< plain-text body line (no trailing newline)
};

enum class HttpParseResult {
  kNeedMore,  ///< head not terminated yet (and still under the bound)
  kRequest,   ///< `request` is valid
  kError,     ///< `error` is valid; the connection should answer + close
};

/// Parses one request head from the front of `buffer`. Stateless and
/// incremental: feed the whole accumulated buffer each time. Never
/// throws; never reads past the head.
[[nodiscard]] HttpParseResult parse_http_request(std::string_view buffer,
                                                 HttpRequest& request,
                                                 HttpError& error);

/// Canonical reason phrase for the status codes this surface emits
/// (unknown codes map to "Error").
[[nodiscard]] std::string_view http_status_reason(int status) noexcept;

/// Renders a full response: status line, Content-Type, Content-Length,
/// Connection: close, blank line, body.
[[nodiscard]] std::string render_http_response(int status,
                                               std::string_view content_type,
                                               std::string_view body);

/// Shorthand for a typed error response (text/plain body
/// "<status> <reason>: <message>\n").
[[nodiscard]] std::string render_http_error(const HttpError& error);

/// One accepted HTTP connection on the event loop: bounded read buffer on
/// the way in, partial-write tracking on the way out. The front end owns
/// the lifecycle (exactly one request, one response, then close).
class HttpConnection {
 public:
  HttpConnection(std::uint64_t id, FdGuard fd)
      : id_(id), fd_(std::move(fd)) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Reads into the head buffer, stopping at kMaxHttpRequestBytes + 1 —
  /// one extra byte so the parser can distinguish "head exactly at the
  /// bound" from "head exceeds it" (431).
  [[nodiscard]] IoStatus read_some();

  [[nodiscard]] const std::string& buffer() const noexcept { return buffer_; }

  void close() noexcept { fd_.reset(); }

  WriteQueue writes;       ///< the response, until it drains

  bool epollout = false;   ///< EPOLLOUT currently armed for this fd
  bool responded = false;  ///< response queued; close once it drains
  std::int64_t last_activity_ms = 0;

 private:
  std::uint64_t id_;
  FdGuard fd_;
  std::string buffer_;
};

}  // namespace deepcat::net
