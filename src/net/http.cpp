#include "net/http.hpp"

#include <sys/socket.h>

#include <cerrno>

namespace deepcat::net {

namespace {

// Case-sensitive method match on purpose: "get" is not a valid token for
// the methods grammar's registered names, and typed 405 beats guessing.
constexpr std::string_view kCrlfCrlf = "\r\n\r\n";

HttpParseResult fail(HttpError& error, int status, std::string message) {
  error.status = status;
  error.message = std::move(message);
  return HttpParseResult::kError;
}

}  // namespace

HttpParseResult parse_http_request(std::string_view buffer,
                                   HttpRequest& request, HttpError& error) {
  // A bare LF-LF terminator is tolerated (curl never sends it, humans
  // with netcat do); anything else keeps accumulating until the bound.
  std::size_t head_end = buffer.find(kCrlfCrlf);
  if (head_end == std::string_view::npos) head_end = buffer.find("\n\n");
  if (head_end == std::string_view::npos) {
    if (buffer.size() > kMaxHttpRequestBytes) {
      return fail(error, 431,
                  "request head exceeds " +
                      std::to_string(kMaxHttpRequestBytes) + " bytes");
    }
    return HttpParseResult::kNeedMore;
  }
  const std::string_view head = buffer.substr(0, head_end);
  const std::size_t line_end = head.find('\n');
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  // Request line: METHOD SP TARGET SP VERSION — exactly two spaces.
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || line.find(' ', sp2 + 1) !=
                                        std::string_view::npos) {
    return fail(error, 400, "malformed request line");
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);

  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return fail(error, 505,
                "unsupported protocol version '" + std::string(version) + "'");
  }
  if (method != "GET") {
    return fail(error, 405, "method '" + std::string(method) +
                                "' not allowed; this endpoint is GET-only");
  }
  if (target.empty() || target.front() != '/') {
    return fail(error, 400,
                "request target must be an absolute path, got '" +
                    std::string(target) + "'");
  }
  for (const char c : target) {
    if (c < 0x21 || c == 0x7f) {
      return fail(error, 400, "control byte in request target");
    }
  }

  // Headers are skipped except Content-Length: a GET with a declared body
  // is refused (413) rather than having its body bytes misparsed as a
  // second request.
  const std::string_view headers =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 1);
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t eol = headers.find('\n', pos);
    if (eol == std::string_view::npos) eol = headers.size();
    std::string_view header = headers.substr(pos, eol - pos);
    pos = eol + 1;
    if (!header.empty() && header.back() == '\r') header.remove_suffix(1);
    const std::size_t colon = header.find(':');
    if (header.empty() || colon == std::string_view::npos) continue;
    std::string key(header.substr(0, colon));
    for (char& c : key) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    if (key != "content-length") continue;
    std::string_view value = header.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (value != "0") {
      return fail(error, 413, "request bodies are not accepted");
    }
  }

  const std::size_t q = target.find('?');
  request.method = std::string(method);
  request.path = std::string(target.substr(0, q));
  request.query =
      q == std::string_view::npos ? std::string() : std::string(target.substr(q + 1));
  return HttpParseResult::kRequest;
}

std::string_view http_status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

std::string render_http_response(int status, std::string_view content_type,
                                 std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " ";
  out += http_status_reason(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string render_http_error(const HttpError& error) {
  std::string body = std::to_string(error.status) + " ";
  body += http_status_reason(error.status);
  body += ": " + error.message + "\n";
  return render_http_response(error.status, "text/plain; charset=utf-8", body);
}

IoStatus HttpConnection::read_some() {
  char buf[4096];
  bool progressed = false;
  // One byte past the head bound is enough for the parser to prove the
  // 431; reading further would let a hostile peer stream forever.
  while (buffer_.size() <= kMaxHttpRequestBytes) {
    const std::size_t room = kMaxHttpRequestBytes + 1 - buffer_.size();
    const ssize_t n =
        ::recv(fd_.get(), buf, room < sizeof buf ? room : sizeof buf, 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      progressed = true;
      continue;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return progressed ? IoStatus::kOk : IoStatus::kWouldBlock;
    }
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

}  // namespace deepcat::net
