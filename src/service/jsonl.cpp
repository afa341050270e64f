#include "service/jsonl.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace deepcat::service {

namespace {

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
}

void expect(const std::string& s, std::size_t& i, char c,
            const char* what) {
  skip_ws(s, i);
  if (i >= s.size() || s[i] != c) {
    throw std::invalid_argument(std::string("malformed JSON: expected ") +
                                what);
  }
  ++i;
}

/// A unicode escape (its 'u' already read) appended as UTF-8: a surrogate
/// pair becomes one 4-byte sequence; a lone or reversed surrogate fails.
void parse_unicode_escape(const std::string& s, std::size_t& i,
                          std::string& out) {
  const auto hex4 = [&s, &i] {  // four hex digits, either case
    std::uint32_t value = 0;
    const char* begin = s.data() + i;
    if (s.size() - i < 4 ||
        std::from_chars(begin, begin + 4, value, 16).ptr != begin + 4) {
      throw std::invalid_argument("malformed JSON: invalid \\u escape");
    }
    i += 4;
    return value;
  };
  std::uint32_t code = hex4();
  if (code >= 0xD800 && code <= 0xDFFF) {
    std::uint32_t low = 0;
    if (code <= 0xDBFF && s.compare(i, 2, "\\u") == 0) {
      i += 2;
      low = hex4();
    }
    if (low < 0xDC00 || low > 0xDFFF) {
      throw std::invalid_argument(
          "malformed JSON: unpaired surrogate in \\u escape");
    }
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }
  // A lead byte with the top bits, then six bits per continuation byte.
  const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  static constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  out.push_back(static_cast<char>(kLead[tail] | code >> (6 * tail)));
  for (int k = tail - 1; k >= 0; --k) {
    out.push_back(static_cast<char>(0x80 | (code >> (6 * k) & 0x3F)));
  }
}

std::string parse_string(const std::string& s, std::size_t& i) {
  expect(s, i, '"', "'\"'");
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    // JSON strings may not hold raw control bytes; one copied into an id
    // would come back in the REP or ERR, which strict readers reject.
    if (static_cast<unsigned char>(c) < 0x20) {
      throw std::invalid_argument(
          "malformed JSON: unescaped control character");
    }
    if (c == '\\') {
      if (i >= s.size()) break;
      const char esc = s[i++];
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'u':
          parse_unicode_escape(s, i, out);
          continue;
        default:
          throw std::invalid_argument(
              "malformed JSON: unsupported escape sequence");
      }
    }
    out.push_back(c);
  }
  if (i >= s.size()) {
    throw std::invalid_argument("malformed JSON: unterminated string");
  }
  ++i;  // closing quote
  return out;
}

/// The one numeric field reader: the WHOLE of `text` must parse as a T. No
/// leading sign on an unsigned T, no trailing characters, no overflow, and
/// a double must be finite; anything else is nullopt.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

std::string parse_scalar(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  if (i < s.size() && s[i] == '"') return parse_string(s, i);
  // Bare token: number, true, false, null — taken until , } or whitespace.
  const std::size_t start = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' &&
         std::isspace(static_cast<unsigned char>(s[i])) == 0) {
    ++i;
  }
  if (i == start) {
    throw std::invalid_argument("malformed JSON: expected a value");
  }
  return s.substr(start, i - start);
}

}  // namespace

std::map<std::string, std::string> parse_flat_json(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  expect(line, i, '{', "'{'");
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') return out;
  for (;;) {
    skip_ws(line, i);
    const std::string key = parse_string(line, i);
    expect(line, i, ':', "':'");
    // A repeated key is an error, not last-one-wins: {"steps":1,"steps":
    // 500000} must not silently run the second value.
    if (!out.try_emplace(key, parse_scalar(line, i)).second) {
      throw std::invalid_argument("malformed JSON: duplicate key \"" + key +
                                  "\"");
    }
    skip_ws(line, i);
    if (i >= line.size()) {
      throw std::invalid_argument("malformed JSON: missing '}'");
    }
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') break;
    throw std::invalid_argument("malformed JSON: expected ',' or '}'");
  }
  return out;
}

TuningRequest parse_request_json(const std::string& line, std::size_t index) {
  const auto fields = parse_flat_json(line);
  TuningRequest req;
  req.id = "req-" + std::to_string(index);
  req.seed = index + 1;
  if (const auto it = fields.find("id"); it != fields.end()) {
    req.id = it->second;
  }
  // Only keys read below are accepted: a misspelt "stpes" must fail typed,
  // not run the default 5 steps.
  static constexpr std::array<std::string_view, 10> kKeys = {
      "id",    "workload", "cluster", "steps", "budget_seconds",
      "seed",  "model",    "warm",    "trace", "span"};
  for (const auto& [key, value] : fields) {
    if (std::find(kKeys.begin(), kKeys.end(), key) == kKeys.end()) {
      throw std::invalid_argument(
          "request '" + req.id + "' has an unknown key \"" + key +
          "\" (want id, workload, cluster, steps, budget_seconds, seed, "
          "model, warm, trace or span)");
    }
  }
  if (const auto it = fields.find("workload"); it != fields.end()) {
    req.workload = it->second;
  } else {
    throw std::invalid_argument("request '" + req.id +
                                "' is missing the \"workload\" key");
  }
  if (const auto it = fields.find("cluster"); it != fields.end()) {
    req.cluster = it->second;
  }
  const auto bad_value = [&](const char* key, const std::string& value,
                             const char* want) {
    return std::invalid_argument("request '" + req.id + "' has an invalid \"" +
                                 key + "\" value '" + value + "' (" + want +
                                 ")");
  };
  if (const auto it = fields.find("steps"); it != fields.end()) {
    const auto steps = parse_whole<int>(it->second);
    if (!steps || *steps < 1) {
      throw bad_value("steps", it->second, "want a whole number >= 1");
    }
    req.max_steps = *steps;
  }
  if (const auto it = fields.find("budget_seconds"); it != fields.end()) {
    const auto budget = parse_whole<double>(it->second);
    if (!budget || *budget <= 0.0) {
      throw bad_value("budget_seconds", it->second,
                      "want a finite number > 0");
    }
    req.max_total_seconds = *budget;
  }
  if (const auto it = fields.find("seed"); it != fields.end()) {
    const auto seed = parse_whole<std::uint64_t>(it->second);
    if (!seed) {
      throw bad_value("seed", it->second,
                      "want an unsigned 64-bit whole number");
    }
    req.seed = *seed;
  }
  if (const auto it = fields.find("model"); it != fields.end()) {
    req.model = it->second;
  }
  if (const auto it = fields.find("warm"); it != fields.end()) {
    const auto warm = parse_whole<int>(it->second);
    if (!warm) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a non-integer \"warm\" count '" +
                                  it->second + "'");
    }
    if (*warm < 0) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a negative \"warm\" count");
    }
    req.warm_k = *warm;
  }
  if (const auto it = fields.find("trace"); it != fields.end()) {
    // Mirrors the "warm" precedent: a malformed trace context is a typed
    // parse error, never a silently-untraced session.
    if (it->second.empty()) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has an empty \"trace\" id");
    }
    req.trace_id = it->second;
  }
  if (const auto it = fields.find("span"); it != fields.end()) {
    if (req.trace_id.empty()) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a \"span\" id without a \"trace\"");
    }
    const auto span = parse_whole<std::uint64_t>(it->second);
    if (!span) {
      throw std::invalid_argument("request '" + req.id +
                                  "' has a non-integer \"span\" id '" +
                                  it->second + "'");
    }
    req.trace_span = *span;
  }
  return req;
}

std::vector<TuningRequest> parse_requests_jsonl(std::istream& is) {
  std::vector<TuningRequest> requests;
  std::string line;
  std::size_t index = 0;
  while (std::getline(is, line)) {
    std::size_t i = 0;
    skip_ws(line, i);
    if (i >= line.size()) continue;  // blank line
    requests.push_back(parse_request_json(line, index));
    ++index;
  }
  return requests;
}

namespace {

void write_report_body(std::ostream& os, const SessionReport& r,
                       bool with_routing, std::uint64_t model_epoch) {
  os.precision(17);
  os << "{\"id\":\"" << common::json_escape(r.id) << "\",\"workload\":\""
     << common::json_escape(r.workload) << "\",\"cluster\":\""
     << common::json_escape(r.cluster) << "\"";
  if (with_routing) {
    os << ",\"model\":\"" << common::json_escape(r.model)
       << "\",\"model_epoch\":" << model_epoch;
  }
  os << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    os << ",\"error\":\"" << common::json_escape(r.error) << "\"}\n";
    return;
  }
  // Cold sessions omit the key entirely so pre-warm transcripts (and their
  // golden files) stay byte-identical.
  if (r.warm_seeds > 0) os << ",\"warm\":" << r.warm_seeds;
  // Traced sessions echo the client's trace id plus the deterministic
  // server span id; untraced REPs omit both keys (byte-identity again).
  if (!r.trace_id.empty()) {
    os << ",\"trace\":\"" << common::json_escape(r.trace_id)
       << "\",\"span\":" << r.server_span;
  }
  // Gated per-stage timing block (StreamingOptions.reply_timings).
  if (r.timings.has_value()) {
    os << ",\"t_decode_ns\":" << r.timings->decode_ns
       << ",\"t_queue_ns\":" << r.timings->queue_ns
       << ",\"t_session_ns\":" << r.timings->session_ns
       << ",\"t_merge_ns\":" << r.timings->merge_ns
       << ",\"t_write_ns\":" << r.timings->write_ns;
  }
  os << ",\"steps\":" << r.report.steps.size()
     << ",\"default_time\":" << r.report.default_time
     << ",\"best_time\":" << r.report.best_time
     << ",\"speedup\":" << r.report.speedup_over_default()
     << ",\"eval_seconds\":" << r.report.total_evaluation_seconds()
     << ",\"rec_seconds\":" << r.report.total_recommendation_seconds()
     << ",\"mean_reward\":" << r.mean_reward();
  // Streaming sessions append their re-adaptation accounting; batch REPs
  // carry none of these keys, so existing goldens are untouched.
  if (r.report.stream.has_value()) {
    const sparksim::StreamSummary& ss = *r.report.stream;
    os << ",\"objective\":\"" << to_string(r.report.objective) << "\""
       << ",\"phases\":" << ss.phases << ",\"windows\":" << ss.windows
       << ",\"shifts\":" << ss.shifts.size()
       << ",\"recovered\":" << (ss.all_recovered() ? "true" : "false");
    os << ",\"recovery_evals\":\"";
    for (std::size_t i = 0; i < ss.shifts.size(); ++i) {
      if (i > 0) os << ',';
      os << (ss.shifts[i].recovered ? std::to_string(ss.shifts[i].recovery_evals)
                                    : std::string("-"));
    }
    os << "\",\"final_p95_s\":" << ss.final_p95_s;
  }
  os << "}\n";
}

}  // namespace

void write_report_jsonl(std::ostream& os, const SessionReport& r) {
  write_report_body(os, r, /*with_routing=*/false, 0);
}

void write_report_jsonl(std::ostream& os, const SessionReport& r,
                        std::uint64_t model_epoch) {
  write_report_body(os, r, /*with_routing=*/true, model_epoch);
}

namespace {

/// The one serializer for the aggregate metrics fields — the batch line
/// and the TELE aggregate line both call it, so the flat keys cannot drift
/// apart.
/// Writes the keys only; the caller owns the braces (and any keys before
/// or after).
void write_metrics_body(std::ostream& os, const ServiceMetrics& m) {
  os.precision(17);
  os << "\"aggregate\":true,\"sessions\":" << m.sessions_served
     << ",\"failed\":" << m.sessions_failed
     << ",\"evaluations\":" << m.evaluations_paid
     << ",\"eval_seconds\":" << m.evaluation_seconds
     << ",\"rec_seconds\":" << m.recommendation_seconds
     << ",\"p50_rec_seconds\":" << m.p50_recommendation_seconds
     << ",\"p95_rec_seconds\":" << m.p95_recommendation_seconds
     << ",\"mean_reward\":" << m.mean_session_reward
     << ",\"mean_speedup\":" << m.mean_speedup
     << ",\"merges\":" << m.merges
     << ",\"merged_transitions\":" << m.merged_transitions
     << ",\"fine_tune_steps\":" << m.fine_tune_steps;
}

/// Deterministic subset: the integer fields only. The float aggregates
/// (second totals, means, tracker quantiles) accumulate in completion
/// order, so their low-order bits depend on scheduling; the deterministic
/// TELE payload leaves them to the registry's fixed-point instruments.
void write_metrics_body_deterministic(std::ostream& os,
                                      const ServiceMetrics& m) {
  os << "\"aggregate\":true,\"sessions\":" << m.sessions_served
     << ",\"failed\":" << m.sessions_failed
     << ",\"evaluations\":" << m.evaluations_paid
     << ",\"merges\":" << m.merges
     << ",\"merged_transitions\":" << m.merged_transitions
     << ",\"fine_tune_steps\":" << m.fine_tune_steps;
}

void write_build_labels(std::ostream& os, const obs::BuildInfo& build) {
  os << ",\"version\":\"" << common::json_escape(build.version) << "\""
     << ",\"backend\":\"" << common::json_escape(build.backend) << "\""
     << ",\"simd_compiled\":" << (build.simd_compiled ? "true" : "false")
     << ",\"threads\":" << build.threads;
}

}  // namespace

void write_metrics_jsonl(std::ostream& os, const ServiceMetrics& m) {
  os << '{';
  write_metrics_body(os, m);
  os << "}\n";
}

void write_telemetry_payload(std::ostream& os, const ServiceMetrics& m,
                             const obs::BuildInfo& build,
                             const obs::MetricsRegistry* registry,
                             bool include_nondeterministic) {
  os << "{\"tele\":" << kTelemetrySchemaVersion << ",\"deterministic\":"
     << (include_nondeterministic ? "false" : "true") << ',';
  if (include_nondeterministic) {
    write_metrics_body(os, m);
  } else {
    write_metrics_body_deterministic(os, m);
  }
  write_build_labels(os, build);
  os << "}\n";
  if (registry != nullptr) {
    registry->write_jsonl(os, include_nondeterministic);
  }
}

}  // namespace deepcat::service
