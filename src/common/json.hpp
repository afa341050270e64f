// The one JSON string escaper. Every writer that emits a JSON string value
// (REP/ERR payloads, TELE, the metrics JSONL, /timeseries, Chrome traces)
// calls it, so one rule decides what a strict JSON reader will accept.
#pragma once

#include <string>
#include <string_view>

namespace deepcat::common {

/// Escapes `s` for use between the quotes of a JSON string: `"` and `\`
/// are backslash-escaped, newline, tab and carriage return become \n \t
/// \r, and every other byte below 0x20 becomes \u00XX. All other bytes
/// (UTF-8 included) pass through unchanged.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace deepcat::common
