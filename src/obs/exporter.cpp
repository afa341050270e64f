#include "obs/exporter.hpp"

#include <ios>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/json.hpp"

namespace deepcat::obs {

namespace {

constexpr std::string_view kTail = "\n]}\n";

}  // namespace

ChromeTraceFileSink::ChromeTraceFileSink(std::ostream& out,
                                         const std::string& clock_kind)
    : out_(out) {
  if (out_.tellp() == std::ostream::pos_type(-1)) {
    throw std::invalid_argument(
        "Chrome trace output is not seekable (a pipe?); write it to a file");
  }
  out_ << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\""
       << common::json_escape(clock_kind)
       << "\",\"tool\":\"deepcat\"},\"traceEvents\":[\n";
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"deepcat\"}}";
  tail_pos_ = out_.tellp();
  out_ << kTail;
  out_.flush();
}

ChromeTraceFileSink::~ChromeTraceFileSink() { flush(); }

void ChromeTraceFileSink::export_spans(const SpanRecord* spans,
                                       std::size_t count) {
  if (count == 0) return;
  std::ostringstream batch;
  batch.setf(std::ios::fixed, std::ios::floatfield);
  batch.precision(3);
  for (std::size_t i = 0; i < count; ++i) {
    const SpanRecord& rec = spans[i];
    const double ts_us = static_cast<double>(rec.t0) / 1000.0;
    const double dur_us = rec.t1 >= rec.t0
                              ? static_cast<double>(rec.t1 - rec.t0) / 1000.0
                              : 0.0;
    batch << ",\n{\"name\":\"" << common::json_escape(rec.name)
          << "\",\"cat\":\"deepcat\",\"ph\":\"X\",\"ts\":" << ts_us
          << ",\"dur\":" << dur_us << ",\"pid\":1,\"tid\":" << rec.tid
          << ",\"args\":{\"id\":" << rec.id << ",\"parent\":" << rec.parent
          << "}}";
  }
  std::string text = std::move(batch).str();
  const auto events = static_cast<std::streamoff>(text.size());
  text += kTail;
  // The events and the new tail go out in one write over the old tail, so
  // the output moves from one complete trace to the next.
  out_.seekp(tail_pos_);
  out_.write(text.data(), static_cast<std::streamsize>(text.size()));
  out_.flush();
  tail_pos_ += events;
}

void ChromeTraceFileSink::flush() { out_.flush(); }

}  // namespace deepcat::obs
