// Span export sinks — where the tracer's completed spans go.
//
// Completed spans accumulate in a small ring inside the Tracer and are
// handed to a SpanSink in batches whenever the ring fills (synchronous
// back-pressure, never silent loss) and at flush points. Memory stays
// O(ring + open spans) however long the stream runs.
//
// Two sinks ship here:
//
//   * CallbackSpanSink — in-process fan-out to a std::function, for tests,
//     benchmarks and embedders that want spans as objects.
//   * ChromeTraceFileSink — the one Chrome-trace-format writer, with
//     valid-JSON-on-crash framing: after every batch the closing "]}"
//     tail is written and the write position rewound over it before the
//     next batch, so the stream parses as a complete trace at every flush
//     boundary even if the process dies mid-stream.
//
// Sinks are called with the Tracer's internal mutex held (that is what
// makes the ring drain a back-pressure point rather than a drop point),
// so a sink must never call back into the Tracer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace deepcat::obs {

/// One completed span, resolved to plain values. Ids are the Tracer's
/// monotonic span ids; parent 0 means root. Timestamps are whatever the
/// Tracer's Clock produced (ns).
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t tid = 0;
};

/// Destination for completed spans. export_spans receives batches in
/// completion order; flush() marks a durability point (end of stream,
/// Tracer destruction). Implementations must tolerate empty batches.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void export_spans(const SpanRecord* spans, std::size_t count) = 0;
  virtual void flush() {}
};

/// Hands each span to a callback; the simplest possible sink.
class CallbackSpanSink final : public SpanSink {
 public:
  using Callback = std::function<void(const SpanRecord&)>;
  explicit CallbackSpanSink(Callback on_span)
      : on_span_(std::move(on_span)) {}

  void export_spans(const SpanRecord* spans, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) on_span_(spans[i]);
  }

 private:
  Callback on_span_;
};

/// Streams spans into a Chrome-trace JSON document as they complete: one
/// "X" (complete) event per span with ts/dur in microseconds and the span
/// id and parent in args, in completion order, after metadata naming the
/// process and the clock kind.
///
/// Framing invariant: after construction and after every export_spans /
/// flush call the stream holds a structurally valid Chrome trace (header,
/// metadata event, every span exported so far, closing "]}" tail). Each
/// batch is written, with a fresh tail, in one write over the previous
/// tail and flushed — a crash loses at most the spans still in the
/// Tracer's ring, never the file's validity. The stream must therefore be
/// seekable (a file or a string stream).
class ChromeTraceFileSink final : public SpanSink {
 public:
  /// Writes the trace header to `out`, which the caller opened and keeps
  /// alive for the sink's lifetime. `clock_kind` lands in the otherData
  /// metadata ("steady" / "logical"). Throws std::invalid_argument when
  /// `out` cannot report its position (a pipe), before writing a span.
  ChromeTraceFileSink(std::ostream& out, const std::string& clock_kind);
  ~ChromeTraceFileSink() override;

  void export_spans(const SpanRecord* spans, std::size_t count) override;
  void flush() override;

 private:
  std::ostream& out_;
  std::ostream::pos_type tail_pos_{};
};

}  // namespace deepcat::obs
