// Span tracer with explicit parent/child links and an injectable clock.
// Completed spans stream out through a SpanSink (exporter.hpp); the
// ChromeTraceFileSink turns them into a Chrome-trace-format file (load it
// in chrome://tracing or https://ui.perfetto.dev).
//
// Spans are explicit: begin_span() returns an id, the caller threads it to
// children as `parent`, end_span() closes it. No thread-local implicit
// stack — in this codebase a request's work hops across pool threads
// (admission thread -> session worker -> merge under the flush barrier),
// so "current span" is a property of the request, not the thread. The
// Sink (sink.hpp) carries the parent id across layer boundaries.
//
// Storage: completed spans land in a bounded ring and are drained to the
// SpanSink whenever the ring fills and at flush_exporter(). Memory is
// O(ring_capacity + open spans) whatever the stream length; a full ring
// drains synchronously (back-pressure) instead of dropping, so
// dropped_spans() counts only spans refused because too many were
// simultaneously *open* (> max_spans), never completed-span history. An
// unended span never reaches the sink.
//
// Determinism: with a LogicalClock, timestamps are tick numbers and the
// *structure* of the trace (the multiset of parent-name -> span-name
// edges) is a pure function of the work performed — invariant across
// thread counts and arrival shuffles (the edge multiset is maintained
// incrementally at begin_span, so export never loses it). Tick assignment
// order still depends on interleaving, so golden tests compare
// structure_signature(), not bytes. See DESIGN.md §10.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/exporter.hpp"

namespace deepcat::obs {

class MetricsRegistry;
class Counter;
class Gauge;

struct TracerOptions {
  /// Cap on simultaneously OPEN spans; beyond it begin_span() drops
  /// (returns 0) and counts. Completed spans stream out and are never
  /// capped.
  std::size_t max_spans = 1u << 20;
  /// Completed-span ring size. A full ring drains to the sink
  /// synchronously (back-pressure, no loss). Must be >= 1.
  std::size_t ring_capacity = 256;
  /// Optional registry for tracer health instruments
  /// (obs.spans.emitted/dropped/ring_highwater) so trace loss is visible
  /// in the metrics snapshot, not only via accessors. Must outlive the
  /// tracer.
  MetricsRegistry* health = nullptr;
};

class Tracer {
 public:
  /// `sink` receives every completed span and must outlive the tracer.
  Tracer(Clock& clock, SpanSink& sink, TracerOptions options = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Clock& clock() noexcept { return *clock_; }

  /// Opens a span. parent = 0 means root; a parent that is not open (it
  /// ended, or was dropped) also makes the span a root. Returns the span
  /// id (> 0; ids count up from 1 in begin order), or 0 when the open-span
  /// cap was hit — 0 is always safe to pass as a parent and to end_span().
  [[nodiscard]] std::uint64_t begin_span(std::string name,
                                         std::uint64_t parent = 0);

  /// Closes a span by id; id 0 is a no-op. Closing twice keeps the first
  /// end time.
  void end_span(std::uint64_t id);

  /// Records an already-timed span with explicit start/duration, bypassing
  /// the clock. Used to graft timings measured elsewhere into this trace: the
  /// stats client turns a REP's t_*_ns stage block into child spans of its
  /// local rpc span, so one Chrome-trace file shows the request's full
  /// life across both processes. The span is born complete, so it never
  /// counts against the open-span cap. Returns the span id.
  std::uint64_t add_complete_span(std::string name, std::uint64_t parent,
                                  std::uint64_t t0_ns,
                                  std::uint64_t duration_ns);

  /// RAII helper: ends the span on scope exit.
  class Span {
   public:
    Span(Tracer* tracer, std::uint64_t id) noexcept
        : tracer_(tracer), id_(id) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& other) noexcept : tracer_(other.tracer_), id_(other.id_) {
      other.tracer_ = nullptr;
      other.id_ = 0;
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->end_span(id_);
    }
    /// Id to pass to children as their parent.
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    std::uint64_t id_;
  };

  [[nodiscard]] Span scope(std::string name, std::uint64_t parent = 0) {
    return Span(this, begin_span(std::move(name), parent));
  }

  /// Spans begun and not dropped: open + ringed + exported.
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::size_t dropped_spans() const;

  /// Spans currently held in memory: the open map plus the ring. The
  /// streaming determinism stress asserts this stays O(ring_capacity +
  /// concurrency).
  [[nodiscard]] std::size_t retained_spans() const;
  /// Completed spans handed to the sink so far.
  [[nodiscard]] std::size_t exported_spans() const;
  /// Deepest the completed-span ring ever got (<= ring_capacity).
  [[nodiscard]] std::size_t ring_highwater() const;

  /// Drains the ring to the sink and flushes it, making everything
  /// completed so far durable. The destructor calls this.
  void flush_exporter();

  /// Deterministic structural digest: name-sorted lines
  /// "<parent-name>><name> <count>\n" with "" as the root parent. Two
  /// logical-clock runs of the same work produce identical signatures
  /// whatever the interleaving.
  [[nodiscard]] std::string structure_signature() const;

 private:
  /// Requires mutex_ held. Hands the ring to the sink and clears it.
  void drain_ring_locked();
  /// Requires mutex_ held. Counts the span's parent-name -> name edge and
  /// returns its effective parent: `parent` if open, else 0 (root).
  std::uint64_t attach_locked(std::uint64_t parent, const std::string& name);
  /// Requires mutex_ held. Appends a completed span to the ring, draining
  /// it when full.
  void complete_locked(SpanRecord span);
  [[nodiscard]] std::uint32_t tid_for_current_thread_locked();

  Clock* clock_;
  SpanSink* sink_;
  TracerOptions options_;
  mutable std::mutex mutex_;

  // Monotonically id'd open spans (t1 unset) + the completed ring.
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, SpanRecord> open_;
  std::vector<SpanRecord> ring_;
  std::size_t ring_highwater_ = 0;
  std::uint64_t exported_ = 0;

  // Parent-name -> name edge multiset, maintained incrementally so the
  // structural digest survives export.
  std::map<std::pair<std::string, std::string>, std::uint64_t> edges_;

  std::map<std::thread::id, std::uint32_t> tids_;
  std::uint64_t dropped_ = 0;

  // Health instruments (null when options_.health is null).
  Counter* health_emitted_ = nullptr;
  Counter* health_dropped_ = nullptr;
  Gauge* health_ring_highwater_ = nullptr;
};

/// Structural validation of a Chrome trace JSON document, for tests and
/// the CLI smoke checks: verifies the traceEvents array exists, every
/// event object has name/ph/ts/pid/tid, and "X" events carry dur.
struct ChromeTraceCheck {
  bool ok = false;
  std::size_t events = 0;
  std::size_t complete_events = 0;
  std::string error;
};

[[nodiscard]] ChromeTraceCheck validate_chrome_trace(const std::string& json);

}  // namespace deepcat::obs
