// Sink — the hand-off point between instrumented code and the obs layer.
//
// A Sink is a pair of non-owning pointers (metrics registry, tracer) plus
// the span id instrumentation should parent new spans under. Option
// structs across the stack (ServiceOptions, DeepCatOptions, Td3Config,
// OtterTuneOptions) embed one; a default-constructed Sink is inert and
// every record helper is a no-op, so un-instrumented callers pay a null
// check and nothing else. The pointers must outlive every component the
// sink was handed to.
//
// The trace_parent field is how parent/child structure crosses layer
// boundaries without thread-local state: the service opens a request
// span, stamps its id into the sink it passes down, and the tuner's
// spans attach under it — across whatever pool thread runs the session.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"

namespace deepcat::obs {

struct Sink {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Convergence history (reward best-so-far, rec-cost, TD3 losses);
  /// null = no time-series retention. See timeseries.hpp.
  TimeSeriesRegistry* series = nullptr;
  /// Parent span id for spans opened through this sink (0 = root).
  std::uint64_t trace_parent = 0;

  /// Appends one sample to a convergence series; inert without a
  /// TimeSeriesRegistry.
  void record_series(const std::string& name, double value) const {
    if (series != nullptr) series->append(name, value);
  }

  /// Copy of this sink with a different trace parent — the idiom for
  /// passing "your spans go under span X" down a layer.
  [[nodiscard]] Sink with_parent(std::uint64_t parent) const noexcept {
    Sink child = *this;
    child.trace_parent = parent;
    return child;
  }

  /// Opens a span under trace_parent; inert sink -> inert span (id 0).
  [[nodiscard]] Tracer::Span scope(std::string name) const {
    if (tracer == nullptr) return Tracer::Span(nullptr, 0);
    return tracer->scope(std::move(name), trace_parent);
  }
};

}  // namespace deepcat::obs
