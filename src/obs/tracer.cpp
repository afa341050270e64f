#include "obs/tracer.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace deepcat::obs {

Tracer::Tracer(Clock& clock, SpanSink& sink, TracerOptions options)
    : clock_(&clock), sink_(&sink), options_(options) {
  if (options_.ring_capacity == 0) {
    throw std::invalid_argument("Tracer: ring_capacity must be >= 1");
  }
  ring_.reserve(options_.ring_capacity);
  if (options_.health != nullptr) {
    // Emitted (completed) spans are a pure function of the work, so the
    // counter is deterministic; how deep the ring got and how many spans
    // were refused under open-span pressure are scheduling artifacts.
    health_emitted_ = &options_.health->counter("obs.spans.emitted");
    health_dropped_ =
        &options_.health->counter("obs.spans.dropped", /*deterministic=*/false);
    health_ring_highwater_ = &options_.health->gauge(
        "obs.spans.ring_highwater", /*deterministic=*/false);
  }
}

Tracer::~Tracer() { flush_exporter(); }

std::uint32_t Tracer::tid_for_current_thread_locked() {
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  return it->second;
}

void Tracer::drain_ring_locked() {
  if (ring_.empty()) return;
  if (health_ring_highwater_ != nullptr) {
    // Publish the tracked lifetime highwater, not the instantaneous depth:
    // a partial drain at flush time must not understate how deep the ring
    // ever got (the TELE pin reads this gauge's max).
    health_ring_highwater_->set(static_cast<double>(ring_highwater_));
  }
  sink_->export_spans(ring_.data(), ring_.size());
  exported_ += ring_.size();
  ring_.clear();
}

std::uint64_t Tracer::attach_locked(std::uint64_t parent,
                                    const std::string& name) {
  // A parent that already completed has left the open map; its child
  // exports re-parented to root. Instrumented code in this repo always
  // closes parents after children, so this is a defensive path, not a hot
  // one.
  const auto parent_it = parent == 0 ? open_.end() : open_.find(parent);
  const bool open = parent_it != open_.end();
  ++edges_[{open ? parent_it->second.name : std::string(), name}];
  return open ? parent : 0;
}

void Tracer::complete_locked(SpanRecord span) {
  ring_.push_back(std::move(span));
  ring_highwater_ = std::max(ring_highwater_, ring_.size());
  if (health_emitted_ != nullptr) health_emitted_->add(1);
  if (ring_.size() >= options_.ring_capacity) drain_ring_locked();
}

std::uint64_t Tracer::begin_span(std::string name, std::uint64_t parent) {
  std::lock_guard lock(mutex_);
  // Completed spans leave through the sink, so only the simultaneously
  // open set is capped — refusing here is back-pressure against a span
  // leak, not history truncation.
  if (open_.size() >= options_.max_spans) {
    ++dropped_;
    if (health_dropped_ != nullptr) health_dropped_->add(1);
    return 0;
  }
  SpanRecord rec;
  rec.parent = attach_locked(parent, name);
  rec.name = std::move(name);
  rec.id = next_id_++;
  rec.t0 = clock_->now_ns();
  rec.tid = tid_for_current_thread_locked();
  const std::uint64_t id = rec.id;
  open_.emplace(id, std::move(rec));
  return id;
}

void Tracer::end_span(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard lock(mutex_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // unknown or already ended
  SpanRecord out = std::move(it->second);
  open_.erase(it);
  out.t1 = clock_->now_ns();
  complete_locked(std::move(out));
}

std::uint64_t Tracer::add_complete_span(std::string name, std::uint64_t parent,
                                        std::uint64_t t0_ns,
                                        std::uint64_t duration_ns) {
  std::lock_guard lock(mutex_);
  SpanRecord out;
  out.parent = attach_locked(parent, name);
  out.name = std::move(name);
  out.id = next_id_++;
  out.t0 = t0_ns;
  out.t1 = t0_ns + duration_ns;
  out.tid = tid_for_current_thread_locked();
  const std::uint64_t id = out.id;
  complete_locked(std::move(out));
  return id;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mutex_);
  return open_.size() + ring_.size() + static_cast<std::size_t>(exported_);
}

std::size_t Tracer::dropped_spans() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::size_t Tracer::retained_spans() const {
  std::lock_guard lock(mutex_);
  return open_.size() + ring_.size();
}

std::size_t Tracer::exported_spans() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(exported_);
}

std::size_t Tracer::ring_highwater() const {
  std::lock_guard lock(mutex_);
  return ring_highwater_;
}

void Tracer::flush_exporter() {
  std::lock_guard lock(mutex_);
  drain_ring_locked();
  sink_->flush();
}

std::string Tracer::structure_signature() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  for (const auto& [edge, count] : edges_) {
    out << edge.first << '>' << edge.second << ' ' << count << '\n';
  }
  return out.str();
}

namespace {

// Splits the top-level objects of a JSON array body by brace matching,
// skipping string contents. `pos` points just past the '['.
std::vector<std::string> split_array_objects(const std::string& json,
                                             std::size_t pos, bool& ok) {
  std::vector<std::string> objects;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  std::size_t start = std::string::npos;
  for (; pos < json.size(); ++pos) {
    const char c = json[pos];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = pos;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0 && start != std::string::npos) {
        objects.push_back(json.substr(start, pos - start + 1));
        start = std::string::npos;
      }
      if (depth < 0) break;
    } else if (c == ']' && depth == 0) {
      ok = true;
      return objects;
    }
  }
  ok = false;
  return objects;
}

}  // namespace

ChromeTraceCheck validate_chrome_trace(const std::string& json) {
  ChromeTraceCheck check;
  const std::size_t key = json.find("\"traceEvents\"");
  if (key == std::string::npos) {
    check.error = "missing traceEvents key";
    return check;
  }
  const std::size_t open = json.find('[', key);
  if (open == std::string::npos) {
    check.error = "traceEvents is not an array";
    return check;
  }
  bool closed = false;
  const auto objects = split_array_objects(json, open + 1, closed);
  if (!closed) {
    check.error = "traceEvents array is not terminated";
    return check;
  }
  for (const auto& obj : objects) {
    for (const char* field : {"\"name\"", "\"ph\"", "\"ts\"", "\"pid\"",
                              "\"tid\""}) {
      if (obj.find(field) == std::string::npos) {
        // Metadata events carry no ts; allow that one exemption.
        if (std::string(field) == "\"ts\"" &&
            obj.find("\"ph\":\"M\"") != std::string::npos) {
          continue;
        }
        check.error = "event missing field " + std::string(field);
        return check;
      }
    }
    if (obj.find("\"ph\":\"X\"") != std::string::npos) {
      if (obj.find("\"dur\"") == std::string::npos) {
        check.error = "complete event missing dur";
        return check;
      }
      ++check.complete_events;
    }
  }
  check.events = objects.size();
  check.ok = true;
  return check;
}

}  // namespace deepcat::obs
