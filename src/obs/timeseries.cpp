#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace deepcat::obs {

namespace {

/// Shortest round-trip double formatting (printf %.17g trimmed by
/// retrying shorter precisions), matching the repo's JSON writers in
/// spirit: equal values serialize to equal bytes.
std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void fold_into(TimeSeriesPoint& into, const TimeSeriesPoint& p) {
  into.count += p.count;
  into.sum += p.sum;
  into.min = std::min(into.min, p.min);
  into.max = std::max(into.max, p.max);
  into.last = p.last;
}

}  // namespace

TimeSeriesRegistry::TimeSeriesRegistry(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity_ < 2 || capacity_ % 2 != 0) {
    throw std::invalid_argument(
        "TimeSeriesRegistry capacity must be an even number >= 2");
  }
}

void TimeSeriesRegistry::append(const std::string& name, double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_[name];
  const std::uint64_t index = s.total++;
  if (!s.points.empty() && s.points.back().count < s.stride) {
    TimeSeriesPoint& open = s.points.back();
    ++open.count;
    open.sum += value;
    open.min = std::min(open.min, value);
    open.max = std::max(open.max, value);
    open.last = value;
    return;
  }
  if (s.points.size() == capacity_) {
    // Ring is full of sealed points: fold adjacent pairs and double the
    // stride. capacity_ is even, so this exactly halves the ring.
    std::vector<TimeSeriesPoint> folded;
    folded.reserve(capacity_ / 2 + 1);
    for (std::size_t i = 0; i + 1 < s.points.size(); i += 2) {
      TimeSeriesPoint merged = s.points[i];
      fold_into(merged, s.points[i + 1]);
      folded.push_back(merged);
    }
    s.points = std::move(folded);
    s.stride *= 2;
  }
  TimeSeriesPoint p;
  p.index = index;
  p.count = 1;
  p.sum = p.min = p.max = p.last = value;
  s.points.push_back(p);
}

std::size_t TimeSeriesRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::vector<TimeSeriesSnapshot> TimeSeriesRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TimeSeriesSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    TimeSeriesSnapshot snap;
    snap.name = name;
    snap.total = s.total;
    snap.stride = s.stride;
    snap.points = s.points;
    out.push_back(std::move(snap));
  }
  return out;  // std::map iteration is already name-sorted
}

namespace {

std::string encode_points(const std::vector<TimeSeriesPoint>& points) {
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TimeSeriesPoint& p = points[i];
    if (i != 0) out += ';';
    out += std::to_string(p.index);
    out += ',';
    out += std::to_string(p.count);
    out += ',';
    out += format_double(p.sum);
    out += ',';
    out += format_double(p.min);
    out += ',';
    out += format_double(p.max);
    out += ',';
    out += format_double(p.last);
  }
  return out;
}

}  // namespace

void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeSeriesSnapshot>& series) {
  os << "{\"tser\":1,\"series\":" << series.size() << "}\n";
  for (const TimeSeriesSnapshot& s : series) {
    os << "{\"name\":\"" << common::json_escape(s.name)
       << "\",\"count\":" << s.total << ",\"stride\":" << s.stride
       << ",\"points\":\"" << encode_points(s.points) << "\"}\n";
  }
}

void write_timeseries_json(std::ostream& os,
                           const std::vector<TimeSeriesSnapshot>& series) {
  os << "{\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const TimeSeriesSnapshot& s = series[i];
    if (i != 0) os << ',';
    os << "{\"name\":\"" << common::json_escape(s.name)
       << "\",\"count\":" << s.total << ",\"stride\":" << s.stride
       << ",\"points\":[";
    for (std::size_t j = 0; j < s.points.size(); ++j) {
      const TimeSeriesPoint& p = s.points[j];
      if (j != 0) os << ',';
      os << '[' << p.index << ',' << p.count << ',' << format_double(p.sum)
         << ',' << format_double(p.min) << ',' << format_double(p.max) << ','
         << format_double(p.last) << ']';
    }
    os << "]}";
  }
  os << "]}";
}

std::vector<TimeSeriesPoint> parse_timeseries_points(
    const std::string& encoded) {
  std::vector<TimeSeriesPoint> out;
  if (encoded.empty()) return out;
  std::size_t pos = 0;
  while (pos <= encoded.size()) {
    const std::size_t end = encoded.find(';', pos);
    const std::string chunk =
        encoded.substr(pos, end == std::string::npos ? end : end - pos);
    std::vector<std::string> fields;
    std::size_t fpos = 0;
    for (;;) {
      const std::size_t comma = chunk.find(',', fpos);
      fields.push_back(chunk.substr(
          fpos, comma == std::string::npos ? comma : comma - fpos));
      if (comma == std::string::npos) break;
      fpos = comma + 1;
    }
    if (fields.size() != 6) {
      throw std::invalid_argument("malformed time-series point '" + chunk +
                                  "' (want 6 comma-separated fields)");
    }
    TimeSeriesPoint p;
    try {
      std::size_t used = 0;
      p.index = std::stoull(fields[0], &used);
      if (used != fields[0].size()) throw std::invalid_argument("index");
      p.count = std::stoull(fields[1], &used);
      if (used != fields[1].size()) throw std::invalid_argument("count");
      p.sum = std::stod(fields[2], &used);
      if (used != fields[2].size()) throw std::invalid_argument("sum");
      p.min = std::stod(fields[3], &used);
      if (used != fields[3].size()) throw std::invalid_argument("min");
      p.max = std::stod(fields[4], &used);
      if (used != fields[4].size()) throw std::invalid_argument("max");
      p.last = std::stod(fields[5], &used);
      if (used != fields[5].size()) throw std::invalid_argument("last");
    } catch (const std::exception&) {
      throw std::invalid_argument("malformed time-series point '" + chunk +
                                  "'");
    }
    out.push_back(p);
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return out;
}

std::string render_sparkline(const std::vector<TimeSeriesPoint>& points,
                             std::size_t width) {
  static const char* kCells[] = {"▁", "▂", "▃", "▄",
                                 "▅", "▆", "▇", "█"};
  if (points.empty() || width == 0) return "";
  const std::size_t begin =
      points.size() > width ? points.size() - width : 0;
  double lo = points[begin].last;
  double hi = points[begin].last;
  for (std::size_t i = begin; i < points.size(); ++i) {
    lo = std::min(lo, points[i].last);
    hi = std::max(hi, points[i].last);
  }
  const double span = hi - lo;
  std::string out;
  for (std::size_t i = begin; i < points.size(); ++i) {
    std::size_t cell = 0;
    if (span > 0.0) {
      cell = static_cast<std::size_t>(((points[i].last - lo) / span) * 7.0);
      cell = std::min<std::size_t>(cell, 7);
    }
    out += kCells[cell];
  }
  return out;
}

}  // namespace deepcat::obs
