#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "obs/json.h"
#include "obs/trace.h"

namespace bdlfi::campaign_bench {

namespace {

/// Length of the union of [lo, hi) intervals, clipped to [from, to).
double covered_us(std::vector<std::pair<double, double>> intervals,
                  double from, double to) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = from;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, reach);
    hi = std::min(hi, to);
    if (hi <= lo) continue;
    covered += hi - lo;
    reach = hi;
  }
  return covered;
}

}  // namespace

std::uint64_t thread_tag() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t tag = next.fetch_add(1);
  return tag;
}

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {
  recorder_offset_us_ =
      static_cast<double>(obs::TraceRecorder::global().now_us());
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanLog::reserve_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void SpanLog::add(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SelfTimeRow> SpanLog::self_times() const {
  const std::vector<Span> spans = snapshot();
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::vector<SelfTimeRow> rows;
  std::map<std::string, std::size_t> index;
  for (const Span& s : spans) {
    const auto [it, fresh] = index.emplace(s.name, rows.size());
    if (fresh) rows.push_back({s.name, 0, 0.0, 0.0});
    SelfTimeRow& row = rows[it->second];
    const double dur = s.end_us - s.start_us;
    double child = s.dropped_child_us;
    if (auto c = children.find(s.id); c != children.end()) {
      child += covered_us(c->second, s.start_us, s.end_us);
    }
    ++row.count;
    row.total_s += dur * 1e-6;
    row.self_s += std::max(0.0, dur - child) * 1e-6;
  }
  return rows;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const Span& s : snapshot()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", "benchmark");
    w.field("ph", "X");
    w.field("ts", s.start_us + recorder_offset_us_);
    w.field("dur", s.end_us - s.start_us);
    w.field("pid", std::uint64_t{2});
    w.field("tid", s.tid);
    w.key("args").begin_object();
    w.field("id", s.id);
    w.field("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();

  // Splice the program's own events (pid 1) into our traceEvents array.
  std::string doc = w.str();
  const std::string program = obs::TraceRecorder::global().to_chrome_json();
  const auto open = program.find('[');
  const auto close = program.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    const std::string events = program.substr(open + 1, close - open - 1);
    const auto ours_close = doc.rfind(']');
    const bool ours_empty = doc[ours_close - 1] == '[';
    doc.insert(ours_close, (ours_empty ? "" : ",") + events);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool write_ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool close_ok = std::fclose(f) == 0;
  return write_ok && close_ok;
}

std::string format_self_times(const std::vector<SelfTimeRow>& rows,
                              double wall_s) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-18s %10s %12s %12s %8s\n", "span",
                "count", "total_s", "self_s", "self_%");
  out += line;
  for (const SelfTimeRow& r : rows) {
    std::snprintf(line, sizeof line, "%-18s %10zu %12.4f %12.4f %8.2f\n",
                  r.name.c_str(), r.count, r.total_s, r.self_s,
                  wall_s > 0.0 ? 100.0 * r.self_s / wall_s : 0.0);
    out += line;
  }
  return out;
}

}  // namespace bdlfi::campaign_bench
