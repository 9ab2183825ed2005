// The benchmark's own trace spans, recorded around its calls into each
// layer. Every span has a name, start, end, id and parent id; spans are kept
// in memory and written once the run ends, as a Chrome trace (merged with
// the program's obs::TraceRecorder events) and as a per-name self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bdlfi::campaign_bench {

struct Span {
  const char* name = "";  // string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t tid = 0;
  /// Time covered by children that were counted but not kept (hot-loop spans
  /// beyond the per-parent cap); part of the parent's child time.
  double dropped_child_us = 0.0;
};

/// Self time of every span sharing a name.
struct SelfTimeRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Thread-safe span store. Timestamps are microseconds on the steady clock
/// since the log was created.
class SpanLog {
 public:
  SpanLog();

  double now_us() const;
  /// A fresh span id, for spans whose children start before they end.
  std::uint64_t reserve_id();
  void add(const Span& span);
  void add(std::vector<Span> spans);

  std::size_t size() const;

  /// One row per span name, ordered by first appearance.
  std::vector<SelfTimeRow> self_times() const;

  /// Writes this log plus the program's TraceRecorder events as one Chrome
  /// trace. False on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> snapshot() const;

  std::chrono::steady_clock::time_point epoch_;
  double recorder_offset_us_ = 0.0;  // TraceRecorder time at our epoch
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Text table of `rows` (name, count, total, self, self share of `wall_s`).
std::string format_self_times(const std::vector<SelfTimeRow>& rows,
                              double wall_s);

/// A thread's stable small id for trace output.
std::uint64_t thread_tag();

}  // namespace bdlfi::campaign_bench
