// Peak malloc-heap use of the process, sampled from a background thread.
//
// The benchmark reports this instead of ru_maxrss: with chains running on
// whichever pool workers pick them up, glibc's per-thread arenas keep
// freed replicas resident in a varying number of arenas, so the peak RSS of
// one campaign varies between runs of the same seed and grows with every
// further campaign. The bytes the program holds in use do not.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

namespace bdlfi::campaign_bench {

/// Bytes currently allocated through malloc (arenas plus mmapped chunks).
std::size_t heap_in_use_bytes();

class HeapPeak {
 public:
  explicit HeapPeak(std::chrono::milliseconds period);
  ~HeapPeak();
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;

  /// Starts a new window: the peak becomes the current use.
  void reset();
  /// Peak of the current window, in MiB.
  double peak_mb();

 private:
  void loop();

  std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t peak_ = 0;
  std::thread thread_;  // declared last: starts after the state it reads
};

}  // namespace bdlfi::campaign_bench
