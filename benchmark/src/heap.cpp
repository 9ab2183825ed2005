#include "heap.h"

#include <malloc.h>

#include <algorithm>

namespace bdlfi::campaign_bench {

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

HeapPeak::HeapPeak(std::chrono::milliseconds period)
    : period_(period), peak_(heap_in_use_bytes()), thread_([this] { loop(); }) {}

HeapPeak::~HeapPeak() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void HeapPeak::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_ = heap_in_use_bytes();
}

double HeapPeak::peak_mb() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_ = std::max(peak_, heap_in_use_bytes());
  return static_cast<double>(peak_) / (1024.0 * 1024.0);
}

void HeapPeak::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
    peak_ = std::max(peak_, heap_in_use_bytes());
  }
}

}  // namespace bdlfi::campaign_bench
