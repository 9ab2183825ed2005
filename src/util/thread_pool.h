// Fixed-size thread pool with a blocking `parallel_for`.
//
// BDLFI runs many independent forward passes (MCMC chains, grid cells of the
// decision-boundary map, injections of a baseline campaign); a simple static
// range partitioner is the right tool — work items are uniform and coarse.
// Reproducibility note: callers that need determinism must derive one RNG
// stream per *index range* (not per thread); `parallel_for_chunked` exposes
// the chunk id for exactly that purpose.
//
// Nesting. Pool workers call parallel_for on their own pool: an MCMC chain
// runs as a pool task, and its conv layers and GEMMs split their work across
// the same pool. Three rules make that safe and keep every core busy:
//  - Caller runs. A parallel_for_chunked call hands out its chunks through an
//    atomic cursor in heap-held shared state. Helper tasks queued on the pool
//    claim chunks from it, and a caller that is a worker of the same pool
//    claims chunks too before it waits. An outside caller (such as the main
//    thread dispatching chains) only waits, so a top-level call still has
//    exactly pool-size runnable threads.
//  - Own chunks only. A waiting caller runs chunks of its own call, never
//    unrelated queued tasks. Thread-local scratch relies on this (calls never
//    nest within a thread, see tensor/ops.cpp): a thread inside one conv's
//    loop body never starts another conv's loop body.
//  - No deadlock. A caller waits only for chunks that another thread has
//    claimed and is running. Such a chunk waits in turn only on chunks of
//    deeper calls that are likewise claimed and running, so by induction on
//    the nesting depth every wait ends, however many workers are busy. A
//    helper that starts after its call returned finds the cursor exhausted
//    and touches only the shared state, never the caller's stack.
// An exception thrown by a chunk is rethrown to the caller once every chunk
// has finished.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bdlfi::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Process-wide default pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

  /// Replaces the global pool with a freshly constructed one. A fork()ed
  /// child MUST call this before its first parallel_for: the pre-fork pool's
  /// worker threads do not exist in the child and its mutex state is
  /// unspecified, so the inherited object is abandoned untouched (leaked
  /// deliberately — destroying it would lock that mutex). `num_threads`
  /// follows the constructor's convention (0 = hardware concurrency); a fleet
  /// worker passes its per-worker core share so N workers collectively pin
  /// all cores without oversubscribing.
  static void reinit_after_fork(std::size_t num_threads = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [begin, end) across the pool; blocks until done.
/// Falls back to the calling thread for tiny ranges.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr);

/// Runs fn(chunk_id, chunk_begin, chunk_end) over a static partition of
/// [begin, end) into `num_chunks` contiguous ranges. chunk_id is stable across
/// runs and thread counts, so per-chunk RNG streams give deterministic output.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          std::size_t num_chunks,
                          const std::function<void(std::size_t, std::size_t,
                                                   std::size_t)>& fn,
                          ThreadPool* pool = nullptr);

}  // namespace bdlfi::util
