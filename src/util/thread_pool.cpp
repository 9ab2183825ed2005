#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/metrics.h"
#include "util/check.h"

namespace bdlfi::util {

namespace {

// Pool gauges, registered once. queue_depth counts submitted-but-unstarted
// tasks; active_workers counts tasks currently executing, so
// active_workers / pool-size is the utilization the reporter surfaces.
struct PoolMetrics {
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("pool.queue_depth");
  obs::Gauge& active_workers =
      obs::MetricsRegistry::global().gauge("pool.active_workers");
  obs::Counter& tasks =
      obs::MetricsRegistry::global().counter("pool.tasks_completed");
  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

// The pool whose worker_loop this thread runs (nullptr outside any pool).
// parallel_for_chunked uses it to tell a nested caller from an outside one.
thread_local const ThreadPool* tl_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    BDLFI_CHECK_MSG(!stop_, "submit() on a stopped ThreadPool");
    queue_.push(std::move(task));
    ++in_flight_;
    if (obs::enabled()) {
      PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
    }
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  tl_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      if (obs::enabled()) {
        PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
        PoolMetrics::get().active_workers.add(1.0);
      }
    }
    task();
    if (obs::enabled()) {
      PoolMetrics::get().active_workers.add(-1.0);
      PoolMetrics::get().tasks.add();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {
// Heap-allocated so reinit_after_fork can swap it atomically; never
// destroyed (worker threads may still be parked in it at static-destruction
// time, and the object stays reachable through the pointer, so this is not a
// leak).
std::atomic<ThreadPool*> g_global_pool{nullptr};
std::mutex g_global_pool_mu;
}  // namespace

ThreadPool& ThreadPool::global() {
  ThreadPool* pool = g_global_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  pool = g_global_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool();
    g_global_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::reinit_after_fork(std::size_t num_threads) {
  // The pre-fork pool (if any) is abandoned: only this thread exists in the
  // child, so no lock is needed and none may be taken on the old object.
  g_global_pool.store(new ThreadPool(num_threads), std::memory_order_release);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  if (n <= 1 || pool->size() == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, pool->size() * 4);
  parallel_for_chunked(
      begin, end, chunks,
      [&fn](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      pool);
}

namespace {

// Shared state of one parallel_for_chunked call. It lives on the heap and is
// co-owned by every helper task, because a helper may start after the call
// has returned (other threads claimed every chunk). Such a helper finds the
// cursor exhausted and touches nothing else: `fn` is dereferenced only after
// a successful claim, and the call cannot return before every claimed chunk
// is done, so a claimed chunk always sees the caller's `fn` alive.
struct ChunkedCall {
  using Fn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  ChunkedCall(std::size_t begin, std::size_t n, std::size_t num_chunks,
              const Fn& fn)
      : begin(begin),
        num_chunks(num_chunks),
        base(n / num_chunks),
        extra(n % num_chunks),
        fn(&fn) {}

  // Claims and runs chunks until the cursor is exhausted. Chunk c always
  // covers the same static range, whichever thread claims it.
  void run() {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= num_chunks) return;
      const std::size_t lo = begin + c * base + std::min(c, extra);
      const std::size_t hi = lo + base + (c < extra ? 1 : 0);
      std::exception_ptr error;
      try {
        (*fn)(c, lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (error && !first_error) first_error = error;
      if (++done == num_chunks) cv.notify_all();
    }
  }

  // Blocks until every chunk has finished, then rethrows the first exception
  // a chunk raised (the caller's frame must outlive every running chunk, so
  // an exception may not unwind it early).
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done == num_chunks; });
    if (first_error) std::rethrow_exception(first_error);
  }

  const std::size_t begin, num_chunks, base, extra;
  const Fn* const fn;
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards done, first_error
  std::condition_variable cv;
  std::size_t done = 0;
  std::exception_ptr first_error;
};

}  // namespace

void parallel_for_chunked(
    std::size_t begin, std::size_t end, std::size_t num_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    ThreadPool* pool) {
  if (begin >= end || num_chunks == 0) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  num_chunks = std::min(num_chunks, n);
  if (num_chunks == 1) {
    fn(0, begin, end);
    return;
  }
  auto call = std::make_shared<ChunkedCall>(begin, n, num_chunks, fn);
  // A worker of this pool claims chunks itself, so it needs one helper fewer.
  // An outside caller only waits, which keeps a top-level call at exactly
  // pool-size runnable threads.
  const bool caller_runs = tl_worker_of == pool;
  const std::size_t helpers =
      std::min(num_chunks, pool->size()) - (caller_runs ? 1 : 0);
  for (std::size_t i = 0; i < helpers; ++i) {
    pool->submit([call] { call->run(); });
  }
  if (caller_runs) call->run();
  call->wait();
}

}  // namespace bdlfi::util
