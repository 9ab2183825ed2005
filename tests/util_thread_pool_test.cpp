// Thread pool & parallel_for: completeness, determinism via chunk ids,
// nesting on one pool (caller-runs), exception propagation.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace bdlfi::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  parallel_for(1, 10001, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  }, &pool);
  EXPECT_EQ(sum.load(), 50005000LL);
}

TEST(ParallelForChunked, ChunksPartitionRange) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(7);
  parallel_for_chunked(10, 110, 7,
                       [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                         ranges[chunk] = {lo, hi};
                       },
                       &pool);
  std::size_t covered = 0;
  for (const auto& [lo, hi] : ranges) covered += hi - lo;
  EXPECT_EQ(covered, 100u);
  // Contiguity: sorted by chunk id the ranges chain.
  std::size_t cursor = 10;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 110u);
}

TEST(ParallelForChunked, DeterministicPerChunkRngs) {
  // The reproducibility pattern campaigns rely on: one RNG stream per chunk
  // id gives identical results regardless of pool size.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(16, 0.0);
    parallel_for_chunked(0, 16, 16,
                         [&](std::size_t chunk, std::size_t lo,
                             std::size_t hi) {
                           Rng rng{1000 + chunk};
                           for (std::size_t i = lo; i < hi; ++i) {
                             out[i] = rng.uniform();
                           }
                         },
                         &pool);
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelForChunked, MoreChunksThanItemsClamps) {
  std::vector<int> hits(3, 0);
  parallel_for_chunked(0, 3, 100,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                       });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// The nesting tests below hang without caller-runs: every worker would sit
// in an outer chunk waiting for inner chunks no free worker can pick up.
// ctest's TIMEOUT turns such a regression into a failure.

TEST(ParallelFor, NestedOnSamePoolCompletes) {
  // Four outer chunks occupy all four workers; each runs an inner
  // parallel_for on the same pool.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 64);
  parallel_for(0, 4, [&](std::size_t outer) {
    parallel_for(0, 64, [&](std::size_t inner) {
      hits[outer * 64 + inner].fetch_add(1);
    }, &pool);
  }, &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ThreeLevelNestingCompletes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4 * 8 * 16);
  parallel_for(0, 4, [&](std::size_t a) {
    parallel_for(0, 8, [&](std::size_t b) {
      parallel_for(0, 16, [&](std::size_t c) {
        hits[(a * 8 + b) * 16 + c].fetch_add(1);
      }, &pool);
    }, &pool);
  }, &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunked, NestedPerChunkRngsAreDeterministic) {
  // One RNG stream per (outer chunk, inner chunk) gives the same output on
  // any pool size, however the nested chunks land on threads.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(4 * 32, 0.0);
    parallel_for_chunked(
        0, 4, 4,
        [&](std::size_t outer, std::size_t, std::size_t) {
          parallel_for_chunked(
              0, 32, 8,
              [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                Rng rng{1000 * (outer + 1) + chunk};
                for (std::size_t i = lo; i < hi; ++i) {
                  out[outer * 32 + i] = rng.uniform();
                }
              },
              &pool);
        },
        &pool);
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(7));
}

TEST(ParallelForChunked, WorkerCallerRunsItsChunksWhenPoolIsBusy) {
  // Worker A is parked on a gate; worker B calls parallel_for_chunked. With
  // no free worker, B must run all chunks itself and return. The helpers it
  // queued run only after the gate opens, after B's call has returned, and
  // must find nothing left to do.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  });
  std::atomic<int> calls{0};
  std::atomic<std::size_t> covered{0};
  pool.submit([&] {
    parallel_for_chunked(0, 100, 8,
                         [&](std::size_t, std::size_t lo, std::size_t hi) {
                           calls.fetch_add(1);
                           covered.fetch_add(hi - lo);
                         },
                         &pool);
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  });
  pool.wait_idle();
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(covered.load(), 100u);
}

TEST(ParallelForChunked, ChunkExceptionReachesCaller) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_THROW(parallel_for_chunked(
                   0, 16, 16,
                   [&](std::size_t chunk, std::size_t, std::size_t) {
                     calls.fetch_add(1);
                     if (chunk == 5) throw std::runtime_error("chunk 5");
                   },
                   &pool),
               std::runtime_error);
  // Every chunk still ran: the call returns only once none is in flight.
  EXPECT_EQ(calls.load(), 16);
}

}  // namespace
}  // namespace bdlfi::util
