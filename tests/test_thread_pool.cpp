// ThreadPool: static partitioning, barrier semantics, exception
// propagation, the default pool size, and reuse under many dispatches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace cortex::support {
namespace {

TEST(ThreadPool, DefaultRespectsCortexThreadsEnv) {
  // The name is historical: no environment variable sizes the pool any
  // more. The default is the host's hardware thread count.
  EXPECT_GE(hardware_threads(), 1);
  EXPECT_EQ(ThreadPool::default_num_threads(), hardware_threads());
  EXPECT_EQ(ThreadPool().num_threads(), hardware_threads());
}

TEST(ThreadPool, ClampsNonPositiveSizesToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool pool2(-4);
  EXPECT_EQ(pool2.num_threads(), 1);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::int64_t n = 1000;
  // Chunks are disjoint by construction, so plain ints suffice; any data
  // race here would also be caught by the ASan/TSan-style CI presets.
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  pool.parallel_for(n, [&](int worker, std::int64_t b, std::int64_t e) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.num_threads());
    for (std::int64_t i = b; i < e; ++i)
      ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), n);
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  pool.parallel_for(0, [&](int, std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1, [&](int worker, std::int64_t b, std::int64_t e) {
    EXPECT_EQ(worker, 0);  // n == 1 runs inline on the caller
    for (std::int64_t i = b; i < e; ++i) sum += i + 1;
  });
  EXPECT_EQ(sum.load(), 1);

  sum = 0;
  pool.parallel_for(3, [&](int, std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i + 1;
  });
  EXPECT_EQ(sum.load(), 6);  // n < num_threads: some workers get no chunk
}

TEST(ThreadPool, BlocksUntilAllChunksComplete) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.parallel_for(100, [&](int, std::int64_t b, std::int64_t e) {
    done += static_cast<int>(e - b);
  });
  // parallel_for is a barrier: by return, every index has been processed.
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](int, std::int64_t b, std::int64_t e) {
                          for (std::int64_t i = b; i < e; ++i)
                            CORTEX_CHECK(i != 40) << "boom at " << i;
                        }),
      Error);
  // The pool must survive a throwing job.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(64, [&](int, std::int64_t b, std::int64_t e) {
    sum += e - b;
  });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPool, CallerChunkExceptionAlsoPropagates) {
  ThreadPool pool(2);
  // Index 0 is always in the caller's (worker 0) chunk.
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](int, std::int64_t b, std::int64_t) {
                                   CORTEX_CHECK(b != 0) << "caller boom";
                                 }),
               Error);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_for(round % 7, [&](int, std::int64_t b, std::int64_t e) {
      total += e - b;
    });
  std::int64_t expect = 0;
  for (int round = 0; round < 200; ++round) expect += round % 7;
  EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(10, [&](int worker, std::int64_t, std::int64_t) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

}  // namespace
}  // namespace cortex::support
