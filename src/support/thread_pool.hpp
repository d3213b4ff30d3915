#pragma once
// Fixed-size host thread pool backing the engine's parallel wavefront
// executor (paper §4.2/§5: nodes within one dynamic batch are mutually
// independent, so each batch is a parallel loop and the implicit join at
// the end of parallel_for is the inter-batch barrier — the host-side
// mirror of the device-wide barriers insert_barriers places in §A.4).
//
// Deliberately work-stealing-free: parallel_for statically partitions
// [0, n) into one contiguous chunk per worker. Static chunks keep the
// executor deterministic-by-construction (each index runs exactly once,
// on exactly one thread, with no scheduling-dependent reduction order)
// and cost two atomic-free range computations per worker per batch.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cortex::support {

/// std::thread::hardware_concurrency() with a floor of 1 (it reports 0
/// when unknown): the default size of thread and worker pools.
int hardware_threads();

class ThreadPool {
 public:
  /// Function run by parallel_for: fn(worker, begin, end) processes the
  /// half-open index range [begin, end) on worker thread `worker` (0-based,
  /// < num_threads()); worker 0 is always the calling thread.
  using RangeFn = std::function<void(int, std::int64_t, std::int64_t)>;

  /// Spawns num_threads - 1 workers (the caller participates as worker 0).
  /// num_threads < 1 is clamped to 1; a 1-thread pool runs everything
  /// inline on the caller with no threads spawned.
  explicit ThreadPool(int num_threads = default_num_threads());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn over a static partition of [0, n) and blocks until every
  /// chunk has finished (a full barrier). The first exception thrown by
  /// any chunk is rethrown on the caller after the barrier; the pool
  /// remains usable. Not reentrant: one parallel_for at a time per pool.
  void parallel_for(std::int64_t n, const RangeFn& fn);

  /// Pool size the engine uses by default: hardware_threads().
  static int default_num_threads();

 private:
  void worker_main(int worker);
  /// Chunk `worker` of num_threads_ over [0, n).
  static std::int64_t chunk_begin(std::int64_t n, int worker, int threads) {
    return n * worker / threads;
  }

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumps once per parallel_for
  const RangeFn* job_ = nullptr;
  std::int64_t job_n_ = 0;
  int pending_ = 0;  ///< workers that have not finished the current job
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace cortex::support
