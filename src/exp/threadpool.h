// Small thread pool for embarrassingly parallel experiment sweeps.
//
// Workers are fixed at construction; submit() enqueues a task and wait()
// blocks until every submitted task has run.
//
// The pool reports into the observability registry (obs/metrics.h): task
// count, queue-depth high-water, and wait-vs-run timing per task. All of it
// is observational — scheduling decisions never read a metric.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace chronos::exp {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks still run to completion first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not call submit() or wait() on this pool.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. Rethrows the
  /// first exception any task raised (remaining tasks still run).
  void wait();

  /// std::thread::hardware_concurrency() with a floor of 1.
  static int hardware_threads();

 private:
  /// A queued task plus its enqueue timestamp (for the wait-time metric;
  /// an empty struct member when observability is compiled out).
  struct Queued {
    std::function<void()> fn;
    obs::Stopwatch enqueued;
  };

  void worker_loop(int index);

  std::vector<std::thread> workers_;
  std::deque<Queued> queue_;
  std::mutex mu_;
  std::condition_variable task_ready_;  ///< signals workers
  std::condition_variable all_idle_;    ///< signals wait()
  std::size_t running_ = 0;             ///< tasks currently executing
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace chronos::exp
