#include "exp/threadpool.h"

#include <string>
#include <utility>

#include "common/error.h"
#include "obs/trace.h"

namespace chronos::exp {

namespace {

const obs::Counter c_tasks = obs::counter("exp.pool.tasks");
const obs::Gauge g_queue_depth = obs::gauge("exp.pool.queue_depth");
const obs::Timer t_wait = obs::timer("exp.pool.task_wait");
const obs::Timer t_run = obs::timer("exp.pool.task_run");

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  CHRONOS_EXPECTS(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  try {
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // Thread creation failed (e.g. the host's thread limit); shut down the
    // workers that did start so the error is catchable instead of
    // std::terminate firing on a joinable std::thread.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    task_ready_.notify_all();
    for (auto& worker : workers_) {
      worker.join();
    }
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  CHRONOS_EXPECTS(task != nullptr, "cannot submit a null task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Queued{std::move(task), obs::Stopwatch()});
    g_queue_depth.update(queue_.size());
  }
  task_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::worker_loop(int index) {
  obs::set_trace_thread_name("pool-" + std::to_string(index));
  for (;;) {
    Queued task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to do
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    t_wait.record_ns(task.enqueued.elapsed_ns());
    c_tasks.add();
    try {
      const obs::ScopedTimer run_timer(t_run);
      task.fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    all_idle_.notify_all();
  }
}

}  // namespace chronos::exp
