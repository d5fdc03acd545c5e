#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"

namespace hmxp::util {

int ThreadPool::default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int threads) {
  HMXP_REQUIRE(threads >= 0, "thread count cannot be negative");
  const int count = threads == 0 ? default_thread_count() : threads;
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  HMXP_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    HMXP_REQUIRE(!stopping_, "pool is shutting down");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& shared_pool() {
  static ThreadPool pool;  // hardware_concurrency workers
  return pool;
}

void parallel_drain(ThreadPool& pool, std::size_t count,
                    std::size_t participants,
                    const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> cursor{0};
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr error;
  const auto drain = [&] {
    try {
      for (std::size_t i;
           (i = cursor.fetch_add(1, std::memory_order_relaxed)) < count;)
        body(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (error == nullptr) error = std::current_exception();
    }
  };
  // Helpers beyond the item count (or the pool) would only idle.
  const std::size_t total = std::max<std::size_t>(
      1, std::min({participants, static_cast<std::size_t>(pool.size()) + 1,
                   count}));
  std::size_t running = total - 1;  // helpers not yet finished
  for (std::size_t helper = 1; helper < total; ++helper) {
    try {
      pool.submit([&] {
        drain();
        // Notify under the lock: the caller cannot return (ending this
        // frame) before the last helper has released it.
        const std::lock_guard<std::mutex> lock(mutex);
        if (--running == 0) done.notify_all();
      });
    } catch (...) {  // bad_alloc or a stopping pool: fewer helpers
      const std::lock_guard<std::mutex> lock(mutex);
      running -= total - helper;
      if (error == nullptr) error = std::current_exception();
      break;
    }
  }
  drain();
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return running == 0; });
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace hmxp::util
