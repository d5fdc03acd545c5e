// A small fixed-size thread pool for fanning independent work items
// across cores: the experiment pipeline's instance x algorithm cells,
// and (through parallel_drain on the process-wide shared_pool) the 2-D
// C-tile work items of the parallel GEMM driver and Het's eight variant
// simulations -- kernels no longer spawn threads per call.
//
// Semantics are deliberately minimal: submit() enqueues a task, the
// workers drain the queue FIFO, wait_idle() blocks until every submitted
// task has finished. Tasks should capture their own output slots --
// the pool imposes no ordering on completion, so deterministic results
// come from writing into pre-sized vectors by index, never from
// completion order. A task that throws is caught; the first exception is
// stashed and rethrown from wait_idle() (or the destructor swallows it
// if the caller never waits).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hmxp::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(int threads = 0);
  /// Joins after the queue drains (pending tasks still run).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks completed; rethrows the first
  /// exception any task threw since the last wait_idle().
  void wait_idle();

  /// What a `threads = 0` request resolves to on this machine.
  static int default_thread_count();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;  // queued + currently running
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

/// The process-wide persistent pool (hardware_concurrency workers) that
/// gemm_parallel and Het's variant selection fan out over.
ThreadPool& shared_pool();

/// Runs body(i) once for every i in [0, count) on at most `participants`
/// threads -- the caller plus helpers from `pool` -- all claiming indices
/// from one atomic cursor, so a fast thread simply claims more. The
/// caller always takes part, so progress never waits on a busy pool.
/// Returns once every helper has finished, rethrowing the first
/// exception any participant threw. Results are deterministic when
/// body(i) writes only to slot i.
void parallel_drain(ThreadPool& pool, std::size_t count,
                    std::size_t participants,
                    const std::function<void(std::size_t)>& body);

}  // namespace hmxp::util
