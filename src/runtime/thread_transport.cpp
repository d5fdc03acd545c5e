// ThreadTransport: the in-process backend, today's threaded runtime
// re-seated behind the Transport interface with NO behaviour change.
// One std::thread per worker runs worker_main over a pair of bounded
// channels; messages move by value (zero-copy payload vectors recycled
// through the master's shared BufferPool), and the channel bound IS the
// worker's buffer capacity: a master pushing past it blocks.
#include <atomic>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "runtime/channel.hpp"
#include "runtime/executor.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

/// Per-worker thread: runs worker_main over its channels. On any
/// internal error it records the exception, raises its `failed` flag,
/// and closes BOTH its channels, so a master blocked pushing or popping
/// wakes up; the master notices the flag at its next completion sweep
/// -- and either recovers (tolerate_faults) or unwinds and rethrows.
class ThreadWorker final : public WorkerPort {
 public:
  ThreadWorker(WorkerContext context, std::size_t inbox_capacity,
               BufferPool* pool)
      : context_(std::move(context)),
        pool_(pool),
        inbox_(inbox_capacity),
        outbox_(1) {}

  Channel<WorkerMessage>& inbox() { return inbox_; }
  Channel<ResultMessage>& outbox() { return outbox_; }

  void start() {
    thread_ = std::thread([this] { run(); });
  }
  /// Signals the worker to exit once its inbox drains.
  void request_stop() { inbox_.close(); }
  /// Master-initiated decommission: closes both channels so the worker
  /// unblocks and exits; any error it raises on the way out (e.g. a
  /// push on its now-closed outbox) is expected, not a failure.
  void kill() {
    killed_.store(true, std::memory_order_release);
    inbox_.close();
    outbox_.close();
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  /// True once the worker thread died on an exception. The release
  /// store happens after error_ is recorded, so a master that observes
  /// failed() may read error() without a race (even before join).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  bool killed() const { return killed_.load(std::memory_order_acquire); }
  /// Valid once failed() is observed (or after join()).
  const std::exception_ptr& error() const { return error_; }

  // ----- WorkerPort (the worker-side face of the channels) -----
  std::optional<WorkerMessage> receive() override { return inbox_.pop(); }
  std::optional<WorkerMessage> try_receive() override {
    // On a closed-and-drained inbox this reads nullopt, same as pop():
    // the follow-up blocking receive() re-observes the closure.
    return inbox_.try_pop();
  }
  void send(ResultMessage result) override { outbox_.push(std::move(result)); }

 private:
  void run() {
    try {
      worker_main(context_, *this, *pool_);
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
      inbox_.close();
      outbox_.close();
    }
  }

  WorkerContext context_;
  BufferPool* pool_;
  Channel<WorkerMessage> inbox_;
  Channel<ResultMessage> outbox_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> killed_{false};
  std::thread thread_;
};

class ThreadEndpoint final : public Endpoint {
 public:
  explicit ThreadEndpoint(ThreadWorker* worker) : worker_(worker) {}

  void send(WorkerMessage message) override {
    worker_->inbox().push(std::move(message));
    ++stats_.messages_sent;
  }
  std::optional<ResultMessage> try_recv() override {
    auto result = worker_->outbox().try_pop();
    if (result.has_value()) ++stats_.messages_received;
    return result;
  }
  std::optional<ResultMessage> recv() override {
    auto result = worker_->outbox().pop();
    if (result.has_value()) ++stats_.messages_received;
    return result;
  }
  bool failed() const override { return worker_->failed(); }
  std::exception_ptr error() const override { return worker_->error(); }
  bool killed() const override { return worker_->killed(); }
  void kill() override { worker_->kill(); }

  /// Hands every payload still queued on the worker's channels back to
  /// the pool (the channels survive close() for draining).
  void drain(BufferPool& pool) override {
    while (auto message = worker_->inbox().try_pop()) {
      if (auto* chunk = std::get_if<ChunkMessage>(&*message)) {
        chunk->c.release_to(pool);
      } else if (auto* operands = std::get_if<OperandMessage>(&*message)) {
        operands->a.release_to(pool);
        operands->b.release_to(pool);
      }
      // CancelMessage carries no payload: nothing to reclaim.
    }
    while (auto result = worker_->outbox().try_pop())
      result->c.release_to(pool);
  }

 private:
  ThreadWorker* worker_;
};

class ThreadTransport final : public Transport {
 public:
  ThreadTransport(int workers, std::size_t inbox_capacity,
                  const ExecutorOptions& options,
                  std::chrono::steady_clock::time_point run_begin,
                  BufferPool* pool) {
    workers_.reserve(static_cast<std::size_t>(workers));
    endpoints_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.push_back(std::make_unique<ThreadWorker>(
          make_worker_context(options, i, run_begin), inbox_capacity, pool));
      endpoints_.push_back(
          std::make_unique<ThreadEndpoint>(workers_.back().get()));
    }
    for (auto& worker : workers_) worker->start();
  }

  ~ThreadTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kThread; }
  int worker_count() const override {
    return static_cast<int>(workers_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }

  /// Stops and joins every worker. Closing the inboxes lets workers
  /// drain out; popping one pending result per outbox unblocks a worker
  /// stuck handing a result back. Idempotent, safe on error paths.
  void shutdown() noexcept override {
    for (auto& worker : workers_) worker->request_stop();
    for (auto& worker : workers_) {
      (void)worker->outbox().try_pop();
      worker->join();
    }
  }

  TransportStats stats() const override {
    TransportStats total;
    for (const auto& endpoint : endpoints_) total += endpoint->stats();
    return total;
  }

 private:
  std::vector<std::unique_ptr<ThreadWorker>> workers_;
  std::vector<std::unique_ptr<ThreadEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_thread_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool) {
  return std::make_unique<ThreadTransport>(workers, inbox_capacity, options,
                                           run_begin, pool);
}

}  // namespace hmxp::runtime
