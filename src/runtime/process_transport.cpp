// ProcessTransport: one worker PROCESS per worker, the in-machine
// stand-in for the companion report's real-cluster MPI deployment.
//
// The framed core (runtime/framed_endpoint.hpp) over a socketpair(2)
// per worker, and nothing more. Each child is forked (no exec -- it
// inherits the executor's options, schedules and kernel state
// copy-on-write), answers with its bootstrap hello, and runs the same
// worker_main as a thread worker over a FramedWorkerPort. A forked
// worker is REALLY isolated: a SIGKILL, an abort, or an OOM kill
// surfaces to the master as a socket EOF -- a first-class worker
// failure the fault-tolerant master recovers from exactly like a dead
// thread.
//
// Backpressure: the channel bound of the thread transport becomes
// explicit buffer credits. The master holds `inbox_capacity` credits
// per worker; every frame it ships consumes one, and the worker returns
// one (a kCredit frame) each time it dequeues a message -- the same
// "pop frees the slot, then the worker computes" timing the bounded
// channel enforces. A master pushing past a worker's buffers therefore
// blocks in Endpoint::send, pumping inbound frames while it waits so a
// worker blocked handing a result back can never deadlock it.
//
// Death protocol: a worker that dies on a C++ exception ships a kError
// frame with its what() text before exiting, so the master rethrows the
// real root cause; a worker that dies without unwinding (SIGKILL) just
// disappears and the master synthesizes the cause from waitpid status.
// A clean stop is the master's kGoodbye before it half-closes; a bare
// EOF means the master is gone, and the child exits.
#include <memory>
#include <string>

#include "matrix/kernel_dispatch.hpp"
#include "runtime/framed_endpoint.hpp"

namespace hmxp::runtime {

namespace {

class ProcessTransport final : public FramedTransport<FramedEndpoint> {
 public:
  ProcessTransport(int workers, std::size_t inbox_capacity,
                   const ExecutorOptions& options,
                   std::chrono::steady_clock::time_point run_begin,
                   BufferPool* pool, std::size_t max_payload_doubles)
      : FramedTransport(workers) {
    // Capture the kernel configuration ONCE, in the master, before any
    // fork: the explicit pins (force_kernel_tier / --kernel,
    // force_micro_kernel_variant), the tier/variant the dispatch
    // resolved, and the tuned BlockingParams. current_kernel_config()
    // RESOLVES the blocking -- running the autotune search now, in the
    // master -- so every child inherits a settled winner and re-asserts
    // exactly this state instead of re-tuning behind the fork.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const serde::HelloFrame expected_hello = serde::local_hello(config);
    const std::uint64_t max_frame_bytes =
        serde::max_frame_bytes_for(max_payload_doubles);
    try {
      spawn_socketpair_workers(
          static_cast<std::size_t>(workers),
          [&](std::size_t i, int fd) {
            const WorkerContext context =
                make_worker_context(options, static_cast<int>(i), run_begin);
            run_worker_child(config, &fd, [&](BufferPool& child_pool) {
              send_local_hello(fd);
              FramedWorkerPort port(fd, &child_pool, max_frame_bytes);
              worker_main(context, port, child_pool);
            });
          },
          [&](std::size_t i, int fd, pid_t pid) {
            endpoints_.push_back(std::make_unique<FramedEndpoint>(
                "worker process " + std::to_string(i), fd, pid,
                inbox_capacity, max_frame_bytes, expected_hello, pool));
          });
    } catch (...) {
      shutdown();
      throw;
    }
    // Synchronize on every child's bootstrap handshake: launch-pad
    // deaths and kernel-tier mismatches surface here, not mid-run.
    for (auto& endpoint : endpoints_) endpoint->wait_hello();
  }

  ~ProcessTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kProcess; }
};

}  // namespace

std::unique_ptr<Transport> make_process_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<ProcessTransport>(workers, inbox_capacity, options,
                                            run_begin, pool,
                                            max_payload_doubles);
}

}  // namespace hmxp::runtime
