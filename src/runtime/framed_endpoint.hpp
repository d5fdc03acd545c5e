// The framed socket core under every forking transport (process, shm
// and tcp): one master-side endpoint and one worker-side port over a
// connected stream socket, the forked child's life, and the socketpair
// spawn loop.
//
// FramedEndpoint (master side) ships length-prefixed frames
// (runtime/serde.hpp) under the credit rule -- no credit, no send --
// and absorbs inbound traffic with a non-blocking pump that parses
// every complete frame under the run's frame-length bound and
// dispatches credits, results, the bootstrap hello and death notices.
// It owns the sticky failure state (the cause is a kError text when the
// worker shipped one, the waitpid status otherwise), kill / drain, and
// the two-phase graceful stop: a goodbye plus half-close first, then a
// drain to EOF and the reap. Each transport keeps only what is its own:
//
//   * kProcess is this core over a socketpair(2), nothing more.
//   * kTcp adds the Acceptor, the identity token, the worker's redial
//     loop and Endpoint::try_readmit (tcp_transport.cpp).
//   * kShm moves the data plane onto shared-memory rings and keeps this
//     core for its bootstrap and death socket; its hooks pump the rings
//     while the core waits and replace the goodbye frame with the ring
//     sentinel (shm_transport.cpp).
//
// FramedWorkerPort (worker side) serves the process and TCP children:
// frame intake with credit return, result frames out, and the goodbye
// latch. A clean end of stream is ONLY the master's explicit kGoodbye;
// a bare EOF throws PeerDisconnected, which the TCP child answers by
// redialing and the process child by exiting.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "matrix/tuning.hpp"
#include "runtime/serde.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

/// Wall seconds elapsed since `begin` (steady clock).
double seconds_since(std::chrono::steady_clock::time_point begin);

class FramedEndpoint : public Endpoint {
 public:
  /// `fd` is a connected non-blocking stream socket, or -1 until a
  /// dialing worker is admitted (reset_connection). `pid` is the worker
  /// child to reap (<= 0: none). `name` prefixes every failure cause
  /// ("worker process 3"). Inbound frames longer than `max_frame_bytes`
  /// fail the endpoint before any buffer is sized; a worker's hello
  /// must match `expected_hello`'s kernel configuration.
  FramedEndpoint(std::string name, int fd, pid_t pid, std::size_t credits,
                 std::uint64_t max_frame_bytes,
                 const serde::HelloFrame& expected_hello, BufferPool* pool);
  ~FramedEndpoint() override;

  // ----- Endpoint -----
  void send(WorkerMessage message) override;
  std::optional<ResultMessage> try_recv() override;
  std::optional<ResultMessage> recv() override;
  bool failed() const override { return failed_; }
  std::exception_ptr error() const override { return error_; }
  bool killed() const override { return killed_; }
  void kill() override;
  void drain(BufferPool& pool) override;

  // ----- transport-internal -----
  /// Blocks until the worker's bootstrap hello arrived on the socket
  /// (its kernel configuration checked) or the worker died on the
  /// launch pad. Bounded: a child wedged before its first frame (the
  /// fork-from-multithreaded-parent hazard, however unlikely under
  /// glibc) fails the run loudly instead of hanging the master.
  void wait_hello();

  /// Graceful stop, phase one: the goodbye (so the worker KNOWS this is
  /// not a dead link), then half-close. Results arriving from here on
  /// are discarded.
  void begin_shutdown() noexcept;

  /// Phase two: drains the socket to EOF (unblocking a worker mid-
  /// result), reaps the child and closes the fd. Idempotent.
  void finish_shutdown() noexcept;

 protected:
  /// Tells the worker to exit cleanly; the default ships a kGoodbye
  /// frame. Called by begin_shutdown on a live endpoint; may throw.
  virtual void send_goodbye();
  /// A second inbound data plane polled alongside the socket whenever
  /// the core waits (the shm rings); none by default.
  virtual void pump_side() {}

  /// Validates a worker's hello against the expected kernel
  /// configuration (throws on a mismatch) and records it as seen.
  void accept_hello(const serde::HelloFrame& hello);
  /// Adopts a fresh connection `fd` (closing any previous one) with a
  /// clean slate: empty receive buffer, a full credit window, and the
  /// sticky failure cleared.
  void reset_connection(int fd);
  /// Marks the endpoint dead, synthesizing the cause: `reason`, plus
  /// the child's exit status or signal when it already exited.
  void mark_failed(const std::string& reason);
  [[noreturn]] void throw_dead() { std::rethrow_exception(error_); }
  void throw_if_dead() {
    if (failed_) throw_dead();
  }
  std::optional<ResultMessage> pop_result();
  /// Ships the frame prepared in tx_, pumping inbound traffic whenever
  /// the socket back-pressures (the worker must be able to hand a
  /// result back while the master is mid-send, or both would block).
  void write_frame();
  /// Polls until the socket is readable (or writable, when asked) or
  /// `timeout_ms` passes, then absorbs whatever arrived.
  void wait_io(bool want_write = false, int timeout_ms = -1);
  /// Non-blocking absorb: reads everything available, dispatches every
  /// complete frame, and detects EOF.
  void pump();

  int fd_;
  std::size_t capacity_;
  serde::HelloFrame expected_hello_;
  serde::ByteBuffer tx_;
  std::deque<ResultMessage> results_;
  bool killed_ = false;
  bool failed_ = false;
  bool eof_ = false;
  bool discarding_ = false;

 private:
  void teardown() noexcept;
  void parse_frames();
  void dispatch(const std::uint8_t* body, std::size_t size);

  std::string name_;
  pid_t pid_;
  std::size_t credits_;
  std::uint64_t max_frame_bytes_;
  BufferPool* pool_;
  serde::ByteBuffer rx_;
  std::exception_ptr error_;
  bool hello_seen_ = false;
  bool reaped_ = false;
};

/// The worker's face of a framed socket (process and TCP children).
class FramedWorkerPort final : public WorkerPort {
 public:
  /// `fd` is a blocking connected socket; message payloads are checked
  /// out of `pool`.
  FramedWorkerPort(int fd, BufferPool* pool, std::uint64_t max_frame_bytes)
      : fd_(fd), pool_(pool), max_frame_bytes_(max_frame_bytes) {}

  /// Returns the inbox credit BEFORE the caller computes: the slot is
  /// free the moment the message is dequeued, like a channel pop.
  /// nullopt once the master's goodbye arrived; a bare EOF throws
  /// PeerDisconnected.
  std::optional<WorkerMessage> receive() override;
  /// Commits to the blocking read only when a frame has started to
  /// arrive (the master writes frames whole, so the rest follows in
  /// microseconds). A goodbye read here is latched, so it yields
  /// nullopt now and the follow-up receive() still exits cleanly.
  std::optional<WorkerMessage> try_receive() override;
  void send(ResultMessage result) override;

 private:
  int fd_;
  BufferPool* pool_;
  std::uint64_t max_frame_bytes_;
  bool goodbye_ = false;
  serde::ByteBuffer body_;
  serde::ByteBuffer tx_;
};

/// A worker's bootstrap hello carrying its identity `token` (TCP; 0 on
/// a socketpair) and the kernel configuration it ACTUALLY runs --
/// re-read, not echoed, so the master's check is end-to-end.
void send_local_hello(int fd, std::uint64_t token = 0);

/// The whole life of a forked worker child, shared by every forking
/// transport. Never returns. Sets PDEATHSIG (an orphaned worker must
/// not outlive a crashed master), re-asserts the master's full kernel
/// configuration -- tier, micro-kernel variant AND tuned blocking, so
/// the child can never re-resolve or re-tune differently -- then runs
/// `serve` with the child's private payload pool. Exits 0 when `serve`
/// returns; on an exception ships its what() text as a kError frame
/// over `*notice_fd` when that is open (best effort: a dead socket
/// leaves the EOF to carry the news) and exits 2.
///
/// NOTE on fork without exec: the child deliberately inherits the
/// master's address space (options, schedules, fault_hook closures and
/// the kernel-dispatch statics all come along for free -- an exec'ing
/// transport could ship none of them). POSIX only blesses
/// async-signal-safe calls in the child of a multithreaded parent;
/// glibc (every deployment target here) additionally makes malloc
/// fork-safe via its internal atfork handlers, which this child relies
/// on. The master bounds its bootstrap wait, so even a wedged child
/// fails the run instead of hanging it.
[[noreturn]] void run_worker_child(
    const matrix::KernelConfig& config, const int* notice_fd,
    const std::function<void(BufferPool& pool)>& serve);

/// Forks `count` workers, each over its own socketpair (kProcess and
/// kShm). `run_child(i, fd)` runs in child i with only its own end open
/// and must not return. `adopt(i, fd, pid)` runs in the master and takes
/// ownership of the master end, already O_NONBLOCK. On failure every
/// end not yet adopted is closed before the exception propagates; the
/// caller's shutdown reaps the children already adopted.
void spawn_socketpair_workers(
    std::size_t count, const std::function<void(std::size_t, int)>& run_child,
    const std::function<void(std::size_t, int, pid_t)>& adopt);

/// The worker-set bookkeeping every forking transport shares: one
/// endpoint per worker, each keeping its own stats.
template <class EndpointT>
class FramedTransport : public Transport {
 public:
  explicit FramedTransport(int workers) {
    endpoints_.reserve(static_cast<std::size_t>(workers));
  }

  int worker_count() const override {
    return static_cast<int>(endpoints_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }
  /// Derived transports call this from their destructors (a base
  /// destructor cannot reach their overrides).
  void shutdown() noexcept override {
    for (auto& endpoint : endpoints_) endpoint->begin_shutdown();
    for (auto& endpoint : endpoints_) endpoint->finish_shutdown();
  }
  TransportStats stats() const override {
    TransportStats total;
    for (const auto& endpoint : endpoints_) total += endpoint->stats();
    return total;
  }

 protected:
  std::vector<std::unique_ptr<EndpointT>> endpoints_;
};

}  // namespace hmxp::runtime
