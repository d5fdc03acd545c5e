// TcpTransport: the online runtime over loopback TCP -- workers DIAL
// the master instead of inheriting a socketpair end, which is the whole
// connection lifecycle of a real cluster deployment rehearsed inside
// one machine (and one CI job).
//
// Topology: the master binds a listen socket on 127.0.0.1 (ephemeral
// port) BEFORE forking, so the very first connect can never be refused.
// Each forked worker dials that port, sends a versioned hello frame
// carrying its per-worker identity TOKEN, and waits for the master's
// hello ack. The Acceptor owns the listen socket and every connection
// that has not yet proven its identity: it accepts, accumulates the
// handshake frame under a small bound and a deadline, rejects strangers
// (bad magic / wrong protocol version) with a kError naming both
// versions, and stages authenticated connections by token until the
// owning endpoint claims them.
//
// Reconnect lifecycle: a dropped connection surfaces as EOF-without-
// goodbye. The master marks the endpoint failed and recovers exactly
// like any worker death (mirror rollback, chunk back to the pending
// set); the worker closes its end, redials, and re-handshakes with the
// SAME token. Once the master finished recovering it polls
// Endpoint::try_readmit, claims the staged connection, resets the
// credit window and re-admits the worker as a hot-joining idle worker
// -- an FT-* scheduler then hands it orphaned or fresh work. A clean
// shutdown is distinguished by an explicit kGoodbye frame before the
// master half-closes; only EOF WITHOUT a goodbye means "the connection
// died, come back".
//
// Wire compression (ExecutorOptions::wire_compression): frames above a
// small threshold are wrapped as kCompressed (zero-RLE, serde) whenever
// that actually shrinks them -- aimed at the bandwidth-bound regime the
// paper's communication analysis prices, where operand tiles of a
// sparse-ish C carry long zero runs.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "matrix/kernel_dispatch.hpp"
#include "matrix/tuning.hpp"
#include "runtime/executor.hpp"
#include "runtime/serde.hpp"
#include "runtime/socket_util.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker_main.hpp"
#include "util/check.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using serde::ByteBuffer;
using serde::FrameType;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Handshake frames are a fixed handful of integers; anything bigger
/// is not a worker saying hello. Bounding the PRE-authentication read
/// this tightly means an unauthenticated peer can never make the
/// master allocate.
constexpr std::uint64_t kHandshakeFrameBytes = 4096;

/// Frames below this never compress usefully (control frames, tiny
/// descriptors); skip the codec attempt entirely.
constexpr std::size_t kCompressMinBytes = 256;

void set_nodelay(int fd) {
  // Credits and cancels are latency-critical one-liners; never let
  // Nagle batch them behind a payload.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Compresses the frame sitting fully encoded in `frame` in place
/// (via `scratch`) when the codec shrinks it; returns the bytes saved
/// (0 = kept raw). `frame` holds [u64 length][body]; the kCompressed
/// wrapper re-frames the body.
std::size_t maybe_compress_frame(ByteBuffer& frame, ByteBuffer& scratch) {
  if (frame.size() < kCompressMinBytes) return 0;
  scratch.clear();
  serde::encode_compressed(frame.data() + serde::kLengthBytes,
                           frame.size() - serde::kLengthBytes, scratch);
  if (scratch.size() >= frame.size()) return 0;
  const std::size_t saved = frame.size() - scratch.size();
  frame.swap(scratch);
  return saved;
}

// ---- child side -------------------------------------------------------------

/// Dials the master's loopback port with a blocking socket, retrying
/// transient failures (including the refusal window while the master's
/// accept queue churns during recovery) under a deadline.
int dial_master(std::uint16_t port) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw std::runtime_error(std::string("socket failed: ") +
                               std::strerror(errno));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      set_nodelay(fd);
      return fd;
    }
    const int saved = errno;
    ::close(fd);
    if (saved == EINTR) continue;
    if (Clock::now() >= deadline)
      throw std::runtime_error(std::string("cannot reach master: ") +
                               std::strerror(saved));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Sends the worker's identified hello and blocks for the master's
/// verdict: a hello ack admits (decode_hello validates the master's
/// magic and protocol version symmetrically, so BOTH sides of a
/// version skew report it by name), a kError carries the rejection.
void handshake(int fd, std::uint64_t token) {
  serde::HelloFrame hello = serde::local_hello(matrix::current_kernel_config());
  hello.token = token;
  ByteBuffer frame;
  serde::encode_hello(hello, frame);
  write_exact(fd, frame.data(), frame.size());

  ByteBuffer body;
  if (!read_frame(fd, body, kHandshakeFrameBytes))
    throw PeerDisconnected("master closed the connection during handshake");
  switch (serde::frame_type(body.data(), body.size())) {
    case FrameType::kHello:
      serde::decode_hello(body.data(), body.size());
      return;
    case FrameType::kError:
      throw std::runtime_error("master rejected handshake: " +
                               serde::decode_error(body.data(), body.size()));
    default:
      throw std::runtime_error("unexpected handshake reply from master");
  }
}

/// The worker's face of the TCP connection: frame intake with credit
/// return and kCompressed unwrap, result frames out (compressed when
/// the knob is on and the codec wins). A clean end-of-stream is ONLY
/// the explicit kGoodbye; bare EOF throws PeerDisconnected, which the
/// reconnect loop in run_child answers by redialing.
class TcpWorkerPort final : public WorkerPort {
 public:
  TcpWorkerPort(int fd, BufferPool* pool, std::uint64_t max_frame_bytes,
                bool compress)
      : fd_(fd),
        pool_(pool),
        max_frame_bytes_(max_frame_bytes),
        compress_(compress) {}

  std::optional<WorkerMessage> receive() override {
    // The cancel lookahead (try_receive) may consume the goodbye; the
    // latch keeps it observed, so the follow-up blocking receive()
    // still exits cleanly instead of reading the EOF behind it as a
    // dropped link and redialing a master that is reaping its workers.
    if (goodbye_) return std::nullopt;
    if (!read_frame(fd_, body_, max_frame_bytes_))
      throw PeerDisconnected("connection closed without a goodbye");
    if (serde::frame_type(body_.data(), body_.size()) == FrameType::kGoodbye) {
      goodbye_ = true;
      return std::nullopt;  // clean shutdown: done for good
    }
    if (serde::frame_type(body_.data(), body_.size()) ==
        FrameType::kCompressed) {
      serde::decode_compressed(body_.data(), body_.size(), max_frame_bytes_,
                               raw_);
      body_.swap(raw_);
    }

    // Return the inbox credit BEFORE computing: the slot is free the
    // moment the message is dequeued, exactly like a channel pop.
    tx_.clear();
    serde::encode_control(FrameType::kCredit, tx_);
    write_exact(fd_, tx_.data(), tx_.size());

    switch (serde::frame_type(body_.data(), body_.size())) {
      case FrameType::kChunk:
        return WorkerMessage(
            serde::decode_chunk(body_.data(), body_.size(), *pool_));
      case FrameType::kOperand:
        return WorkerMessage(
            serde::decode_operand(body_.data(), body_.size(), *pool_));
      case FrameType::kCancel:
        return WorkerMessage(
            serde::decode_cancel(body_.data(), body_.size()));
      default:
        throw std::runtime_error("unexpected inbound frame type");
    }
  }

  std::optional<WorkerMessage> try_receive() override {
    struct pollfd probe;
    probe.fd = fd_;
    probe.events = POLLIN;
    probe.revents = 0;
    if (::poll(&probe, 1, 0) != 1 || (probe.revents & POLLIN) == 0)
      return std::nullopt;
    return receive();
  }

  void send(ResultMessage result) override {
    tx_.clear();
    serde::encode_result(result, tx_);
    result.c.release_to(*pool_);
    if (compress_) maybe_compress_frame(tx_, scratch_);
    write_exact(fd_, tx_.data(), tx_.size());
  }

 private:
  int fd_;
  BufferPool* pool_;
  std::uint64_t max_frame_bytes_;
  bool compress_;
  bool goodbye_ = false;
  ByteBuffer body_;
  ByteBuffer raw_;
  ByteBuffer tx_;
  ByteBuffer scratch_;
};

/// Child-process entry with the reconnect loop: dial, handshake, serve.
/// A severed connection (PeerDisconnected from either direction, or a
/// TcpDisconnectFault injected by a fault hook) drops the socket and
/// loops back to redial -- the worker restarts its protocol state from
/// scratch, which is correct because the master rolled back everything
/// it had in flight when it observed the death. Any other exception is
/// a real worker death: ship the kError notice while the socket lives
/// and exit non-zero, like the process transport's child.
[[noreturn]] void run_child(std::uint16_t port, std::uint64_t token,
                            const WorkerContext& context,
                            const matrix::KernelConfig& config,
                            std::uint64_t max_frame_bytes, bool compress) {
#if defined(__linux__)
  // An orphaned worker must not outlive a crashed master.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  matrix::install_kernel_config(config);

  BufferPool pool;
  for (;;) {
    int fd = -1;
    try {
      fd = dial_master(port);
      handshake(fd, token);
      TcpWorkerPort worker_port(fd, &pool, max_frame_bytes, compress);
      worker_main(context, worker_port, pool);
      ::close(fd);
      ::_exit(0);  // goodbye received: clean exit
    } catch (const TcpDisconnectFault&) {
      // Injected link failure: sever abruptly (no goodbye, no notice)
      // and come back -- worker_main already surrendered the chunk.
      if (fd >= 0) ::close(fd);
    } catch (const PeerDisconnected&) {
      // The link (or the master's endpoint) dropped under us: redial.
      // If the master is really gone, dial_master's deadline (or
      // PDEATHSIG) ends the loop.
      if (fd >= 0) ::close(fd);
    } catch (const std::exception& error) {
      if (fd >= 0) {
        try {
          ByteBuffer notice;
          serde::encode_error(error.what(), notice);
          write_exact(fd, notice.data(), notice.size());
        } catch (...) {
          // The socket is gone too; the EOF alone carries the news.
        }
        ::close(fd);
      }
      ::_exit(2);
    } catch (...) {
      if (fd >= 0) ::close(fd);
      ::_exit(2);
    }
  }
}

// ---- master side ------------------------------------------------------------

/// Owns the listen socket and every connection that has not yet proven
/// an identity: accepts, reads the handshake frame under a tight bound
/// and a deadline, rejects strangers with a kError, and stages
/// authenticated connections by token until an endpoint claims them.
/// Single-threaded like the whole master loop; endpoints drive it by
/// calling poll() from their bootstrap and re-admission paths.
class Acceptor {
 public:
  Acceptor() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    HMXP_CHECK(listen_fd_ >= 0, "socket failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: the kernel picks a free port
    HMXP_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0,
               "bind 127.0.0.1 failed");
    HMXP_CHECK(::listen(listen_fd_, 64) == 0, "listen failed");
    socklen_t len = sizeof addr;
    HMXP_CHECK(::getsockname(listen_fd_,
                             reinterpret_cast<sockaddr*>(&addr), &len) == 0,
               "getsockname failed");
    port_ = ntohs(addr.sin_port);
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    HMXP_CHECK(flags >= 0 &&
                   ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl O_NONBLOCK failed");
  }

  ~Acceptor() { close_all(); }
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  std::uint16_t port() const { return port_; }

  /// The forked child must not keep the master's listen socket open (a
  /// dangling copy would keep the port alive past the master).
  void close_in_child() noexcept {
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  /// Accepts whatever is queued and advances every pending handshake;
  /// non-blocking throughout.
  void poll() {
    accept_new();
    const auto now = Clock::now();
    for (std::size_t i = 0; i < pending_.size();) {
      if (advance(pending_[i]) || now >= pending_[i].deadline) {
        if (pending_[i].fd >= 0) ::close(pending_[i].fd);
        pending_[i] = std::move(pending_.back());
        pending_.pop_back();
        continue;
      }
      ++i;
    }
  }

  /// Claims the staged connection presenting `token`; -1 if none. The
  /// returned fd is non-blocking, ready for an endpoint's pump loop.
  int take(std::uint64_t token, serde::HelloFrame* hello) {
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      if (staged_[i].hello.token != token) continue;
      const int fd = staged_[i].fd;
      *hello = staged_[i].hello;
      staged_[i] = std::move(staged_.back());
      staged_.pop_back();
      return fd;
    }
    return -1;
  }

  void close_all() noexcept {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (const Pending& conn : pending_)
      if (conn.fd >= 0) ::close(conn.fd);
    pending_.clear();
    for (const Staged& conn : staged_)
      if (conn.fd >= 0) ::close(conn.fd);
    staged_.clear();
  }

 private:
  struct Pending {
    int fd = -1;
    ByteBuffer rx;
    Clock::time_point deadline;
  };
  struct Staged {
    int fd = -1;
    serde::HelloFrame hello;
  };

  void accept_new() {
    if (listen_fd_ < 0) return;
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient accept error: try again later
      }
      set_nodelay(fd);
      Pending conn;
      conn.fd = fd;
      conn.deadline = Clock::now() + std::chrono::seconds(10);
      pending_.push_back(std::move(conn));
    }
  }

  /// Reads whatever the pending connection has; true when it should be
  /// dropped (EOF, corruption, rejection), false to keep waiting. A
  /// completed valid hello moves the connection to staged_ (also
  /// returning true -- the fd moved, Pending::fd is cleared).
  bool advance(Pending& conn) {
    std::uint8_t buffer[1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        conn.rx.insert(conn.rx.end(), buffer, buffer + n);
        continue;
      }
      if (n == 0) return true;  // EOF before a full hello
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return true;  // reset or a real error: drop
    }
    if (conn.rx.size() < serde::kLengthBytes) return false;
    std::uint64_t length = 0;
    try {
      length = serde::checked_frame_length(conn.rx.data(),
                                           kHandshakeFrameBytes);
    } catch (const std::exception& error) {
      reject(conn.fd, error.what());
      return true;
    }
    if (conn.rx.size() - serde::kLengthBytes < length) return false;
    try {
      const serde::HelloFrame hello = serde::decode_hello(
          conn.rx.data() + serde::kLengthBytes,
          static_cast<std::size_t>(length));
      Staged staged;
      staged.fd = conn.fd;
      staged.hello = hello;
      staged_.push_back(staged);
      conn.fd = -1;  // ownership moved
      return true;
    } catch (const std::exception& error) {
      // Not an hmxp worker, or a version skew: tell it why (the error
      // names both versions) and close. Best-effort -- the peer may
      // already be gone.
      reject(conn.fd, error.what());
      return true;
    }
  }

  void reject(int fd, const std::string& reason) noexcept {
    try {
      ByteBuffer frame;
      serde::encode_error(reason, frame);
      std::size_t done = 0;
      while (done < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + done,
                                 frame.size() - done, MSG_NOSIGNAL);
        if (n > 0) {
          done += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // non-blocking fd or dead peer: give up quietly
      }
    } catch (...) {
    }
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Pending> pending_;
  std::vector<Staged> staged_;
};

class TcpEndpoint final : public Endpoint {
 public:
  TcpEndpoint(int index, std::uint64_t token, pid_t pid, std::size_t credits,
              const serde::HelloFrame& expected_hello,
              const serde::HelloFrame& ack_hello, BufferPool* pool,
              TransportStats* stats, std::uint64_t max_frame_bytes,
              bool compress, Acceptor* acceptor)
      : index_(index),
        token_(token),
        pid_(pid),
        capacity_(credits),
        credits_(credits),
        expected_hello_(expected_hello),
        ack_hello_(ack_hello),
        pool_(pool),
        stats_(stats),
        max_frame_bytes_(max_frame_bytes),
        compress_(compress),
        acceptor_(acceptor) {}

  ~TcpEndpoint() override { teardown(); }

  // ----- Endpoint -----
  void send(WorkerMessage message) override {
    throw_if_dead();
    const auto serde_begin = Clock::now();
    tx_.clear();
    if (auto* chunk = std::get_if<ChunkMessage>(&message)) {
      serde::encode_chunk(*chunk, tx_);
      chunk->c.release_to(*pool_);
    } else if (auto* operands = std::get_if<OperandMessage>(&message)) {
      serde::encode_operand(*operands, tx_);
      operands->a.release_to(*pool_);
      operands->b.release_to(*pool_);
    } else {
      serde::encode_cancel(std::get<CancelMessage>(message), tx_);
    }
    if (compress_) {
      const std::size_t saved = maybe_compress_frame(tx_, scratch_);
      if (saved > 0) {
        ++stats_->frames_compressed;
        stats_->bytes_saved_by_compression += saved;
      }
    }
    stats_->serde_seconds += seconds_since(serde_begin);

    // The bounded-inbox rule: no credit, no send. Pump while waiting so
    // results and credits keep flowing (and death is noticed).
    while (credits_ == 0 && !failed_) wait_io();
    throw_if_dead();
    --credits_;
    write_frame();
    ++stats_->messages_sent;
    stats_->bytes_sent += tx_.size();
  }

  std::optional<ResultMessage> try_recv() override {
    if (results_.empty() && !failed_) pump();
    return pop_result();
  }

  std::optional<ResultMessage> recv() override {
    pump();
    while (results_.empty() && !failed_) wait_io();
    return pop_result();
  }

  bool failed() const override { return failed_; }
  std::exception_ptr error() const override { return error_; }
  bool killed() const override { return killed_; }

  void kill() override {
    if (killed_) return;
    killed_ = true;
    if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void drain(BufferPool& pool) override {
    while (!results_.empty()) {
      results_.front().c.release_to(pool);
      results_.pop_front();
    }
    rx_.clear();
  }

  /// Re-admission: the master fully recovered from this worker's death
  /// and asks whether it came back. Claim the staged reconnection (if
  /// the worker redialed by now), reset the connection state and the
  /// credit window, ack the handshake, and report the worker healthy.
  bool try_readmit() override {
    if (!failed_ || killed_) return false;
    acceptor_->poll();
    serde::HelloFrame hello;
    const int fd = acceptor_->take(token_, &hello);
    if (fd < 0) return false;
    if (!hello.same_kernel_config(expected_hello_)) {
      // Cannot happen for a forked child (it re-asserts the master's
      // config), but a drop-in remote worker could diverge: refuse.
      ::close(fd);
      return false;
    }
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
    rx_.clear();
    eof_ = false;
    failed_ = false;
    error_ = nullptr;
    credits_ = capacity_;
    try {
      tx_.clear();
      serde::encode_hello(ack_hello_, tx_);
      write_frame();
    } catch (...) {
      return false;  // the fresh connection died instantly: stay failed
    }
    return true;
  }

  // ----- transport-internal -----
  /// Blocks until the worker's first connection handshook (validating
  /// its kernel configuration) or it died on the launch pad. Bounded.
  void wait_hello() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (fd_ < 0 && !failed_) {
      acceptor_->poll();
      serde::HelloFrame hello;
      const int fd = acceptor_->take(token_, &hello);
      if (fd >= 0) {
        adopt(fd, hello);
        return;
      }
      if (Clock::now() >= deadline) {
        mark_failed("no bootstrap hello within 30s");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Graceful stop: an explicit goodbye (so the worker KNOWS this is
  /// not a dead link and must not redial), then half-close.
  void begin_shutdown() noexcept {
    discarding_ = true;
    if (fd_ >= 0 && !killed_ && !failed_) {
      try {
        tx_.clear();
        serde::encode_control(FrameType::kGoodbye, tx_);
        write_frame();
      } catch (...) {
        // A dying connection on the way out carries the news as EOF.
      }
    }
    if (fd_ >= 0 && !killed_) ::shutdown(fd_, SHUT_WR);
  }

  /// Drains the socket to EOF, reaps the child, closes the fd.
  void finish_shutdown() noexcept {
    discarding_ = true;
    if (fd_ >= 0) {
      try {
        while (!eof_ && !failed_) wait_io();
      } catch (...) {
      }
    }
    teardown();
  }

 private:
  void teardown() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (pid_ > 0 && !reaped_) {
      // A FAILED child may be alive and redialing (or wedged); nothing
      // upstream is obliged to have killed it, and waitpid must never
      // block on a process that will not exit.
      if (failed_) ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      reaped_ = true;
    }
  }

  [[noreturn]] void throw_dead() { std::rethrow_exception(error_); }
  void throw_if_dead() {
    if (failed_) throw_dead();
  }

  std::optional<ResultMessage> pop_result() {
    if (results_.empty()) return std::nullopt;
    ResultMessage result = std::move(results_.front());
    results_.pop_front();
    ++stats_->messages_received;
    return result;
  }

  void mark_failed(const std::string& reason) {
    if (failed_) return;
    std::string what = "tcp worker " + std::to_string(index_) + ": " + reason;
    if (pid_ > 0 && !reaped_) {
      int status = 0;
      const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
      if (reaped == pid_) {
        reaped_ = true;
        if (WIFSIGNALED(status)) {
          what += " (killed by signal " + std::to_string(WTERMSIG(status)) +
                  ")";
        } else if (WIFEXITED(status)) {
          what += " (exit status " + std::to_string(WEXITSTATUS(status)) +
                  ")";
        }
      }
    }
    error_ = std::make_exception_ptr(std::runtime_error(what));
    failed_ = true;
  }

  bool adopt(int fd, const serde::HelloFrame& hello) {
    if (!hello.same_kernel_config(expected_hello_)) {
      ::close(fd);
      mark_failed(
          "worker booted with a divergent kernel configuration "
          "(tier/micro-kernel/tuned blocking)");
      return false;
    }
    fd_ = fd;
    eof_ = false;
    try {
      tx_.clear();
      serde::encode_hello(ack_hello_, tx_);
      write_frame();
    } catch (...) {
      return false;  // write_frame already marked the endpoint failed
    }
    return true;
  }

  /// Ships the prepared frame, pumping inbound traffic whenever the
  /// socket back-pressures.
  void write_frame() {
    std::size_t done = 0;
    while (done < tx_.size()) {
      const ssize_t n = ::send(fd_, tx_.data() + done, tx_.size() - done,
                               MSG_NOSIGNAL);
      if (n > 0) {
        done += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        wait_io(/*want_write=*/true);
        if (failed_) throw_dead();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
        mark_failed("connection lost mid-write");
        throw_dead();
      }
      mark_failed(std::string("send failed: ") + std::strerror(errno));
      throw_dead();
    }
  }

  void wait_io(bool want_write = false, int timeout_ms = -1) {
    if (eof_ || fd_ < 0) {
      if (!failed_) mark_failed("connection closed");
      return;
    }
    struct pollfd entry;
    entry.fd = fd_;
    entry.events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
    entry.revents = 0;
    const int ready = ::poll(&entry, 1, timeout_ms);
    if (ready < 0 && errno != EINTR) {
      mark_failed(std::string("poll failed: ") + std::strerror(errno));
      return;
    }
    pump();
  }

  void pump() {
    if (eof_ || fd_ < 0) return;
    std::uint8_t buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n > 0) {
        rx_.insert(rx_.end(), buffer, buffer + n);
        if (static_cast<std::size_t>(n) < sizeof buffer) break;
        continue;
      }
      if (n == 0) {
        eof_ = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        eof_ = true;
        break;
      }
      mark_failed(std::string("recv failed: ") + std::strerror(errno));
      return;
    }
    parse_frames();
    if (eof_ && !failed_ && !discarding_)
      mark_failed("connection lost (closed without a goodbye)");
  }

  void parse_frames() {
    std::size_t cursor = 0;
    while (rx_.size() - cursor >= serde::kLengthBytes) {
      std::uint64_t length = 0;
      try {
        // Geometry-derived bound: a corrupt prefix fails the endpoint
        // cleanly, it never sizes an allocation.
        length = serde::checked_frame_length(rx_.data() + cursor,
                                             max_frame_bytes_);
      } catch (const std::exception& error) {
        mark_failed(error.what());
        break;
      }
      if (rx_.size() - cursor - serde::kLengthBytes < length) break;
      try {
        dispatch(rx_.data() + cursor + serde::kLengthBytes,
                 static_cast<std::size_t>(length));
      } catch (const std::exception& error) {
        mark_failed(std::string("protocol corruption: ") + error.what());
        break;
      }
      cursor += serde::kLengthBytes + static_cast<std::size_t>(length);
      stats_->bytes_received += serde::kLengthBytes +
                               static_cast<std::size_t>(length);
    }
    if (cursor > 0)
      rx_.erase(rx_.begin(),
                rx_.begin() + static_cast<std::ptrdiff_t>(cursor));
  }

  void dispatch(const std::uint8_t* body, std::size_t size) {
    if (serde::frame_type(body, size) == FrameType::kCompressed) {
      // Unwrap (bounded by the same frame limit; nesting rejected by
      // the decoder) and dispatch the inner body.
      serde::decode_compressed(body, size, max_frame_bytes_, raw_);
      dispatch(raw_.data(), raw_.size());
      return;
    }
    switch (serde::frame_type(body, size)) {
      case FrameType::kCredit:
        ++credits_;
        break;
      case FrameType::kResult: {
        if (discarding_) break;
        const auto serde_begin = Clock::now();
        results_.push_back(serde::decode_result(body, size, *pool_));
        stats_->serde_seconds += seconds_since(serde_begin);
        break;
      }
      case FrameType::kError:
        mark_failed(serde::decode_error(body, size));
        break;
      default:
        // Hellos never ride an admitted connection -- the Acceptor owns
        // every handshake -- so one here is as corrupt as any stranger.
        mark_failed("unexpected frame from worker");
        break;
    }
  }

  int index_;
  std::uint64_t token_;
  pid_t pid_;
  std::size_t capacity_;
  std::size_t credits_;
  serde::HelloFrame expected_hello_;
  serde::HelloFrame ack_hello_;
  BufferPool* pool_;
  TransportStats* stats_;
  std::uint64_t max_frame_bytes_;
  bool compress_;
  Acceptor* acceptor_;
  int fd_ = -1;
  ByteBuffer rx_;
  ByteBuffer tx_;
  ByteBuffer raw_;
  ByteBuffer scratch_;
  std::deque<ResultMessage> results_;
  std::exception_ptr error_;
  bool failed_ = false;
  bool killed_ = false;
  bool eof_ = false;
  bool discarding_ = false;
  bool reaped_ = false;
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(int workers, std::size_t inbox_capacity,
               const ExecutorOptions& options, Clock::time_point run_begin,
               BufferPool* pool, std::size_t max_payload_doubles)
      : endpoint_stats_(static_cast<std::size_t>(workers)) {
    // Resolve (possibly autotune) the blocking in the master, before
    // any fork; children re-assert and answer for exactly this state.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const serde::HelloFrame expected_hello = serde::local_hello(config);
    const std::uint64_t max_frame_bytes =
        options.max_frame_bytes != 0
            ? static_cast<std::uint64_t>(options.max_frame_bytes)
            : serde::max_frame_bytes_for(max_payload_doubles);

    // Identity tokens: random base + index, never 0 (0 marks the
    // socketpair transports, where the fd itself is the identity).
    std::random_device entropy;
    const std::uint64_t base =
        (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
    const auto count = static_cast<std::size_t>(workers);
    try {
      endpoints_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t token = (base | 1) + i;
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);
        const bool compress = options.wire_compression;

        const pid_t pid = ::fork();
        HMXP_CHECK(pid >= 0, "fork failed");
        if (pid == 0) {
          // Child: it DIALS, so the only inherited resource to drop is
          // the master's listen socket.
          acceptor_.close_in_child();
          run_child(acceptor_.port(), token, context, config,
                    max_frame_bytes, compress);  // never returns
        }
        serde::HelloFrame ack = expected_hello;
        ack.token = token;
        endpoints_.push_back(std::make_unique<TcpEndpoint>(
            static_cast<int>(i), token, pid, inbox_capacity, expected_hello,
            ack, pool, &endpoint_stats_[i], max_frame_bytes, compress,
            &acceptor_));
      }
    } catch (...) {
      shutdown();
      throw;
    }
    // Synchronize on every worker's bootstrap handshake: launch-pad
    // deaths, version skews and kernel-tier mismatches surface here.
    for (auto& endpoint : endpoints_) endpoint->wait_hello();
  }

  ~TcpTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kTcp; }
  int worker_count() const override {
    return static_cast<int>(endpoints_.size());
  }
  Endpoint& endpoint(int worker) override {
    HMXP_REQUIRE(worker >= 0 &&
                     static_cast<std::size_t>(worker) < endpoints_.size(),
                 "worker index out of range");
    return *endpoints_[static_cast<std::size_t>(worker)];
  }

  void shutdown() noexcept override {
    for (auto& endpoint : endpoints_) endpoint->begin_shutdown();
    for (auto& endpoint : endpoints_) endpoint->finish_shutdown();
    acceptor_.close_all();
  }

  TransportStats stats() const override {
    TransportStats total;
    for (const TransportStats& slot : endpoint_stats_) total += slot;
    return total;
  }

 private:
  Acceptor acceptor_;
  // One slot per endpoint (each writes only its own; stable addresses,
  // never resized) so concurrent fleet jobs never race on a counter.
  std::vector<TransportStats> endpoint_stats_;
  std::vector<std::unique_ptr<TcpEndpoint>> endpoints_;
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(
    int workers, std::size_t inbox_capacity, const ExecutorOptions& options,
    std::chrono::steady_clock::time_point run_begin, BufferPool* pool,
    std::size_t max_payload_doubles) {
  return std::make_unique<TcpTransport>(workers, inbox_capacity, options,
                                        run_begin, pool, max_payload_doubles);
}

}  // namespace hmxp::runtime
