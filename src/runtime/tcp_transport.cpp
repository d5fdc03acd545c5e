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
// The framed core (runtime/framed_endpoint.hpp) carries everything
// after admission -- credits, frames, failure, shutdown -- exactly as
// for the process transport; this file keeps only what dialing adds:
// the Acceptor, the identity token, the worker's dial / handshake /
// redial loop, and Endpoint::try_readmit.
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "matrix/kernel_dispatch.hpp"
#include "runtime/framed_endpoint.hpp"
#include "runtime/socket_util.hpp"
#include "runtime/tcp_transport.hpp"

namespace hmxp::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using serde::ByteBuffer;
using serde::FrameType;

/// Handshake frames are a fixed handful of integers; anything bigger
/// is not a worker saying hello. Bounding the PRE-authentication read
/// this tightly means an unauthenticated peer can never make the
/// master buffer more than one such frame.
constexpr std::uint64_t kHandshakeFrameBytes = 4096;

void set_nodelay(int fd) {
  // Credits and cancels are latency-critical one-liners; never let
  // Nagle batch them behind a payload.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// 127.0.0.1:`port` (port 0: the kernel picks a free ephemeral one).
sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
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
    const sockaddr_in addr = loopback(port);
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
  send_local_hello(fd, token);
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

/// Child-process entry with the reconnect loop: dial, handshake, serve.
/// A severed connection (PeerDisconnected from either direction, or a
/// TcpDisconnectFault injected by a fault hook) drops the socket and
/// loops back to redial -- the worker restarts its protocol state from
/// scratch, which is correct because the master rolled back everything
/// it had in flight when it observed the death. Any other exception is
/// a real worker death, handled by run_worker_child like the process
/// transport's child.
[[noreturn]] void run_child(std::uint16_t port, std::uint64_t token,
                            const WorkerContext& context,
                            const matrix::KernelConfig& config,
                            std::uint64_t max_frame_bytes) {
  int fd = -1;
  run_worker_child(config, &fd, [&](BufferPool& pool) {
    for (;;) {
      try {
        fd = dial_master(port);
        handshake(fd, token);
        FramedWorkerPort worker_port(fd, &pool, max_frame_bytes);
        worker_main(context, worker_port, pool);
        return;  // goodbye received: clean exit
      } catch (const TcpDisconnectFault&) {
        // Injected link failure: sever abruptly (no goodbye, no notice)
        // and come back -- worker_main already surrendered the chunk.
      } catch (const PeerDisconnected&) {
        // The link (or the master's endpoint) dropped under us: redial.
        // If the master is really gone, dial_master's deadline (or
        // PDEATHSIG) ends the loop.
      }
      ::close(fd);
      fd = -1;
    }
  });
}

// ---- master side ------------------------------------------------------------

}  // namespace

Acceptor::Acceptor() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  HMXP_CHECK(listen_fd_ >= 0, "socket failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(0);
  HMXP_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0,
             "bind 127.0.0.1 failed");
  HMXP_CHECK(::listen(listen_fd_, 64) == 0, "listen failed");
  socklen_t len = sizeof addr;
  HMXP_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &len) == 0,
             "getsockname failed");
  port_ = ntohs(addr.sin_port);
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  HMXP_CHECK(
      flags >= 0 && ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) == 0,
      "fcntl O_NONBLOCK failed");
}

Acceptor::~Acceptor() { close_all(); }

void Acceptor::poll() {
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

int Acceptor::take(std::uint64_t token, serde::HelloFrame* hello) {
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

void Acceptor::close_all() noexcept {
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

void Acceptor::accept_new() {
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

bool Acceptor::advance(Pending& conn) {
  // Read the length prefix, then exactly the frame it announces: the
  // buffer never outgrows kLengthBytes + kHandshakeFrameBytes, and
  // bytes past the hello stay in the socket for the claiming endpoint.
  for (;;) {
    std::size_t want = serde::kLengthBytes;
    if (conn.rx.size() >= serde::kLengthBytes) {
      try {
        want += serde::checked_frame_length(conn.rx.data(),
                                            kHandshakeFrameBytes);
      } catch (const std::exception& error) {
        reject(conn.fd, error.what());
        return true;
      }
      if (conn.rx.size() == want) break;
    }
    const std::size_t have = conn.rx.size();
    conn.rx.resize(want);
    const ssize_t n = ::recv(conn.fd, conn.rx.data() + have, want - have, 0);
    conn.rx.resize(have + static_cast<std::size_t>(n > 0 ? n : 0));
    if (n > 0) continue;
    if (n == 0) return true;  // EOF before a full hello
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    return true;  // reset or a real error: drop
  }
  try {
    Staged staged;
    staged.hello = serde::decode_hello(conn.rx.data() + serde::kLengthBytes,
                                       conn.rx.size() - serde::kLengthBytes);
    staged.fd = conn.fd;
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

void Acceptor::reject(int fd, const std::string& reason) noexcept {
  try {
    ByteBuffer frame;
    serde::encode_error(reason, frame);
    write_exact(fd, frame.data(), frame.size());
  } catch (...) {
    // A full non-blocking socket or a dead peer: give up quietly.
  }
}

namespace {

/// The framed core over an ADMITTED connection: the endpoint starts
/// without a socket, claims its worker's connection from the Acceptor
/// by identity token, and claims it again after a reconnect.
class TcpEndpoint final : public FramedEndpoint {
 public:
  TcpEndpoint(int index, std::uint64_t token, pid_t pid, std::size_t credits,
              const serde::HelloFrame& expected_hello, BufferPool* pool,
              std::uint64_t max_frame_bytes, Acceptor* acceptor)
      : FramedEndpoint("tcp worker " + std::to_string(index), /*fd=*/-1, pid,
                       credits, max_frame_bytes, expected_hello, pool),
        token_(token),
        acceptor_(acceptor) {}

  /// Re-admission: the master fully recovered from this worker's death
  /// and asks whether it came back. Claims the staged reconnection (if
  /// the worker redialed by now) with a fresh credit window.
  bool try_readmit() override { return failed_ && !killed_ && claim(); }

  /// Blocks until the worker's first connection handshook (validating
  /// its kernel configuration) or it died on the launch pad. Bounded.
  void wait_admission() {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (fd_ < 0 && !failed_) {
      if (claim()) return;
      if (Clock::now() >= deadline) {
        mark_failed("no bootstrap hello within 30s");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  /// Claims the staged connection presenting this worker's token, checks
  /// its hello, adopts it and acks the handshake. False when none is
  /// staged yet, or when the connection was refused or died instantly.
  bool claim() {
    acceptor_->poll();
    serde::HelloFrame hello;
    const int fd = acceptor_->take(token_, &hello);
    if (fd < 0) return false;
    try {
      // Cannot fail for a forked child (it re-asserts the master's
      // config), but a drop-in remote worker could diverge: refuse.
      accept_hello(hello);
    } catch (const std::exception& error) {
      ::close(fd);
      mark_failed(error.what());
      return false;
    }
    reset_connection(fd);
    try {
      serde::HelloFrame ack = expected_hello_;
      ack.token = token_;
      tx_.clear();
      serde::encode_hello(ack, tx_);
      write_frame();
    } catch (...) {
      return false;  // write_frame already marked the endpoint failed
    }
    return true;
  }

  std::uint64_t token_;
  Acceptor* acceptor_;
};

class TcpTransport final : public FramedTransport<TcpEndpoint> {
 public:
  TcpTransport(int workers, std::size_t inbox_capacity,
               const ExecutorOptions& options, Clock::time_point run_begin,
               BufferPool* pool, std::size_t max_payload_doubles)
      : FramedTransport(workers) {
    // Resolve (possibly autotune) the blocking in the master, before
    // any fork; children re-assert and answer for exactly this state.
    const matrix::KernelConfig config = matrix::current_kernel_config();
    const serde::HelloFrame expected_hello = serde::local_hello(config);
    const std::uint64_t max_frame_bytes =
        serde::max_frame_bytes_for(max_payload_doubles);

    // Identity tokens: random base + index, never 0 (0 marks the
    // socketpair transports, where the fd itself is the identity).
    std::random_device entropy;
    const std::uint64_t base =
        (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
    try {
      for (std::size_t i = 0; i < static_cast<std::size_t>(workers); ++i) {
        const std::uint64_t token = (base | 1) + i;
        const WorkerContext context =
            make_worker_context(options, static_cast<int>(i), run_begin);

        const pid_t pid = ::fork();
        HMXP_CHECK(pid >= 0, "fork failed");
        if (pid == 0) {
          // Child: it DIALS, so the only inherited resource to drop is
          // the master's listen socket (a dangling copy would keep the
          // port alive past the master).
          acceptor_.close_all();
          run_child(acceptor_.port(), token, context, config,
                    max_frame_bytes);  // never returns
        }
        endpoints_.push_back(std::make_unique<TcpEndpoint>(
            static_cast<int>(i), token, pid, inbox_capacity, expected_hello,
            pool, max_frame_bytes, &acceptor_));
      }
    } catch (...) {
      shutdown();
      throw;
    }
    // Synchronize on every worker's bootstrap handshake: launch-pad
    // deaths, version skews and kernel-tier mismatches surface here.
    for (auto& endpoint : endpoints_) endpoint->wait_admission();
  }

  ~TcpTransport() override { shutdown(); }

  TransportKind kind() const override { return TransportKind::kTcp; }

  void shutdown() noexcept override {
    FramedTransport::shutdown();
    acceptor_.close_all();
  }

 private:
  Acceptor acceptor_;
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
