#include "runtime/framed_endpoint.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <variant>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "matrix/kernel_dispatch.hpp"
#include "runtime/socket_util.hpp"

namespace hmxp::runtime {

using Clock = std::chrono::steady_clock;
using serde::FrameType;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// ---- master side ------------------------------------------------------------

FramedEndpoint::FramedEndpoint(std::string name, int fd, pid_t pid,
                               std::size_t credits,
                               std::uint64_t max_frame_bytes,
                               const serde::HelloFrame& expected_hello,
                               BufferPool* pool)
    : fd_(fd),
      capacity_(credits),
      expected_hello_(expected_hello),
      name_(std::move(name)),
      pid_(pid),
      credits_(credits),
      max_frame_bytes_(max_frame_bytes),
      pool_(pool) {}

FramedEndpoint::~FramedEndpoint() { teardown(); }

void FramedEndpoint::send(WorkerMessage message) {
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
  stats_.serde_seconds += seconds_since(serde_begin);

  // The bounded-inbox rule: no credit, no send. Pump while waiting so
  // results and credits keep flowing (and death is noticed).
  while (credits_ == 0 && !failed_) wait_io();
  throw_if_dead();
  --credits_;
  write_frame();
  ++stats_.messages_sent;
  stats_.bytes_sent += tx_.size();
}

std::optional<ResultMessage> FramedEndpoint::try_recv() {
  if (results_.empty() && !failed_) pump();
  return pop_result();
}

std::optional<ResultMessage> FramedEndpoint::recv() {
  pump();
  while (results_.empty() && !failed_) wait_io();
  return pop_result();
}

void FramedEndpoint::kill() {
  if (killed_) return;
  killed_ = true;
  if (pid_ > 0 && !reaped_) ::kill(pid_, SIGKILL);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void FramedEndpoint::drain(BufferPool& pool) {
  for (ResultMessage& result : results_) result.c.release_to(pool);
  results_.clear();
  rx_.clear();
}

void FramedEndpoint::wait_hello() {
  pump();
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (!hello_seen_ && !failed_) {
    if (Clock::now() >= deadline) {
      mark_failed("no bootstrap hello within 30s");
      break;
    }
    wait_io(/*want_write=*/false, /*timeout_ms=*/1000);
  }
}

void FramedEndpoint::begin_shutdown() noexcept {
  discarding_ = true;
  if (fd_ >= 0 && !killed_ && !failed_) {
    try {
      send_goodbye();
    } catch (...) {
      // A dying connection on the way out carries the news as EOF.
    }
  }
  if (fd_ >= 0 && !killed_) ::shutdown(fd_, SHUT_WR);
}

void FramedEndpoint::finish_shutdown() noexcept {
  discarding_ = true;
  if (fd_ >= 0) {
    try {
      // Bounded waits: pump_side runs between them, which is what lets
      // a shm worker parked on a full outbox drain, finish and close.
      while (!eof_ && !failed_)
        wait_io(/*want_write=*/false, /*timeout_ms=*/10);
    } catch (...) {
      // Corrupt trailing frames on a teardown path are ignorable.
    }
  }
  teardown();
}

void FramedEndpoint::send_goodbye() {
  tx_.clear();
  serde::encode_control(FrameType::kGoodbye, tx_);
  write_frame();
}

void FramedEndpoint::accept_hello(const serde::HelloFrame& hello) {
  // Identity and resource fields legitimately differ; the kernel
  // configuration must not.
  HMXP_CHECK(hello.same_kernel_config(expected_hello_),
             "worker booted with a divergent kernel configuration "
             "(tier/micro-kernel/tuned blocking)");
  hello_seen_ = true;
}

void FramedEndpoint::reset_connection(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  rx_.clear();
  eof_ = false;
  failed_ = false;
  error_ = nullptr;
  credits_ = capacity_;
}

void FramedEndpoint::teardown() noexcept {
  // Close first: the EOF is what makes a still-draining child exit, so
  // the blocking reap below cannot hang on a healthy worker.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (pid_ > 0 && !reaped_) {
    // A FAILED child may still be alive (wedged before its hello,
    // redialing, or spewing corrupt frames): nothing upstream is
    // obliged to have killed it, and waitpid must never block on a
    // process that will not exit. Killing an exited-but-unreaped child
    // is a no-op (the zombie pins the pid, so this cannot hit a
    // recycled process).
    if (failed_) ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    reaped_ = true;
  }
  // Results parsed but never popped hand their storage back (an arena
  // slot would otherwise stay pinned); a clean run has none.
  results_.clear();
}

std::optional<ResultMessage> FramedEndpoint::pop_result() {
  if (results_.empty()) return std::nullopt;
  ResultMessage result = std::move(results_.front());
  results_.pop_front();
  ++stats_.messages_received;
  return result;
}

void FramedEndpoint::mark_failed(const std::string& reason) {
  if (failed_) return;
  std::string what = name_ + ": " + reason;
  if (pid_ > 0 && !reaped_) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      if (WIFSIGNALED(status)) {
        what += " (killed by signal " + std::to_string(WTERMSIG(status)) + ")";
      } else if (WIFEXITED(status)) {
        what += " (exit status " + std::to_string(WEXITSTATUS(status)) + ")";
      }
    }
  }
  error_ = std::make_exception_ptr(std::runtime_error(what));
  failed_ = true;
}

void FramedEndpoint::write_frame() {
  std::size_t done = 0;
  while (done < tx_.size()) {
    const ssize_t n =
        ::send(fd_, tx_.data() + done, tx_.size() - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_io(/*want_write=*/true);
      throw_if_dead();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    mark_failed(std::string("send failed: ") + std::strerror(errno));
    throw_dead();
  }
}

void FramedEndpoint::wait_io(bool want_write, int timeout_ms) {
  pump_side();
  if (eof_ || fd_ < 0) {
    if (!failed_) mark_failed("connection closed");
    return;
  }
  struct pollfd entry;
  entry.fd = fd_;
  entry.events = static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
  entry.revents = 0;
  if (::poll(&entry, 1, timeout_ms) < 0 && errno != EINTR) {
    mark_failed(std::string("poll failed: ") + std::strerror(errno));
    return;
  }
  pump();
  pump_side();
}

void FramedEndpoint::pump() {
  if (eof_ || fd_ < 0) return;
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      rx_.insert(rx_.end(), buffer, buffer + n);
      if (static_cast<std::size_t>(n) < sizeof buffer) break;
      continue;
    }
    if (n == 0 || errno == ECONNRESET) {
      eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    mark_failed(std::string("recv failed: ") + std::strerror(errno));
    return;
  }
  parse_frames();
  if (eof_ && !failed_ && !discarding_)
    mark_failed("connection closed unexpectedly");
}

void FramedEndpoint::parse_frames() {
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
      // Corrupt frame CONTENT is the same protocol death as a corrupt
      // length: the worker failed, the run recovers under
      // tolerate_faults -- it must never abort a tolerant run.
      mark_failed(std::string("protocol corruption: ") + error.what());
      break;
    }
    cursor += serde::kLengthBytes + static_cast<std::size_t>(length);
    stats_.bytes_received +=
        serde::kLengthBytes + static_cast<std::size_t>(length);
  }
  if (cursor > 0)
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(cursor));
}

void FramedEndpoint::dispatch(const std::uint8_t* body, std::size_t size) {
  switch (serde::frame_type(body, size)) {
    case FrameType::kCredit:
      ++credits_;
      break;
    case FrameType::kResult: {
      if (discarding_) break;
      const auto serde_begin = Clock::now();
      results_.push_back(serde::decode_result(body, size, *pool_));
      stats_.serde_seconds += seconds_since(serde_begin);
      break;
    }
    case FrameType::kHello:
      // One hello per connection, and none on a connection a TCP
      // Acceptor already handshook: a second is as corrupt as a
      // stranger. decode_hello validates magic and protocol version.
      if (hello_seen_) {
        mark_failed("unexpected second hello from worker");
        break;
      }
      accept_hello(serde::decode_hello(body, size));
      break;
    case FrameType::kError:
      mark_failed(serde::decode_error(body, size));
      break;
    default:
      mark_failed("unexpected frame from worker");
      break;
  }
}

// ---- worker side ------------------------------------------------------------

std::optional<WorkerMessage> FramedWorkerPort::receive() {
  // The cancel lookahead (try_receive) may consume the goodbye; the
  // latch keeps it observed, so this blocking receive still exits
  // cleanly instead of reading the EOF behind it as a dropped link (and
  // redialing a master that is reaping its workers).
  if (goodbye_) return std::nullopt;
  if (!read_frame(fd_, body_, max_frame_bytes_))
    throw PeerDisconnected("connection closed without a goodbye");
  const FrameType type = serde::frame_type(body_.data(), body_.size());
  if (type == FrameType::kGoodbye) {
    goodbye_ = true;
    return std::nullopt;
  }

  tx_.clear();
  serde::encode_control(FrameType::kCredit, tx_);
  write_exact(fd_, tx_.data(), tx_.size());

  switch (type) {
    case FrameType::kChunk:
      return WorkerMessage(
          serde::decode_chunk(body_.data(), body_.size(), *pool_));
    case FrameType::kOperand:
      return WorkerMessage(
          serde::decode_operand(body_.data(), body_.size(), *pool_));
    case FrameType::kCancel:
      return WorkerMessage(serde::decode_cancel(body_.data(), body_.size()));
    default:
      throw std::runtime_error("unexpected inbound frame type");
  }
}

std::optional<WorkerMessage> FramedWorkerPort::try_receive() {
  struct pollfd probe;
  probe.fd = fd_;
  probe.events = POLLIN;
  probe.revents = 0;
  if (::poll(&probe, 1, 0) != 1 || (probe.revents & POLLIN) == 0)
    return std::nullopt;
  return receive();
}

void FramedWorkerPort::send(ResultMessage result) {
  tx_.clear();
  serde::encode_result(result, tx_);
  // Payload storage recycles in the worker's own pool.
  result.c.release_to(*pool_);
  write_exact(fd_, tx_.data(), tx_.size());
}

void send_local_hello(int fd, std::uint64_t token) {
  serde::HelloFrame hello = serde::local_hello(matrix::current_kernel_config());
  hello.token = token;
  serde::ByteBuffer frame;
  serde::encode_hello(hello, frame);
  write_exact(fd, frame.data(), frame.size());
}

// ---- forked children --------------------------------------------------------

void run_worker_child(const matrix::KernelConfig& config,
                      const int* notice_fd,
                      const std::function<void(BufferPool& pool)>& serve) {
#if defined(__linux__)
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  // fork() inherits the dispatch statics, but the configuration is
  // re-asserted explicitly (and exported) so the guarantee holds for a
  // transport that execs instead of forking, and for the worker's own
  // children.
  matrix::install_kernel_config(config);
  BufferPool pool;
  try {
    serve(pool);
  } catch (const std::exception& error) {
    if (*notice_fd >= 0) {
      try {
        serde::ByteBuffer notice;
        serde::encode_error(error.what(), notice);
        write_exact(*notice_fd, notice.data(), notice.size());
      } catch (...) {
        // The socket is gone too; the EOF alone carries the news.
      }
    }
    ::_exit(2);
  } catch (...) {
    ::_exit(2);
  }
  ::_exit(0);
}

void spawn_socketpair_workers(
    std::size_t count, const std::function<void(std::size_t, int)>& run_child,
    const std::function<void(std::size_t, int, pid_t)>& adopt) {
  // master_fds keeps every master-end NUMBER for the whole loop (even
  // once adopted): each child must close every master end it inherited,
  // or a dead child's socket would never read as EOF.
  std::vector<int> master_fds(count, -1);
  std::vector<int> child_fds(count, -1);
  std::size_t adopted = 0;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      int fds[2];
      HMXP_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                 "socketpair failed");
      master_fds[i] = fds[0];
      child_fds[i] = fds[1];
    }
    for (std::size_t i = 0; i < count; ++i) {
      const pid_t pid = ::fork();
      HMXP_CHECK(pid >= 0, "fork failed");
      if (pid == 0) {
        // Child: keep only this worker's own end.
        for (std::size_t j = 0; j < count; ++j) {
          if (master_fds[j] >= 0) ::close(master_fds[j]);
          if (j != i && child_fds[j] >= 0) ::close(child_fds[j]);
        }
        run_child(i, child_fds[i]);
        ::_exit(2);  // unreachable: run_child never returns
      }
      // Master: the child end belongs to the child now.
      ::close(child_fds[i]);
      child_fds[i] = -1;
      const int fd = master_fds[i];
      const int flags = ::fcntl(fd, F_GETFL, 0);
      HMXP_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl O_NONBLOCK failed");
      adopted = i + 1;
      adopt(i, fd, pid);
    }
  } catch (...) {
    for (std::size_t j = adopted; j < count; ++j)
      if (master_fds[j] >= 0) ::close(master_fds[j]);
    for (const int fd : child_fds)
      if (fd >= 0) ::close(fd);
    throw;
  }
}

}  // namespace hmxp::runtime
