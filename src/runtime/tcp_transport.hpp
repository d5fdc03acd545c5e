// TcpTransport support declarations. The transport itself is reached
// through make_tcp_transport (runtime/transport.hpp); this header only
// exposes what tests and fault-injection hooks need by name.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/serde.hpp"

namespace hmxp::runtime {

/// Thrown from a fault_hook inside a TCP worker to sever its connection
/// mid-run WITHOUT killing the process: the worker closes its socket
/// abruptly (no goodbye, no error notice), the master observes a dead
/// connection and recovers the orphaned chunk, and the worker redials
/// and re-handshakes -- exercising the disconnect/reconnect lifecycle a
/// real cluster run would see on a flaky link. Outside the TCP
/// transport it behaves as an ordinary worker-killing exception.
class TcpDisconnectFault : public std::runtime_error {
 public:
  explicit TcpDisconnectFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// Owns the listen socket and every connection that has not yet proven
/// an identity: accepts, reads the handshake frame under a tight bound
/// and a deadline, rejects strangers with a kError, and stages
/// authenticated connections by token until an endpoint claims them.
/// Single-threaded like the whole master loop; endpoints drive it by
/// calling poll() from their bootstrap and re-admission paths.
class Acceptor {
 public:
  /// Binds a non-blocking listen socket on 127.0.0.1 (ephemeral port).
  Acceptor();
  ~Acceptor();
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accepts whatever is queued and advances every pending handshake;
  /// non-blocking throughout.
  void poll();

  /// Claims the staged connection presenting `token`; -1 if none. The
  /// returned fd is non-blocking, ready for an endpoint's pump loop.
  int take(std::uint64_t token, serde::HelloFrame* hello);

  void close_all() noexcept;

 private:
  struct Pending {
    int fd = -1;
    serde::ByteBuffer rx;
    std::chrono::steady_clock::time_point deadline;
  };
  struct Staged {
    int fd = -1;
    serde::HelloFrame hello;
  };

  void accept_new();
  /// Reads the pending connection's hello and nothing past it; true
  /// when it should be dropped (EOF, corruption, rejection), false to
  /// keep waiting. A completed valid hello moves the connection to
  /// staged_ (also returning true -- the fd moved, Pending::fd is
  /// cleared).
  bool advance(Pending& conn);
  void reject(int fd, const std::string& reason) noexcept;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Pending> pending_;
  std::vector<Staged> staged_;
};

}  // namespace hmxp::runtime
