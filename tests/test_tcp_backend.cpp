// Tests for the TCP transport and the wire-hardening around it: the
// versioned hello handshake (magic + protocol version, errors naming
// both versions), frame-length validation (a corrupt 8-byte prefix must
// fail the connection cleanly, never size an allocation), the shared
// socket I/O helpers' death classification (mid-frame EOF is a distinct
// peer-died error), loopback-TCP live and replay parity with the
// thread transport for every registered scheduler, and the
// disconnect/reconnect lifecycle: a worker severed mid-run redials, is
// re-admitted, and the run completes bit-for-bit equal to the
// fault-free product -- unless a lease manager wrote the worker off, in
// which case the fleet job completes without it. The Acceptor's
// pre-authentication read stops at the end of the hello frame.
//
// Like the process suite, everything that forks skips under TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/run.hpp"
#include "matrix/matrix.hpp"
#include "runtime/executor.hpp"
#include "runtime/fleet.hpp"
#include "runtime/serde.hpp"
#include "runtime/socket_util.hpp"
#include "runtime/tcp_transport.hpp"
#include "sched/registry.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMXP_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define HMXP_TSAN 1
#endif

#if defined(HMXP_TSAN)
#define HMXP_SKIP_UNDER_TSAN()                                   \
  GTEST_SKIP() << "tcp transport forks worker processes, which " \
                  "ThreadSanitizer does not support"
#else
#define HMXP_SKIP_UNDER_TSAN() \
  do {                         \
  } while (false)
#endif

namespace hmxp::runtime {
namespace {

matrix::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  return matrix::Matrix::random(rows, cols, rng);
}

// ---- versioned handshake ----------------------------------------------------

TEST(TcpSerde, HelloFrameRoundTripsIdentityAndResources) {
  serde::HelloFrame hello;
  hello.token = 0xfeedfacecafe01ull;
  hello.cores = 48;
  hello.memory_mb = 192 * 1024;
  hello.kernel_tier = 3;
  hello.kernel_variant = 2;
  hello.mc = 256;
  hello.kc = 512;
  hello.nc = 4096;

  serde::ByteBuffer wire;
  serde::encode_hello(hello, wire);
  const std::uint64_t length = serde::decode_length(wire.data());
  const serde::HelloFrame decoded = serde::decode_hello(
      wire.data() + serde::kLengthBytes, static_cast<std::size_t>(length));
  EXPECT_EQ(decoded, hello);
  EXPECT_EQ(decoded.magic, serde::kProtocolMagic);
  EXPECT_EQ(decoded.version, serde::kProtocolVersion);
  EXPECT_TRUE(decoded.same_kernel_config(hello));

  // Identity and resources legitimately differ across hosts; only the
  // kernel configuration must match.
  serde::HelloFrame other_host = hello;
  other_host.token = 7;
  other_host.cores = 2;
  other_host.memory_mb = 900;
  EXPECT_TRUE(other_host.same_kernel_config(hello));
  other_host.mc = 128;
  EXPECT_FALSE(other_host.same_kernel_config(hello));
}

TEST(TcpSerde, VersionMismatchNamesBothVersions) {
  serde::HelloFrame hello;
  hello.version = serde::kProtocolVersion + 7;
  serde::ByteBuffer wire;
  serde::encode_hello(hello, wire);
  const std::uint64_t length = serde::decode_length(wire.data());
  try {
    serde::decode_hello(wire.data() + serde::kLengthBytes,
                        static_cast<std::size_t>(length));
    FAIL() << "expected a protocol version mismatch";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // Both versions by name: the peer's and this build's.
    EXPECT_NE(what.find(std::to_string(serde::kProtocolVersion + 7)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("v" + std::to_string(serde::kProtocolVersion)),
              std::string::npos)
        << what;
  }
}

TEST(TcpSerde, BadMagicIsNotAWorker) {
  serde::HelloFrame hello;
  hello.magic = 0x47455420;  // "GET " -- some stray HTTP client
  serde::ByteBuffer wire;
  serde::encode_hello(hello, wire);
  const std::uint64_t length = serde::decode_length(wire.data());
  try {
    serde::decode_hello(wire.data() + serde::kLengthBytes,
                        static_cast<std::size_t>(length));
    FAIL() << "expected a magic mismatch";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("magic"), std::string::npos)
        << error.what();
  }
}

// ---- frame-length validation ------------------------------------------------

TEST(TcpSerde, CheckedFrameLengthRefusesCorruptPrefixes) {
  const std::uint64_t limit = serde::max_frame_bytes_for(1000);
  EXPECT_LT(limit, serde::kMaxFrameBytes);

  std::uint8_t prefix[serde::kLengthBytes];
  const std::uint64_t huge = 1ull << 50;  // a "4 PiB frame" from line noise
  std::memcpy(prefix, &huge, sizeof huge);
  try {
    serde::checked_frame_length(prefix, limit);
    FAIL() << "expected the oversized length to be refused";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("refusing to allocate"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(huge)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(limit)), std::string::npos) << what;
  }

  const std::uint64_t zero = 0;
  std::memcpy(prefix, &zero, sizeof zero);
  EXPECT_THROW(serde::checked_frame_length(prefix, limit),
               std::runtime_error);

  const std::uint64_t fine = limit;
  std::memcpy(prefix, &fine, sizeof fine);
  EXPECT_EQ(serde::checked_frame_length(prefix, limit), limit);
}

// ---- corrupt wire bytes through the shared socket helpers -------------------

struct SocketPair {
  int read_end = -1;
  int write_end = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    read_end = fds[0];
    write_end = fds[1];
  }
  ~SocketPair() {
    if (read_end >= 0) ::close(read_end);
    if (write_end >= 0) ::close(write_end);
  }
  void write_bytes(const void* data, std::size_t size) const {
    ASSERT_EQ(::send(write_end, data, size, 0),
              static_cast<ssize_t>(size));
  }
  void close_write() {
    ::close(write_end);
    write_end = -1;
  }
};

constexpr std::uint64_t kTestFrameLimit = 1 << 16;

TEST(SocketUtil, CleanEofAtFrameBoundaryIsNotAnError) {
  SocketPair pair;
  pair.close_write();
  std::vector<std::uint8_t> body;
  EXPECT_FALSE(read_frame(pair.read_end, body, kTestFrameLimit));
}

TEST(SocketUtil, TruncatedPrefixIsPeerDeath) {
  SocketPair pair;
  const std::uint8_t stub[3] = {1, 2, 3};  // 3 of the 8 prefix bytes
  pair.write_bytes(stub, sizeof stub);
  pair.close_write();
  std::vector<std::uint8_t> body;
  EXPECT_THROW(read_frame(pair.read_end, body, kTestFrameLimit),
               PeerDisconnected);
}

TEST(SocketUtil, MidFrameEofIsPeerDeath) {
  SocketPair pair;
  const std::uint64_t length = 64;
  pair.write_bytes(&length, sizeof length);
  const std::uint8_t partial[16] = {};
  pair.write_bytes(partial, sizeof partial);  // 16 of the declared 64
  pair.close_write();
  std::vector<std::uint8_t> body;
  EXPECT_THROW(read_frame(pair.read_end, body, kTestFrameLimit),
               PeerDisconnected);
}

TEST(SocketUtil, OversizedLengthFailsWithoutAllocating) {
  SocketPair pair;
  const std::uint64_t hostile = 1ull << 60;  // an exabyte "frame"
  pair.write_bytes(&hostile, sizeof hostile);
  pair.close_write();
  std::vector<std::uint8_t> body;
  try {
    read_frame(pair.read_end, body, kTestFrameLimit);
    FAIL() << "expected the hostile prefix to be refused";
  } catch (const PeerDisconnected&) {
    FAIL() << "corruption must be distinct from peer death";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("refusing to allocate"),
              std::string::npos)
        << error.what();
  }
  // The refusal happened before any buffer was sized to the prefix;
  // under ASan an attempted exabyte resize would abort the test.
  EXPECT_LT(body.capacity(), static_cast<std::size_t>(kTestFrameLimit) + 1);
}

TEST(SocketUtil, GarbageBodyFailsInTheDecoderNotTheTransport) {
  SocketPair pair;
  std::vector<std::uint8_t> garbage(128, 0xA5);
  garbage[0] = 1;  // FrameType::kChunk, then noise
  const std::uint64_t length = garbage.size();
  pair.write_bytes(&length, sizeof length);
  pair.write_bytes(garbage.data(), garbage.size());
  pair.close_write();

  std::vector<std::uint8_t> body;
  ASSERT_TRUE(read_frame(pair.read_end, body, kTestFrameLimit));
  BufferPool pool;
  EXPECT_THROW(serde::decode_chunk(body.data(), body.size(), pool),
               std::runtime_error);
}

TEST(TcpAcceptor, ReadsNoFurtherThanTheHelloFrame) {
  // A peer that keeps writing past its hello must not make the master
  // buffer it before authentication, and nothing it sent may be lost:
  // every byte after the hello is still in the socket for the endpoint
  // that claims the connection.
  Acceptor acceptor;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(acceptor.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);

  constexpr std::uint64_t kToken = 0x5eed;
  serde::HelloFrame hello;
  hello.token = kToken;
  serde::ByteBuffer wire;
  serde::encode_hello(hello, wire);
  const std::size_t trailer = 16 * 1024;  // 4x the handshake bound
  wire.insert(wire.end(), trailer, 0xAB);
  write_exact(fd, wire.data(), wire.size());

  serde::HelloFrame staged;
  int claimed = -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (claimed < 0 && std::chrono::steady_clock::now() < deadline) {
    acceptor.poll();
    claimed = acceptor.take(kToken, &staged);
    if (claimed < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(claimed, 0) << "the hello was never staged";
  EXPECT_EQ(staged.token, kToken);

  std::size_t received = 0;
  std::uint8_t buffer[4096];
  while (received < trailer) {
    pollfd entry{claimed, POLLIN, 0};
    if (::poll(&entry, 1, 1000) <= 0) break;
    const ssize_t n = ::recv(claimed, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) ASSERT_EQ(buffer[i], 0xAB);
    received += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, trailer);
  ::close(claimed);
  ::close(fd);
}

// ---- loopback-TCP parity ----------------------------------------------------

platform::Platform hetero_platform() {
  std::vector<platform::WorkerSpec> specs = {
      {0.010, 0.001, 30, "alpha"},
      {0.013, 0.002, 60, "beta"},
      {0.017, 0.0015, 140, "gamma"},
  };
  return platform::Platform("parity", specs);
}

struct TransportRun {
  ExecutorReport report;
  std::vector<sim::Decision> decisions;
  matrix::Matrix c;
};

TransportRun run_transport(sim::Scheduler& scheduler, TransportKind transport,
                           const platform::Platform& plat,
                           const matrix::Partition& part) {
  const auto a = random_matrix(part.n_a(), part.n_ab(), 11);
  const auto b = random_matrix(part.n_ab(), part.n_b(), 12);
  TransportRun run{.report = {}, .decisions = {},
                   .c = random_matrix(part.n_a(), part.n_b(), 13)};
  ExecutorOptions options;
  options.transport = transport;
  run.report = execute_online(scheduler, plat, part, a, b, run.c, options,
                              &run.decisions);
  return run;
}

TransportRun run_live(const std::string& algorithm, TransportKind transport,
                      const platform::Platform& plat,
                      const matrix::Partition& part) {
  auto scheduler = sched::Registry::instance().make(algorithm, plat, part);
  return run_transport(*scheduler, transport, plat, part);
}

TEST(TcpBackend, EveryRegisteredSchedulerLiveParityWithThreadTransport) {
  HMXP_SKIP_UNDER_TSAN();
  // Same order-invariant live guarantee the process suite pins: on a
  // homogeneous platform every registered scheduler completes over
  // loopback TCP with a verified product, the same decision count as
  // the thread transport (drift-reactive SP-* excepted) and
  // bit-for-bit the same C whatever the interleaving.
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const matrix::Partition part(52, 70, 100, 8);  // q=8: r=7, t=9, s=13

  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    const TransportRun threaded =
        run_live(algorithm, TransportKind::kThread, plat, part);
    const TransportRun dialed =
        run_live(algorithm, TransportKind::kTcp, plat, part);

    EXPECT_TRUE(threaded.report.verified);
    EXPECT_TRUE(dialed.report.verified);
    EXPECT_EQ(dialed.report.transport, "tcp");
    EXPECT_EQ(dialed.report.workers_failed, 0);
    EXPECT_EQ(dialed.report.workers_rejoined, 0);

    if (algorithm.rfind("SP-", 0) != 0) {
      EXPECT_EQ(dialed.decisions.size(), threaded.decisions.size());
      EXPECT_EQ(dialed.report.updates_performed,
                threaded.report.updates_performed);
      EXPECT_EQ(dialed.report.chunks_processed,
                threaded.report.chunks_processed);
    }
    EXPECT_EQ(matrix::Matrix::max_abs_diff(dialed.c, threaded.c), 0.0);
  }
}

TEST(TcpBackend, EveryRegisteredSchedulerReplaysIdenticallyOverTcp) {
  HMXP_SKIP_UNDER_TSAN();
  // The deterministic half: each scheduler's simulated schedule replays
  // over loopback TCP with the exact simulated decision sequence, the
  // bit-identical model projection, and bit-for-bit the thread
  // transport's C.
  const platform::Platform plat = hetero_platform();
  const matrix::Partition part(52, 70, 100, 8);

  for (const std::string& algorithm : sched::Registry::instance().names()) {
    SCOPED_TRACE(algorithm);
    auto probe = sched::Registry::instance().make(algorithm, plat, part);
    std::vector<sim::Decision> simulated;
    const sim::RunResult sim_result =
        sim::simulate(*probe, plat, part, false, &simulated);

    TransportRun runs[2];
    const TransportKind kinds[2] = {TransportKind::kThread,
                                    TransportKind::kTcp};
    for (int which = 0; which < 2; ++which) {
      sim::ReplayScheduler replay(algorithm, simulated);
      runs[which] = run_transport(replay, kinds[which], plat, part);
      const TransportRun& run = runs[which];
      EXPECT_TRUE(run.report.verified);
      ASSERT_EQ(run.decisions.size(), simulated.size());
      for (std::size_t i = 0; i < simulated.size(); ++i) {
        EXPECT_EQ(run.decisions[i].comm, simulated[i].comm)
            << transport_kind_name(kinds[which]) << " decision " << i;
        EXPECT_EQ(run.decisions[i].worker, simulated[i].worker)
            << transport_kind_name(kinds[which]) << " decision " << i;
      }
      EXPECT_DOUBLE_EQ(run.report.result.makespan, sim_result.makespan);
      EXPECT_EQ(run.report.result.comm_blocks, sim_result.comm_blocks);
    }
    EXPECT_EQ(matrix::Matrix::max_abs_diff(runs[1].c, runs[0].c), 0.0);
  }
}

// ---- disconnect / reconnect lifecycle ---------------------------------------

TEST(TcpBackend, DisconnectedWorkerReconnectsAndRecoversBitForBit) {
  HMXP_SKIP_UNDER_TSAN();
  // Sever worker 1's connection mid-run (no goodbye, no notice -- the
  // wire just dies). The master must recover the orphaned chunk like
  // any worker death, then RE-ADMIT the redialing worker; the run
  // completes with the reconnect recorded and C bit-for-bit equal to
  // the fault-free product.
  const matrix::Partition part(64, 64, 64, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(64, 64, 21);
  const auto b = random_matrix(64, 64, 22);
  const matrix::Matrix c_initial = random_matrix(64, 64, 23);

  matrix::Matrix c_clean = c_initial;
  {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = TransportKind::kTcp;
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c_clean, options);
    EXPECT_TRUE(report.verified);
    EXPECT_EQ(report.workers_failed, 0);
  }

  // Whether the redialing worker is re-admitted BEFORE the survivors
  // finish the run is a wall-clock race the master intentionally does
  // not wait on (a run never stalls for a worker that may never come
  // back), so on a loaded host an attempt can complete with the
  // reconnect still in flight. Correctness (bit-for-bit C, failure
  // recorded) must hold on EVERY attempt; observing the re-admission
  // itself gets a bounded retry.
  bool saw_rejoin = false;
  for (int attempt = 0; attempt < 5 && !saw_rejoin; ++attempt) {
    matrix::Matrix c_faulty = c_initial;
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = TransportKind::kTcp;
    options.tolerate_faults = true;
    // Runs inside the forked child: the throw unwinds worker_main, the
    // reconnect loop drops the socket and redials. One-shot per child
    // process (the static survives the in-process reconnect loop), so
    // the re-admitted worker computes its next chunk instead of
    // severing the fresh connection all over again.
    options.fault_hook = [](int worker, std::size_t step) {
      static bool fired = false;
      if (!fired && worker == 1 && step == 1) {
        fired = true;
        throw TcpDisconnectFault("injected link failure");
      }
    };
    const ExecutorReport report =
        execute_online(*scheduler, plat, part, a, b, c_faulty, options);
    EXPECT_TRUE(report.verified);
    EXPECT_GE(report.workers_failed, 1);
    EXPECT_EQ(matrix::Matrix::max_abs_diff(c_faulty, c_clean), 0.0);
    saw_rejoin = report.workers_rejoined >= 1;
  }
  EXPECT_TRUE(saw_rejoin)
      << "disconnected worker was never re-admitted in 5 attempts";
}

TEST(TcpBackend, WrittenOffWorkerIsNeverReadmittedToAFleetJob) {
  HMXP_SKIP_UNDER_TSAN();
  // The daemon's rule: a lease manager that hears of a death marks the
  // worker dead on the fleet, and the job finishes on the survivors
  // even though the severed worker redials. C still matches the
  // fault-free product bit for bit.
  const matrix::Partition part(64, 64, 64, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  const auto a = random_matrix(64, 64, 21);
  const auto b = random_matrix(64, 64, 22);
  const matrix::Matrix c_initial = random_matrix(64, 64, 23);

  matrix::Matrix c_clean = c_initial;
  {
    auto scheduler =
        sched::Registry::instance().make("FT-ODDOML", plat, part);
    ExecutorOptions options;
    options.transport = TransportKind::kTcp;
    execute_online(*scheduler, plat, part, a, b, c_clean, options);
  }

  ExecutorOptions options;
  options.transport = TransportKind::kTcp;
  options.tolerate_faults = true;
  options.fault_hook = [](int worker, std::size_t step) {
    static bool fired = false;  // one-shot per child, as above
    if (!fired && worker == 1 && step == 1) {
      fired = true;
      throw TcpDisconnectFault("injected link failure");
    }
  };
  Fleet fleet(plat, options, 64 * 64);
  LeaseHooks hooks;
  hooks.worker_dead = [&fleet](int worker) { fleet.mark_dead(worker); };
  std::vector<int> everyone(3);
  std::iota(everyone.begin(), everyone.end(), 0);
  FleetJobOptions job;
  job.verify = true;
  matrix::Matrix c_faulty = c_initial;
  auto scheduler = sched::Registry::instance().make("FT-ODDOML", plat, part);
  const ExecutorReport report = execute_on_fleet(
      *scheduler, fleet, part, a, b, c_faulty, everyone, hooks, job);
  EXPECT_TRUE(report.verified);
  EXPECT_GE(report.workers_failed, 1);
  EXPECT_EQ(report.workers_rejoined, 0);
  EXPECT_FALSE(fleet.alive(1));
  EXPECT_EQ(matrix::Matrix::max_abs_diff(c_faulty, c_clean), 0.0);
  fleet.shutdown();
}

}  // namespace
}  // namespace hmxp::runtime

// ---- the core facade on Backend::kTcp ---------------------------------------

namespace hmxp::core {
namespace {

TEST(TcpBackend, CoreRunsCellsOnTheTcpBackend) {
  HMXP_SKIP_UNDER_TSAN();
  const matrix::Partition part(40, 40, 56, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);

  const RunReport simulated = run_algorithm("ORROML", plat, part);
  OnlineOptions online;
  online.backend = Backend::kTcp;
  online.data_seed = 7;
  const RunReport executed =
      run_algorithm_online("ORROML", plat, part, online);

  EXPECT_EQ(executed.backend, Backend::kTcp);
  EXPECT_TRUE(executed.online_verified);
  EXPECT_GT(executed.online_wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(executed.result.makespan, simulated.result.makespan);
  EXPECT_EQ(executed.result.decisions, simulated.result.decisions);
}

TEST(TcpBackend, BackendNamesParseBothWays) {
  EXPECT_STREQ(backend_name(Backend::kTcp), "tcp");
  EXPECT_EQ(parse_backend("tcp"), Backend::kTcp);
  EXPECT_EQ(parse_backend("loopback-tcp"), Backend::kTcp);
  EXPECT_EQ(parse_backend("SOCKET"), Backend::kTcp);
  EXPECT_EQ(parse_backend("bogus"), std::nullopt);
}

}  // namespace
}  // namespace hmxp::core
