// Tests for the framed socket core shared by the process, shm and TCP
// transports, driven over in-process socketpairs with no child:
//
//   * the worker port's goodbye latch -- a goodbye consumed by the
//     cancel lookahead still ends the stream cleanly, while a bare EOF
//     is a dropped link (PeerDisconnected);
//   * a seeded mutation test of the one master-side frame parser: bit
//     flips, truncations and length-prefix splices of valid result,
//     credit, error and hello frames either decode or fail the endpoint
//     with a typed error, and never size a buffer past the frame bound.
//
// No fork anywhere, so the suite runs under every sanitizer, TSan too.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "runtime/framed_endpoint.hpp"
#include "runtime/serde.hpp"
#include "runtime/socket_util.hpp"
#include "util/rng.hpp"

namespace hmxp::runtime {
namespace {

/// One socketpair: `master` is the endpoint side, `worker` the port side.
struct Link {
  int master = -1;
  int worker = -1;
  Link() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    master = fds[0];
    worker = fds[1];
  }
  ~Link() {
    if (master >= 0) ::close(master);
    if (worker >= 0) ::close(worker);
  }
};

void write_all(int fd, const serde::ByteBuffer& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

constexpr std::uint64_t kPortFrameLimit = 1 << 16;

// ---- worker port: the goodbye latch -----------------------------------------

TEST(FramedWorkerPort, GoodbyeSurvivesTheCancelLookahead) {
  Link link;
  serde::ByteBuffer wire;
  serde::encode_cancel(CancelMessage{.seq = 7}, wire);
  serde::encode_control(serde::FrameType::kGoodbye, wire);
  write_all(link.master, wire);
  // What the master's begin_shutdown does: goodbye, then half-close.
  ASSERT_EQ(::shutdown(link.master, SHUT_WR), 0);

  BufferPool pool;
  FramedWorkerPort port(link.worker, &pool, kPortFrameLimit);
  const std::optional<WorkerMessage> cancel = port.try_receive();
  ASSERT_TRUE(cancel.has_value());
  ASSERT_TRUE(std::holds_alternative<CancelMessage>(*cancel));
  EXPECT_EQ(std::get<CancelMessage>(*cancel).seq, 7u);

  // The lookahead consumes the goodbye: nothing to take now...
  EXPECT_FALSE(port.try_receive().has_value());
  // ...and the blocking receive behind it ends the stream cleanly
  // instead of reading the EOF as a dropped link.
  std::optional<WorkerMessage> last;
  EXPECT_NO_THROW(last = port.receive());
  EXPECT_FALSE(last.has_value());

  // The dequeued cancel returned exactly one credit; the goodbye none.
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(read_frame(link.master, body, kPortFrameLimit));
  EXPECT_EQ(serde::frame_type(body.data(), body.size()),
            serde::FrameType::kCredit);
  ::close(link.worker);
  link.worker = -1;
  EXPECT_FALSE(read_frame(link.master, body, kPortFrameLimit));
}

TEST(FramedWorkerPort, BareEofIsAPeerDisconnect) {
  Link link;
  ASSERT_EQ(::shutdown(link.master, SHUT_WR), 0);
  BufferPool pool;
  FramedWorkerPort port(link.worker, &pool, kPortFrameLimit);
  EXPECT_THROW(port.receive(), PeerDisconnected);
}

// ---- master endpoint: seeded mutation of the frame parser -------------------

serde::HelloFrame fixed_hello() {
  serde::HelloFrame hello;
  hello.kernel_tier = 2;
  hello.kernel_variant = 1;
  hello.mc = 96;
  hello.kc = 256;
  hello.nc = 2048;
  return hello;
}

/// Valid frames the master legitimately receives, one per entry.
std::vector<serde::ByteBuffer> master_bound_corpus() {
  std::vector<serde::ByteBuffer> corpus(4);
  serde::encode_hello(fixed_hello(), corpus[0]);
  serde::encode_control(serde::FrameType::kCredit, corpus[1]);
  ResultMessage result;
  result.plan.rect = {0, 2, 1, 4};
  result.plan.steps.push_back({6, 5, 0, 1});
  result.plan.steps.push_back({6, 5, 1, 2});
  result.element_rows = 4;
  result.element_cols = 6;
  result.c = std::vector<double>(24, 0.25);
  result.updates_performed = 12;
  result.step_seconds = {1e-3, 2e-3};
  result.seq = 3;
  serde::encode_result(result, corpus[2]);
  serde::encode_error("worker 1: injected fault", corpus[3]);
  return corpus;
}

TEST(FramedEndpoint, SeededMutationsDecodeOrFailWithATypedError) {
  const std::vector<serde::ByteBuffer> corpus = master_bound_corpus();
  const std::uint64_t limit = serde::max_frame_bytes_for(64);
  util::Rng rng(20260417);
  std::size_t decoded_results = 0;
  std::size_t failed_before_eof = 0;

  for (int iteration = 0; iteration < 3000; ++iteration) {
    // A hello first (as on a real connection), then 1..5 random frames.
    serde::ByteBuffer wire = corpus[0];
    std::vector<std::size_t> boundaries = {0};
    const auto frames = rng.uniform_int(1, 5);
    for (std::int64_t f = 0; f < frames; ++f) {
      boundaries.push_back(wire.size());
      const auto& frame = corpus[static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(corpus.size()) - 1))];
      wire.insert(wire.end(), frame.begin(), frame.end());
    }

    const auto last = static_cast<std::int64_t>(wire.size()) - 1;
    switch (rng.uniform_int(0, 2)) {
      case 0: {  // bit flips anywhere, prefixes included
        const auto flips = rng.uniform_int(1, 8);
        for (std::int64_t i = 0; i < flips; ++i)
          wire[static_cast<std::size_t>(rng.uniform_int(0, last))] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 1:  // truncation mid-stream
        wire.resize(static_cast<std::size_t>(rng.uniform_int(0, last)));
        break;
      default: {  // splice a foreign length into a frame's prefix
        const std::size_t at = boundaries[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(boundaries.size()) -
                                   1))];
        const std::uint64_t lengths[] = {
            0, 1, limit, limit + 1, 1ull << 62,
            serde::decode_length(corpus[static_cast<std::size_t>(
                                            rng.uniform_int(0, 3))]
                                     .data())};
        const std::uint64_t length =
            lengths[static_cast<std::size_t>(rng.uniform_int(0, 5))];
        std::memcpy(wire.data() + at, &length, sizeof length);
        break;
      }
    }

    Link link;
    ASSERT_EQ(::fcntl(link.master, F_SETFL, O_NONBLOCK), 0);
    BufferPool pool;
    // No child (pid -1): the endpoint never signals or reaps anything.
    FramedEndpoint endpoint("fuzzed worker", link.master, /*pid=*/-1,
                            /*credits=*/2, limit, fixed_hello(), &pool);
    link.master = -1;  // owned by the endpoint now
    if (!wire.empty()) write_all(link.worker, wire);

    const auto drain = [&] {
      while (std::optional<ResultMessage> result = endpoint.try_recv()) {
        ++decoded_results;
        EXPECT_LE(result->c.size() * sizeof(double), limit);
        EXPECT_EQ(result->c.size(),
                  result->element_rows * result->element_cols);
      }
    };
    drain();
    if (endpoint.failed()) ++failed_before_eof;
    // Whatever is left is a partial frame; EOF must now fail the
    // endpoint -- and every failure must carry a typed cause.
    ASSERT_EQ(::shutdown(link.worker, SHUT_WR), 0);
    drain();
    ASSERT_TRUE(endpoint.failed());
    try {
      std::rethrow_exception(endpoint.error());
    } catch (const std::exception& error) {
      EXPECT_NE(std::string(error.what()).find("fuzzed worker: "),
                std::string::npos)
          << error.what();
    } catch (...) {
      ADD_FAILURE() << "untyped endpoint error at iteration " << iteration;
    }
  }
  // The corpus exercises both outcomes, not just one.
  EXPECT_GT(decoded_results, 0u);
  EXPECT_GT(failed_before_eof, 0u);
}

TEST(FramedEndpoint, OversizedPrefixFailsBeforeAllocating) {
  Link link;
  ASSERT_EQ(::fcntl(link.master, F_SETFL, O_NONBLOCK), 0);
  BufferPool pool;
  const std::uint64_t limit = serde::max_frame_bytes_for(64);
  FramedEndpoint endpoint("worker process 0", link.master, /*pid=*/-1,
                          /*credits=*/2, limit, fixed_hello(), &pool);
  link.master = -1;
  serde::ByteBuffer wire(serde::kLengthBytes);
  const std::uint64_t hostile = 1ull << 60;
  std::memcpy(wire.data(), &hostile, sizeof hostile);
  write_all(link.worker, wire);

  EXPECT_FALSE(endpoint.try_recv().has_value());
  ASSERT_TRUE(endpoint.failed());
  try {
    std::rethrow_exception(endpoint.error());
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("refusing to allocate"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace hmxp::runtime
