// util::ThreadPool semantics: all submitted tasks run, wait_idle blocks
// until completion and rethrows the first task exception, and index-slot
// writes give deterministic results regardless of completion order.
// parallel_drain runs each index once, with the caller taking part, and
// rethrows only once no participant is still running.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace hmxp::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, IndexSlotsMakeResultsDeterministic) {
  std::vector<int> serial(257), threaded(257);
  const auto fill = [](std::vector<int>& out, int threads) {
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < out.size(); ++i)
      pool.submit([&out, i] { out[i] = static_cast<int>(i * i % 97); });
    pool.wait_idle();
  };
  fill(serial, 1);
  fill(threaded, 8);
  EXPECT_EQ(serial, threaded);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("cell exploded"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after the error was consumed.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::default_thread_count());
  EXPECT_GE(pool.size(), 1);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i)
      pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (wave + 1) * 10);
  }
}

TEST(ThreadPool, RejectsInvalidArguments) {
  EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

TEST(ParallelDrain, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t participants : {0u, 1u, 2u, 4u, 16u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_drain(pool, hits.size(), participants,
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (const std::atomic<int>& hit : hits)
      EXPECT_EQ(hit.load(), 1) << participants << " participants";
  }
  parallel_drain(pool, 0, 4, [](std::size_t) { FAIL() << "no items"; });
}

TEST(ParallelDrain, OneParticipantIsTheCallerAlone) {
  ThreadPool pool(2);
  std::vector<std::thread::id> ran(20);
  parallel_drain(pool, ran.size(), 1, [&ran](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ParallelDrain, RethrowsOnlyAfterEveryParticipantStopped) {
  ThreadPool pool(3);
  std::atomic<int> inside{0};
  EXPECT_THROW(parallel_drain(pool, 64, 4,
                              [&inside](std::size_t i) {
                                inside.fetch_add(1);
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds(200));
                                inside.fetch_sub(1);
                                if (i == 5) throw std::runtime_error("item 5");
                              }),
               std::runtime_error);
  EXPECT_EQ(inside.load(), 0);
  // The pool is still usable afterwards.
  std::atomic<int> counter{0};
  parallel_drain(pool, 10, 4, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace hmxp::util
