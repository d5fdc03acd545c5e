// Tests for the threaded master-worker runtime: numerical correctness of
// every algorithm's schedule on real data, channel semantics, slowdown
// emulation, and input validation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/algorithms.hpp"
#include "platform/generator.hpp"
#include "runtime/channel.hpp"
#include "runtime/executor.hpp"
#include "testing_support.hpp"
#include "util/rng.hpp"

namespace hmxp::runtime {
namespace {

TEST(Channel, FifoAndCapacityBlocking) {
  Channel<int> channel(2);
  channel.push(1);
  channel.push(2);

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    channel.push(3);  // blocks until a pop frees a slot
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(channel.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(channel.pop().value(), 2);
  EXPECT_EQ(channel.pop().value(), 3);
}

TEST(Channel, CloseDrainsThenSignals) {
  Channel<int> channel(4);
  channel.push(7);
  channel.close();
  EXPECT_EQ(channel.pop().value(), 7);   // drain first
  EXPECT_FALSE(channel.pop().has_value());  // then closed
  EXPECT_THROW(channel.push(8), std::logic_error);
}

TEST(Channel, RejectsZeroCapacity) {
  EXPECT_THROW(Channel<int>(0), std::invalid_argument);
}

// ---- end-to-end numerical correctness --------------------------------------

class RuntimeAllAlgorithms
    : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(RuntimeAllAlgorithms, ComputesExactProduct) {
  // Odd sizes to exercise edge blocks everywhere.
  const matrix::Partition part(52, 70, 100, 8);  // q=8: r=7, t=9, s=13
  const auto plat = platform::Platform::homogeneous(4, 0.01, 0.002, 40);
  util::Rng rng(1234);
  const auto a = matrix::Matrix::random(52, 70, rng);
  const auto b = matrix::Matrix::random(70, 100, rng);
  const auto c0 = matrix::Matrix::random(52, 100, rng);

  matrix::Matrix c = c0;
  auto scheduler = core::make_scheduler(GetParam(), plat, part);
  std::vector<sim::Decision> decisions;
  sim::simulate(*scheduler, plat, part, false, &decisions);

  sim::ReplayScheduler replay("replay", decisions);
  const ExecutorReport report = execute_online(replay, plat, part, a, b, c);
  EXPECT_TRUE(report.verified);
  EXPECT_LT(report.max_abs_error, 1e-10);
  EXPECT_EQ(report.updates_performed, 7u * 13u * 9u);
  EXPECT_GT(report.chunks_processed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Everything, RuntimeAllAlgorithms,
                         ::testing::ValuesIn(core::all_algorithms()),
                         [](const auto& info) {
                           return testing::param_safe(
                               core::algorithm_name(info.param));
                         });

TEST(Runtime, HeterogeneousPlatformSchedule) {
  // Schedules from a heterogeneous platform (different chunk sizes per
  // worker) must still produce the exact product.
  const matrix::Partition part = matrix::Partition(96, 64, 160, 8);
  std::vector<platform::WorkerSpec> specs = {
      {0.01, 0.001, 21, "tiny"},    // mu = 3
      {0.01, 0.001, 60, "small"},   // mu = 5
      {0.005, 0.002, 140, "big"},   // mu = 9
  };
  const platform::Platform plat("hetero", specs);
  util::Rng rng(99);
  const auto a = matrix::Matrix::random(96, 64, rng);
  const auto b = matrix::Matrix::random(64, 160, rng);
  matrix::Matrix c(96, 160, 0.5);
  auto scheduler = core::make_scheduler("Het", plat, part);
  const ExecutorReport report =
      execute_online(*scheduler, plat, part, a, b, c);
  EXPECT_TRUE(report.verified);
  // Work spread across at least two workers.
  int active = 0;
  for (const std::size_t updates : report.updates_per_worker)
    active += (updates > 0);
  EXPECT_GE(active, 2);
}

TEST(Runtime, SlowdownEmulationPreservesResult) {
  const matrix::Partition part(40, 40, 40, 8);
  const auto plat = platform::Platform::homogeneous(3, 0.01, 0.002, 40);
  util::Rng rng(7);
  const auto a = matrix::Matrix::random(40, 40, rng);
  const auto b = matrix::Matrix::random(40, 40, rng);
  matrix::Matrix c(40, 40, 1.0);
  ExecutorOptions options;
  options.compute_slowdown = {1, 3, 5};  // paper's deceleration trick
  auto scheduler = core::make_scheduler("ORROML", plat, part);
  const ExecutorReport report =
      execute_online(*scheduler, plat, part, a, b, c, options);
  EXPECT_TRUE(report.verified);
}

TEST(Runtime, ValidatesShapesAndOptions) {
  const matrix::Partition part(16, 16, 16, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.01, 0.002, 40);
  const matrix::Matrix good(16, 16);
  const matrix::Matrix bad(15, 16);
  matrix::Matrix c(16, 16);
  sim::ReplayScheduler empty("replay", {});
  EXPECT_THROW(execute_online(empty, plat, part, bad, good, c),
               std::invalid_argument);
  ExecutorOptions options;
  options.compute_slowdown = {1};  // wrong length (2 workers)
  EXPECT_THROW(execute_online(empty, plat, part, good, good, c, options),
               std::invalid_argument);
  options.compute_slowdown = {0, 1};  // zero factor
  EXPECT_THROW(execute_online(empty, plat, part, good, good, c, options),
               std::invalid_argument);
}

TEST(Runtime, RejectsCorruptDecisionLog) {
  const matrix::Partition part(16, 16, 16, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.01, 0.002, 40);
  const matrix::Matrix a(16, 16, 1.0);
  const matrix::Matrix b(16, 16, 1.0);
  matrix::Matrix c(16, 16, 0.0);
  // Operand decision with no preceding chunk.
  sim::ReplayScheduler bad("replay", {sim::Decision::send_operands(0)});
  ExecutorOptions options;
  options.verify = false;
  EXPECT_THROW(execute_online(bad, plat, part, a, b, c, options),
               std::logic_error);
}

TEST(Runtime, IdentityProductSanity) {
  // C = I * B exactly reproduces B (plus initial C of zero).
  const matrix::Partition part(24, 24, 24, 8);
  const auto plat = platform::Platform::homogeneous(2, 0.01, 0.002, 60);
  const auto eye = matrix::Matrix::identity(24);
  util::Rng rng(5);
  const auto b = matrix::Matrix::random(24, 24, rng);
  matrix::Matrix c(24, 24, 0.0);
  auto scheduler = core::make_scheduler("ODDOML", plat, part);
  execute_online(*scheduler, plat, part, eye, b, c);
  EXPECT_LT(matrix::Matrix::max_abs_diff(c, b), 1e-12);
}

}  // namespace
}  // namespace hmxp::runtime
