// Tests for the incremental selection variants and the Het
// meta-algorithm (section 5).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "platform/generator.hpp"
#include "sched/het.hpp"
#include "sim/scheduler.hpp"

namespace hmxp::sched {
namespace {

matrix::Partition blocks(std::size_t r, std::size_t t, std::size_t s) {
  return matrix::Partition::from_blocks(r, t, s, 80);
}

TEST(HetVariants, ExactlyEightDistinct) {
  const auto variants = all_het_variants();
  ASSERT_EQ(variants.size(), 8u);
  std::set<std::string> names;
  for (const HetVariant& variant : variants) names.insert(variant.name());
  EXPECT_EQ(names.size(), 8u);
}

TEST(HetVariants, NamesEncodeOptions) {
  EXPECT_EQ((HetVariant{true, false, false}).name(), "het-global");
  EXPECT_EQ((HetVariant{false, true, true}).name(), "het-local+la+ccost");
}

// Every variant must produce a complete, invariant-respecting schedule.
class EveryVariant : public ::testing::TestWithParam<int> {};

TEST_P(EveryVariant, CompletesWithValidTrace) {
  const HetVariant variant =
      all_het_variants()[static_cast<std::size_t>(GetParam())];
  const platform::Platform plat = platform::fully_hetero(3.0);
  const auto part = blocks(15, 6, 40);
  IncrementalScheduler scheduler(plat, part, variant);
  const sim::RunResult result = sim::simulate(scheduler, plat, part, true);
  EXPECT_EQ(result.updates, 15 * 40 * 6);
  EXPECT_TRUE(result.trace.one_port_respected());
  EXPECT_TRUE(result.trace.compute_serialized());
}

INSTANTIATE_TEST_SUITE_P(AllEight, EveryVariant, ::testing::Range(0, 8));

TEST(Het, SelectionPicksTheBestVariant) {
  const platform::Platform plat = platform::hetero_memory();
  const auto part = blocks(20, 8, 50);
  const HetSelection selection = select_het(plat, part);
  ASSERT_EQ(selection.variant_makespans.size(), 8u);
  double best = selection.variant_makespans.front();
  for (const double makespan : selection.variant_makespans)
    best = std::min(best, makespan);
  EXPECT_DOUBLE_EQ(selection.predicted_makespan, best);
}

TEST(Het, ReplayMatchesPrediction) {
  // Phase 2 replays phase 1's winner: simulated makespans must agree
  // exactly (the engine is deterministic).
  const platform::Platform plat = platform::hetero_links();
  const auto part = blocks(15, 8, 40);
  HetSelection selection;
  auto replay = make_het(plat, part, &selection);
  const sim::RunResult result = sim::simulate(replay, plat, part);
  EXPECT_DOUBLE_EQ(result.makespan, selection.predicted_makespan);
}

TEST(Het, NeverWorseThanAnyOwnVariant) {
  for (const auto& plat :
       {platform::hetero_memory(), platform::hetero_compute()}) {
    const auto part = blocks(12, 6, 30);
    const HetSelection selection = select_het(plat, part);
    for (const double makespan : selection.variant_makespans)
      EXPECT_LE(selection.predicted_makespan, makespan + 1e-9);
  }
}

TEST(Het, LookaheadVariantsDifferFromGreedy) {
  // On a sufficiently heterogeneous platform the eight variants should
  // not all collapse to one schedule; at least two distinct makespans.
  const platform::Platform plat = platform::fully_hetero(4.0);
  const auto part = blocks(100, 10, 300);
  const HetSelection selection = select_het(plat, part);
  std::set<double> distinct(selection.variant_makespans.begin(),
                            selection.variant_makespans.end());
  EXPECT_GE(distinct.size(), 2u);
}

TEST(Het, LookaheadScratchProjectionsTrackObservedSlowdown) {
  // The look-ahead's scratch engine prices hypothetical futures with
  // ExecutionView::calibrated_w, not the static w_i. On an instance
  // whose fastest worker collapses 8x mid-run (invisible to the static
  // platform description), the calibrated probes must steer work away
  // from it: the slowed worker ends the run with strictly fewer updates
  // than in the unperturbed run.
  const auto plat = platform::Platform::homogeneous(3, 0.001, 0.02, 40);
  const auto part = matrix::Partition(96, 64, 160, 8);
  const HetVariant lookahead{/*global=*/true, /*lookahead=*/true,
                             /*count_c_cost=*/false};

  sim::Engine baseline_engine(plat, part);
  IncrementalScheduler baseline_scheduler(plat, part, lookahead);
  const sim::RunResult baseline =
      sim::run(baseline_scheduler, baseline_engine);
  const model::BlockCount baseline_updates =
      baseline_engine.progress(1).updates_assigned;
  EXPECT_GT(baseline_updates, 0);

  platform::SlowdownSchedule slowdown;
  slowdown.add(/*worker=*/1, baseline.makespan * 0.25, /*factor=*/8.0);
  sim::Engine perturbed_engine(
      sim::InstanceContext::make(plat, part, slowdown),
      /*record_trace=*/false);
  IncrementalScheduler perturbed_scheduler(plat, part, lookahead);
  const sim::RunResult perturbed =
      sim::run(perturbed_scheduler, perturbed_engine);

  EXPECT_GT(perturbed.makespan, baseline.makespan);
  EXPECT_LT(perturbed_engine.progress(1).updates_assigned, baseline_updates);
}

TEST(Het, ConcurrentSelectionMatchesSerialLoop) {
  // select_het simulates the eight variants concurrently; the outcome
  // must be exactly what simulating them one after another and keeping
  // the first strict minimum gives -- same variant, same makespans, same
  // decision log -- on every call.
  const platform::Platform paper_q80(
      "paper-q80", {platform::WorkerSpec{5e-6, 3e-5, 12, "mu2"},
                    platform::WorkerSpec{5e-6, 3e-5, 21, "mu3"},
                    platform::WorkerSpec{5e-6, 3e-5, 32, "mu4"}});
  const struct {
    platform::Platform platform;
    matrix::Partition partition;
  } cases[] = {
      {paper_q80, matrix::Partition(1280, 1280, 1280, 80)},
      {platform::hetero_memory(), blocks(20, 8, 50)},
      {platform::hetero_links(), blocks(15, 8, 40)},
      {platform::fully_hetero(4.0), blocks(30, 10, 60)},
  };
  for (const auto& instance : cases) {
    std::vector<model::Time> makespans;
    std::vector<sim::Decision> best_log;
    std::size_t best = 0;
    for (const HetVariant& variant : all_het_variants()) {
      IncrementalScheduler scheduler(instance.platform, instance.partition,
                                     variant);
      std::vector<sim::Decision> log;
      makespans.push_back(sim::simulate(scheduler, instance.platform,
                                        instance.partition, false, &log)
                              .makespan);
      if (makespans.size() == 1 || makespans.back() < makespans[best]) {
        best = makespans.size() - 1;
        best_log = std::move(log);
      }
    }
    for (int call = 0; call < 3; ++call) {
      const HetSelection selection =
          select_het(instance.platform, instance.partition);
      EXPECT_EQ(selection.variant.name(), all_het_variants()[best].name())
          << instance.platform.name();
      EXPECT_EQ(selection.variant_makespans, makespans)
          << instance.platform.name();
      EXPECT_EQ(selection.predicted_makespan, makespans[best]);
      EXPECT_TRUE(selection.decisions == best_log)
          << instance.platform.name() << " call " << call;
    }
  }
}

TEST(Het, RespectsPerWorkerMemoryInChunks) {
  const platform::Platform plat = platform::hetero_memory();
  const auto part = blocks(20, 8, 50);
  HetSelection selection;
  make_het(plat, part, &selection);
  for (const sim::Decision& decision : selection.decisions) {
    if (decision.comm == sim::CommKind::kSendC) {
      const auto& worker =
          plat.worker(decision.worker);
      EXPECT_LE(decision.chunk.peak_buffers(), worker.m);
      EXPECT_LE(decision.chunk.rect.cols(),
                static_cast<std::size_t>(worker.mu()));
    }
  }
}

}  // namespace
}  // namespace hmxp::sched
