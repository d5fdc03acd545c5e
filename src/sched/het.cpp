#include "sched/het.hpp"
#include "sched/registry.hpp"

#include <limits>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace hmxp::sched {

HetSelection select_het(const platform::Platform& platform,
                        const matrix::Partition& partition) {
  // The eight simulations are independent: run them concurrently, each
  // into its own slot, then pick the first strict minimum in variant
  // order -- the serial loop's answer whatever the thread count.
  const std::vector<HetVariant> variants = all_het_variants();
  HetSelection selection;
  selection.variant_makespans.resize(variants.size());
  std::vector<std::vector<sim::Decision>> logs(variants.size());
  util::ThreadPool& pool = util::shared_pool();
  util::parallel_drain(pool, variants.size(), pool.size(), [&](std::size_t v) {
    IncrementalScheduler scheduler(platform, partition, variants[v]);
    selection.variant_makespans[v] =
        sim::simulate(scheduler, platform, partition, false, &logs[v]).makespan;
  });
  selection.predicted_makespan = std::numeric_limits<model::Time>::infinity();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    if (selection.variant_makespans[v] < selection.predicted_makespan) {
      selection.predicted_makespan = selection.variant_makespans[v];
      selection.variant = variants[v];
      selection.decisions = std::move(logs[v]);
    }
  }
  HMXP_CHECK(!selection.decisions.empty(), "Het selection produced no plan");
  return selection;
}

sim::ReplayScheduler make_het(const platform::Platform& platform,
                              const matrix::Partition& partition,
                              HetSelection* selection_out) {
  HetSelection selection = select_het(platform, partition);
  std::vector<sim::Decision> decisions = selection.decisions;
  if (selection_out != nullptr) *selection_out = std::move(selection);
  return sim::ReplayScheduler("Het", std::move(decisions));
}

HMXP_REGISTER_ALGORITHM(
    het, "Het", "the paper's heterogeneous algorithm (8-variant selection)", 2,
    [](const platform::Platform& platform, const matrix::Partition& partition,
       HetSelection* selection_out) -> std::unique_ptr<sim::Scheduler> {
      return std::make_unique<sim::ReplayScheduler>(
          make_het(platform, partition, selection_out));
    });

}  // namespace hmxp::sched
