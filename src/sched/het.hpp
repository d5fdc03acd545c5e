// Het -- the paper's heterogeneous algorithm (section 5, evaluated in
// section 6): "as we can have eight different versions of the resource
// selection, in a first step we simulate the eight versions, and then we
// pick and run the best one."
//
// Phase 1 simulates every IncrementalScheduler variant on the platform
// model and records the winner's full communication sequence; phase 2
// replays that sequence (on the simulator here; the threaded runtime
// replays the same log against real matrices). The phase-1 simulation
// is exactly the engine, so prediction and execution agree by
// construction -- the property the paper's two-phase design relies on.
#pragma once

#include "sched/incremental.hpp"
#include "sim/scheduler.hpp"

namespace hmxp::sched {

struct HetSelection {
  HetVariant variant;                   // winning variant
  model::Time predicted_makespan = 0.0;
  std::vector<sim::Decision> decisions; // full winning schedule
  /// Simulated makespan of every variant, index-aligned with
  /// all_het_variants(); useful for the ablation bench.
  std::vector<model::Time> variant_makespans;
};

/// Runs phase 1: simulates all eight variants concurrently on
/// util::shared_pool() and keeps the first strict minimum in
/// all_het_variants() order -- the same variant, makespans and decision
/// log as simulating them one after another.
HetSelection select_het(const platform::Platform& platform,
                        const matrix::Partition& partition);

/// Phase-2 scheduler replaying the winning schedule. If `selection_out`
/// is non-null the full phase-1 outcome is copied there.
sim::ReplayScheduler make_het(const platform::Platform& platform,
                              const matrix::Partition& partition,
                              HetSelection* selection_out = nullptr);

}  // namespace hmxp::sched
