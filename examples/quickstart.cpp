// Quickstart: multiply two matrices on a small heterogeneous star
// platform with the paper's Het algorithm, end to end.
//
//   1. describe the platform (per-worker link cost, compute cost, memory),
//   2. partition the matrices into q x q blocks,
//   3. let Het pick its schedule (simulating its eight selection
//      variants and keeping the best),
//   4. execute that schedule for real on worker threads and verify the
//      numerical result against a reference product.
//
// Run:  ./quickstart
#include <iostream>

#include "core/run.hpp"
#include "matrix/matrix.hpp"
#include "runtime/executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

int main() {
  using namespace hmxp;

  // A 3-worker star platform: a fast-link small-memory node, a balanced
  // node, and a slow-link big-memory node. Units: seconds per block
  // transferred (c), seconds per block update (w), memory in blocks (m).
  std::vector<platform::WorkerSpec> workers = {
      {0.002, 0.004, 60, "fast-link"},
      {0.004, 0.002, 140, "balanced"},
      {0.010, 0.001, 320, "big-memory"},
  };
  const platform::Platform plat("quickstart", workers);
  std::cout << plat.to_string() << '\n';

  // C (200x320) += A (200x240) * B (240x320), in 8x8 element blocks.
  const std::size_t q = 8;
  const matrix::Partition part(200, 240, 320, q);
  std::cout << "Partition: " << part.to_string() << "  ("
            << part.total_updates() << " block updates)\n\n";

  util::Rng rng(42);
  const auto a = matrix::Matrix::random(200, 240, rng);
  const auto b = matrix::Matrix::random(240, 320, rng);
  matrix::Matrix c = matrix::Matrix::random(200, 320, rng);

  // Phase 1: simulate. run_algorithm reports the predicted makespan,
  // resource selection and communication volume under the paper's
  // one-port model.
  const core::RunReport report =
      core::run_algorithm("Het", plat, part);
  std::cout << "Het chose variant '" << report.het_variant->name()
            << "'\n  predicted makespan  "
            << util::format_duration(report.result.makespan)
            << "\n  workers enrolled    " << report.result.workers_enrolled
            << " of " << plat.size() << "\n  blocks through port "
            << report.result.comm_blocks << " (CCR "
            << util::format_fixed(report.result.ccr(), 4)
            << ")\n  steady-state bound  "
            << util::format_fixed(report.bound_over_achieved, 2)
            << "x above achieved throughput\n\n";

  // Phase 2: execute the same schedule on real data with one thread per
  // worker, then verify against a reference product.
  const auto scheduler = core::make_scheduler("Het", plat, part);
  const runtime::ExecutorReport executed =
      runtime::execute_online(*scheduler, plat, part, a, b, c);
  std::cout << "Threaded execution: " << executed.chunks_processed
            << " chunks, " << executed.updates_performed
            << " block updates, max |error| = " << executed.max_abs_error
            << (executed.verified ? "  [verified]" : "") << '\n';
  return 0;
}
