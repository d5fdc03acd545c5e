// Chunk plans: the unit of work a master assigns to a worker.
//
// A chunk covers a rectangle of C blocks. Its life cycle on a worker is
//   1. receive the C blocks                       (one port operation),
//   2. for each step: receive an operand batch,   (one port op per step)
//      then update every covered C block,         (worker compute)
//   3. return the C blocks to the master          (one port operation).
//
// The paper's layout (sections 4-5) has one step per k in 1..t: the
// batch is mu A-blocks + mu B-blocks and updates the whole mu x mu chunk
// once. Toledo's layout (the BMM baseline) covers beta values of k per
// step with beta^2-block A and B panels. Both are instances of the same
// StepPlan sequence, which is what the engine executes.
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/partition.hpp"
#include "model/costs.hpp"
#include "model/layout.hpp"

namespace hmxp::sim {

struct StepPlan {
  model::BlockCount operand_blocks = 0;  // A+B blocks received this step
  model::BlockCount updates = 0;         // block updates it enables
  /// Inner (k) range this step covers, for runtimes that move real data.
  std::size_t k_begin = 0;
  std::size_t k_end = 0;
  bool operator==(const StepPlan&) const = default;
};

struct ChunkPlan {
  matrix::BlockRect rect;        // C blocks covered
  std::vector<StepPlan> steps;   // in execution order
  /// Operand batches that may be resident beyond the one being consumed:
  /// 1 under the paper's double-buffered layout, 0 under Toledo's.
  int prefetch_depth = 1;
  /// Layouts that stream operands sub-batch (the section 3 maximum
  /// re-use algorithm keeps a single A buffer) set their true peak here;
  /// 0 means "derive from the batch formula".
  model::BlockCount peak_override = 0;

  model::BlockCount total_updates() const;
  model::BlockCount total_operand_blocks() const;
  model::BlockCount max_operand_blocks() const;
  /// Peak simultaneous buffers: C blocks + (1 + prefetch) operand
  /// batches, or the explicit override for streaming layouts.
  model::BlockCount peak_buffers() const;
  bool operator==(const ChunkPlan&) const = default;
};

/// Chunk under the paper's layout: t steps, each with rect.rows() A
/// blocks + rect.cols() B blocks enabling rect.count() updates.
ChunkPlan make_double_buffered_chunk(const matrix::BlockRect& rect,
                                     std::size_t t);

/// Chunk under Toledo's layout: ceil(t / beta) steps; step covering kk
/// inner indices moves rect.rows()*kk + kk*rect.cols() operand blocks and
/// enables rect.count()*kk updates. No prefetch (thirds layout has no
/// spare buffers).
ChunkPlan make_toledo_chunk(const matrix::BlockRect& rect, std::size_t t,
                            model::BlockCount beta);

/// Chunk under the section 3 maximum re-use layout: t steps as in the
/// double-buffered layout, but no prefetch and a streaming peak of
/// rect.count() + rect.cols() + 1 buffers (mu^2 for C, mu for the B row,
/// one for the A block in flight).
ChunkPlan make_max_reuse_chunk(const matrix::BlockRect& rect, std::size_t t);

}  // namespace hmxp::sim
