// ExecutionView: the master-state interface schedulers decide from.
//
// The paper's schedulers are decision procedures for a master reacting
// to port and worker events; nothing in them is specific to simulation.
// This header holds everything a policy may read -- the port clock,
// per-worker progress, coverage/assignment state, the platform and
// partition -- behind an abstract interface with two implementations:
//
//   * sim::Engine -- the discrete-event simulator (engine.hpp);
//   * the threaded runtime's online master loop (runtime/executor.cpp),
//     which projects its state through a model mirror and overrides
//     readiness with *actual* worker completions.
//
// The shared value types (Decision, WorkerProgress, InstanceContext,
// EngineState) live here too so the view interface, the engine and the
// online master all speak the same vocabulary.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "matrix/partition.hpp"
#include "platform/calibration.hpp"
#include "platform/perturbation.hpp"
#include "platform/platform.hpp"
#include "sim/chunk.hpp"
#include "sim/trace.hpp"

namespace hmxp::sim {

/// What the scheduler tells the master to do next.
struct Decision {
  enum class Kind { kComm, kDone };
  Kind kind = Kind::kDone;
  CommKind comm = CommKind::kSendC;
  int worker = -1;
  ChunkPlan chunk;  // payload for kSendC only
  /// SendC only: this chunk duplicates another worker's in-flight chunk
  /// (straggler speculation). The backend skips the coverage claim -- the
  /// rect is already assigned to the primary -- and links the two workers
  /// as twins so the first completion commits and the loser is cancelled.
  bool speculative = false;

  static Decision done();
  static Decision send_chunk(int worker, ChunkPlan plan);
  static Decision send_chunk_speculative(int worker, ChunkPlan plan);
  static Decision send_operands(int worker);
  static Decision recv_result(int worker);
  /// Revoke the worker's in-flight chunk without killing the worker: it
  /// drops the chunk, keeps its territory and stays schedulable.
  static Decision cancel(int worker);
  bool operator==(const Decision&) const = default;
};

/// Dynamic state of one worker, exposed read-only to schedulers. Times
/// are in the backend's clock: model seconds under the simulator,
/// model-projected seconds under the online runtime (whose mirror keeps
/// the same bookkeeping while real threads do the work).
struct WorkerProgress {
  /// False once the worker failed (FaultSchedule event, a dead runtime
  /// thread, or an explicit fail_worker). While dead, every
  /// communication to it is infeasible and its in-flight chunk has
  /// returned to the pending set. A dead worker normally stays dead;
  /// the one exception is the TCP transport's reconnect lifecycle,
  /// where a re-admitted worker flips back alive (Engine::
  /// revive_worker) and rejoins idle -- schedulers must therefore
  /// re-check alive() rather than cache deaths forever.
  bool alive = true;
  bool has_chunk = false;
  ChunkPlan chunk;                      // valid while has_chunk
  std::size_t steps_received = 0;
  std::vector<model::Time> recv_end;    // per received step
  std::vector<model::Time> compute_end; // per received step (projected)
  model::Time chunk_arrival = 0.0;      // end of the SendC
  model::Time ready_for_chunk = 0.0;    // end of the last RecvC
  /// True while the resident chunk does NOT own its rect's coverage: it
  /// was delivered speculatively (twin >= 0 and the primary still owns
  /// it), or its rect was already committed by the twin's first
  /// completion (twin == -1: a zombie awaiting cancellation).
  bool chunk_speculative = false;
  /// The other worker holding an identical in-flight copy of this
  /// chunk, -1 if none. Exactly one of the pair has
  /// chunk_speculative == false (the coverage owner).
  int twin = -1;
  /// EWMA of the observed per-update cost in the backend's clock
  /// (ExecutionView::calibrated_w folds it into the w_i projection).
  platform::SpeedEstimate speed;
  // Lifetime statistics.
  model::BlockCount chunks_assigned = 0;
  /// Chunks the master actually collected (RecvC executed). Recovery
  /// logic compares this against its assign-time value to distinguish
  /// "completed just before death" from "lost in flight" -- a returned
  /// decision is NOT proof of completion, since the online backend
  /// rolls back a decision whose real half died under it.
  model::BlockCount chunks_returned = 0;
  model::BlockCount updates_assigned = 0;
  model::BlockCount chunks_lost = 0;    // in-flight chunks lost to failure
  model::BlockCount chunks_cancelled = 0;  // in-flight chunks revoked
  model::Time busy_compute = 0.0;

  bool all_steps_received() const {
    return has_chunk && steps_received == chunk.steps.size();
  }
  bool chunk_computed(model::Time at) const;
  /// Projected completion of the whole active chunk (+inf if steps are
  /// still missing operands).
  model::Time chunk_compute_finish() const;
};

/// The immutable problem instance a backend executes: platform,
/// partition, the (possibly empty) dynamic-slowdown schedule, the
/// (possibly empty) fault schedule, and the calibration knobs --
/// time-varying and unreliable platforms are part of the instance, not
/// of the engine. Backends over the same instance share one context by
/// shared_ptr instead of carrying copies.
class InstanceContext {
 public:
  InstanceContext(platform::Platform platform, matrix::Partition partition,
                  platform::SlowdownSchedule slowdown = {},
                  platform::FaultSchedule faults = {},
                  platform::CalibrationOptions calibration = {});

  /// Convenience: heap-allocate a shared context from copies.
  static std::shared_ptr<const InstanceContext> make(
      const platform::Platform& platform, const matrix::Partition& partition,
      const platform::SlowdownSchedule& slowdown = {},
      const platform::FaultSchedule& faults = {},
      const platform::CalibrationOptions& calibration = {});

  const platform::Platform& platform() const { return platform_; }
  const matrix::Partition& partition() const { return partition_; }
  const platform::SlowdownSchedule& slowdown() const { return slowdown_; }
  const platform::FaultSchedule& faults() const { return faults_; }
  const platform::CalibrationOptions& calibration() const {
    return calibration_;
  }

 private:
  platform::Platform platform_;
  matrix::Partition partition_;
  platform::SlowdownSchedule slowdown_;
  platform::FaultSchedule faults_;
  platform::CalibrationOptions calibration_;
};

/// The mutable simulation/model state, cheap to copy relative to the
/// context: no platform, no partition, no cost tables. Engine::snapshot()
/// hands one out, Engine::restore() swaps one back in; the online
/// backend exposes its mirror's state through ExecutionView::model_state.
struct EngineState {
  model::Time port_free = 0.0;
  std::vector<WorkerProgress> workers;
  // Coverage bitmap over r x s C blocks; set when a chunk covering the
  // block is assigned.
  std::vector<bool> assigned;
  model::BlockCount unassigned_blocks = 0;
  model::BlockCount comm_blocks = 0;
  model::BlockCount updates_done = 0;
  int chunks_outstanding = 0;
  model::BlockCount blocks_returned = 0;
  /// Updates delivered to workers whose chunk was later cancelled (or
  /// raced and lost): speculation's wasted-work account. Subtracted from
  /// updates_done when the losing copy is revoked.
  model::BlockCount wasted_updates = 0;
  // Fault events of the instance's FaultSchedule already applied (the
  // schedule is sorted by time, so a cursor suffices and snapshots
  // rewind fault application together with everything else).
  std::size_t fault_cursor = 0;
  // Trace lengths at snapshot time, so restore() can roll back events
  // recorded by hypothetical decisions.
  std::size_t trace_comms = 0;
  std::size_t trace_computes = 0;
};

/// Read-only master state, the full vocabulary of Scheduler::next().
/// Implemented by the simulator's Engine and by the threaded runtime's
/// OnlineExecutor; policies written against it run on either backend.
class ExecutionView {
 public:
  virtual ~ExecutionView() = default;

  /// Current port clock (the end of the last executed communication).
  virtual model::Time now() const = 0;
  virtual int worker_count() const = 0;
  virtual const platform::Platform& platform() const = 0;
  virtual const matrix::Partition& partition() const = 0;
  virtual const WorkerProgress& progress(int worker) const = 0;

  /// Earliest time the given communication could START given port and
  /// worker-side constraints; +inf if its precondition can never be met
  /// in the current state (e.g. SendAB with no active chunk). The online
  /// backend additionally returns now() for a RecvC whose result has
  /// actually arrived, so policies react to real completions.
  virtual model::Time earliest_start(int worker, CommKind kind) const = 0;
  /// Duration the communication would occupy the port (SendC duration
  /// requires the plan; see Engine::chunk_comm_duration).
  virtual model::Time comm_duration(int worker, CommKind kind) const = 0;

  /// Blocks of C not yet covered by any assigned chunk.
  virtual model::BlockCount unassigned_blocks() const = 0;
  /// True iff EVERY block of the rect is currently covered by an
  /// assigned chunk. Recovery logic uses this to detect that a dead
  /// worker's chunk survived through a speculative twin (the rect stayed
  /// assigned) and must not be re-issued. Backends without coverage
  /// introspection conservatively report false (never skip a re-issue).
  virtual bool rect_assigned(const matrix::BlockRect&) const { return false; }
  /// Block updates enabled by the operand batches delivered so far.
  virtual model::BlockCount updates_total() const = 0;
  /// True when every C block was assigned, computed, and returned.
  virtual bool all_work_done() const = 0;

  // ----- unreliable-platform support -----
  /// False once the worker failed; schedulers must skip dead workers
  /// (every communication to one is infeasible).
  virtual bool alive(int worker) const { return progress(worker).alive; }
  /// Marks the worker failed: its in-flight chunk returns to the
  /// pending set (coverage and progress invalidated), and the backend
  /// reclaims whatever real resources the worker held. Idempotent.
  virtual void fail_worker(int worker) = 0;
  /// Workers still alive.
  int alive_count() const {
    int count = 0;
    for (int i = 0; i < worker_count(); ++i)
      if (alive(i)) ++count;
    return count;
  }

  // ----- online calibration -----
  /// Best current estimate of the worker's per-update cost in MODEL
  /// seconds: the static w_i blended with the observed speeds the
  /// backend measured (EWMA; model clock under the simulator, wall-drift
  /// scaled under the runtime). Equals platform().worker(i).w until the
  /// worker has produced an observation. Policies that consult this
  /// instead of the static w_i adapt to mid-run speed drift.
  virtual model::Time calibrated_w(int worker) const {
    return platform().worker(worker).w;
  }
  /// Observed current-vs-initial slowdown ratio (1.0 = nominal speed or
  /// no observation yet).
  virtual double observed_drift(int worker) const {
    return progress(worker).speed.drift();
  }

  // ----- lookahead support -----
  /// The instance this view executes; lookahead schedulers build their
  /// scratch engine over it.
  virtual const std::shared_ptr<const InstanceContext>& context() const = 0;
  /// The current state expressed as simulator state, restorable into a
  /// scratch engine for hypothetical probes (Engine::snapshot(); the
  /// online backend hands out its mirror's snapshot).
  virtual EngineState model_state() const = 0;
};

}  // namespace hmxp::sim
