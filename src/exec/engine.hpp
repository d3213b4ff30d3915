#pragma once
// CortexEngine: the end-to-end execution engine for Cortex-compiled models.
//
// Compilation happens at construction — through the process-wide
// PlanCache (plan_cache.hpp). On a cold miss the RA model is verified
// (P.1-P.3), the schedule validated, the model lowered to ILIR (kept for
// inspection, golden tests and the reference evaluator), and the
// kernel-launch plan built (plan.hpp); on a warm hit every engine
// constructed for a structurally identical (model, schedule, device)
// triple shares the same immutable artifacts and skips all of that.
// At run time the engine:
//   1. linearizes the input structures on the host CPU (§4.2, timed),
//   2. executes the model numerics bottom-up over the linearized arrays
//      with the batched wavefront executor: each dynamic batch is one
//      contiguous id range whose per-node GEMVs fuse into panel GEMMs.
//      This is the engine's only host numeric path, for every schedule
//      (the schedule's dynamic_batch primitive changes only the modeled
//      device accounting below); it is bit-identical to the per-node
//      reference executor in models/cell.hpp that the baselines and
//      tests walk;
//   3. accounts device cost on the virtual device model: kernel launches,
//      off-chip traffic, barriers (README, "Modeled device vs measured
//      host").

#include <memory>
#include <optional>
#include <vector>

#include "exec/artifacts.hpp"
#include "exec/plan.hpp"
#include "lowering/lower.hpp"
#include "models/model_zoo.hpp"
#include "runtime/device.hpp"
#include "runtime/result.hpp"
#include "support/thread_pool.hpp"
#include "tensor/workspace.hpp"

namespace cortex::exec {

class CortexEngine {
 public:
  /// Compiles `def` under `schedule` for the device `spec`. Throws
  /// cortex::Error on P.1-P.3 violations or illegal schedules. The model
  /// definition and parameters must outlive the engine.
  CortexEngine(const models::ModelDef& def, const models::ModelParams& params,
               ra::Schedule schedule, runtime::DeviceSpec spec);

  /// Runs inference over a mini-batch of trees (linearizes first).
  runtime::RunResult run(const std::vector<const ds::Tree*>& trees);
  runtime::RunResult run(const std::vector<std::unique_ptr<ds::Tree>>& trees);
  /// Runs inference over a mini-batch of DAGs.
  runtime::RunResult run(const std::vector<const ds::Dag*>& dags);

  /// Runs over an already-linearized structure; `linearization_ns` is the
  /// host time the caller spent linearizing (0 when amortized/cached).
  /// An empty linearization (num_nodes == 0) yields an empty RunResult.
  runtime::RunResult run_linearized(const linearizer::Linearized& lin,
                                    double linearization_ns);

  /// Host threads the numeric wavefront executor uses. Defaults to
  /// support::hardware_threads() on first use; n < 1 resets to that
  /// default. Outputs are bit-identical at every thread count: nodes
  /// within a wavefront batch are independent by construction and each
  /// writes only its own state row.
  void set_num_threads(int n);
  int num_threads() const {
    return pool_ ? pool_->num_threads()
                 : support::ThreadPool::default_num_threads();
  }

  const Plan& plan() const { return artifacts_->plan; }
  const ra::Schedule& schedule() const { return schedule_; }
  /// Lowered ILIR artifacts; nullptr for cell-only models (no RA def).
  const lowering::LoweredModel* lowered() const {
    return artifacts_->lowered ? &*artifacts_->lowered : nullptr;
  }
  /// The ILIR after the schedule's optimization passes: operator fusion +
  /// store forwarding + dead-store elimination (maximal fusion), dense
  /// indexing of scratch intermediates (§5.1), loop peeling (§A.5) and
  /// barrier insertion (§A.4). This is the program codegen_c renders as
  /// the target kernel; tests hold it to the reference evaluator and to
  /// the engine's own barrier accounting. Null for cell-only models.
  const ilir::Program* optimized_program() const {
    return artifacts_->optimized ? &*artifacts_->optimized : nullptr;
  }
  /// The compiled artifacts backing this engine. Engines constructed for
  /// structurally identical (model, schedule, device) triples share one
  /// object (pointer-equal) while the plan cache is enabled; the pointer
  /// stays valid even if the cache entry is evicted.
  const ArtifactsPtr& artifacts() const { return artifacts_; }
  /// All node states (N, state_width) from the most recent run.
  const Tensor& last_states() const { return states_; }

 private:
  void run_numerics(const linearizer::Linearized& lin,
                    runtime::Profiler& prof);
  /// Batched wavefront body: runs `n` consecutively numbered nodes
  /// starting at `first` (a worker's row range of one dynamic batch)
  /// through the BatchedCellExecutor, splitting the range into maximal
  /// same-leafness runs so each run maps to one cell program.
  void run_panel(const linearizer::Linearized& lin, std::int64_t first,
                 std::int64_t n, models::BatchedCellExecutor::Panels& p);
  /// Lazily builds the pool (and per-worker panels) on first run so
  /// plan-only engines never spawn threads.
  void ensure_pool();
  /// Lazily builds the batched executor on first run: its packed weight
  /// copies cost memory, so plan-only engines never pay for it. Safe
  /// without locking for the same reason states_ is: one engine is driven
  /// by one thread at a time. Deliberately NOT part of the shared
  /// CompiledArtifacts: artifacts are weight-independent by design
  /// (engines with different weights share one cached plan), while this
  /// executor bakes in weight data — so pooled workers each hold their
  /// own copy.
  models::BatchedCellExecutor& batched_exec();
  void account_batched(const linearizer::Linearized& lin,
                       runtime::Device& device, Workspace& ws);
  void account_unbatched(const linearizer::Linearized& lin,
                         runtime::Device& device, Workspace& ws);

  const models::ModelDef& def_;
  const models::ModelParams& params_;
  ra::Schedule schedule_;
  runtime::DeviceSpec spec_;
  ArtifactsPtr artifacts_;
  std::unique_ptr<models::BatchedCellExecutor> batched_exec_;
  Tensor states_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// One panel workspace per pool worker.
  std::vector<models::BatchedCellExecutor::Panels> worker_panels_;
};

}  // namespace cortex::exec
