#pragma once
// Per-layer metrics of the traced run. Every number is measured from
// outside the library, around calls into a layer's public functions:
// served requests give the server's queue wait and batch sizes; batches
// replayed in the sizes the untraced run served give the pool, engine,
// linearizer, kernel, JIT and modeled-device numbers on the same inputs.

#include <map>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order (perfbench/README.md says
/// which end-to-end metric each should move, on which workload).
const std::vector<LayerMetric>& layer_metrics();

/// One replayed batch: EnginePool::run over the batch, then its slowest
/// shard linearized and run on a single-threaded CortexEngine (and, when
/// a kernel was built, through run_ilir with the JIT kernel).
struct ReplayBatch {
  std::vector<std::int32_t> structures;
  std::int64_t batch_size = 0;
  std::int64_t shard_begin = 0;  ///< the slowest shard's slice
  std::int64_t shard_size = 0;
  std::int64_t shards = 0;
  double pool_run_ns = 0.0;
  double slowest_shard_ns = 0.0;  ///< max ShardRecord::run_ns
  double linearize_ns = 0.0;
  double run_linearized_ns = 0.0;
  double numerics_ns = 0.0;  ///< Profiler::numerics_host_ns
  double jit_run_ns = -1.0;  ///< -1 when run without the JIT kernel
  std::int64_t nodes = 0;
  std::int64_t wavefronts = 0;
  std::int64_t max_wavefront = 0;
  std::vector<std::int32_t> wavefront_widths;
  std::int64_t gemm_calls = 0;      ///< whole batch, merged profiler
  std::int64_t max_panel_rows = 0;  ///< whole batch, merged profiler
  double modeled_ms = 0.0;          ///< RunResult::pooled_latency_ms
  double flops = 0.0;               ///< device-model accounting
  double bytes = 0.0;               ///< device-model accounting

  double overhead_ns() const { return pool_run_ns - slowest_shard_ns; }
};

/// Replays batches of one workload on its stack.
class Replayer {
 public:
  Replayer(const WorkloadSpec& w, const Inputs& inputs, Stack& stack,
           Tracer& tracer);

  /// Runs the `index`-th batch of `size` structures through the pool.
  ReplayBatch run_pool(std::int64_t size, std::int64_t index);
  /// Linearizes and runs the batch's slowest shard on its own, and with
  /// `with_jit` also through run_ilir with the kernel of build_jit().
  void run_layers(ReplayBatch& batch, bool with_jit);
  /// Builds the JIT kernel for the workload's optimized program into the
  /// (emptied) JIT cache directory; returns the build wall time in ns.
  double build_jit(const std::string& jit_dir);

 private:
  /// Structures [first, first + count) of a replayed batch.
  std::vector<const cortex::ds::Tree*> trees(const ReplayBatch& rb,
                                             std::int64_t first,
                                             std::int64_t count) const;
  std::vector<const cortex::ds::Dag*> dags(const ReplayBatch& rb,
                                           std::int64_t first,
                                           std::int64_t count) const;

  const WorkloadSpec& w_;
  const Inputs& in_;
  Stack& stack_;
  Tracer& tracer_;
  /// Runs shards alone with one thread, like a pool worker.
  cortex::exec::CortexEngine engine_;
  cortex::exec::MemoryPlanOptions mp_opts_;
  cortex::exec::JitKernelPtr kernel_;
};

/// Measures every per-layer metric (see layer_metrics()).
std::map<std::string, double> measure_layers(
    const WorkloadSpec& w, const Inputs& inputs, Stack& stack,
    const LoadResult& untraced, const LoadResult& traced,
    const std::string& jit_dir, Tracer& tracer);

}  // namespace perfbench
