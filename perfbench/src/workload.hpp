#pragma once
// Workloads of the served wall-time benchmark: what each one sends, the
// cold-started serving stack it runs on, the oracle its answers are
// checked against, and the measured load loop.
//
// All workloads share the weights (fixed seed), the hidden size and the
// pool size; only the model, the structures and the load differ. The
// structures and the send schedule come from the workload seed and are
// generated before anything is timed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/batch_server.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"
#include "trace.hpp"

namespace perfbench {

constexpr std::int64_t kHidden = 256;
constexpr int kPoolWorkers = 3;

enum class Loop {
  kOpen,     ///< Poisson arrivals through BatchServer at a fixed rate
  kClosed,   ///< a fixed number of requests in flight through BatchServer
  kOffline,  ///< back-to-back EnginePool::run batches, no server
};

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kOpen;
  double rate_rps = 0.0;  ///< kOpen: arrival rate
  int window = 0;         ///< kClosed: requests in flight
  int batch = 0;          ///< kOffline: structures per EnginePool::run
  /// Latency limit of slo_attainment (per request, ms).
  double limit_ms = 0.0;
  /// kOpen: a run whose generator lag p99 exceeds this is invalid.
  double max_lag_ms = 0.0;
  /// Distinct structures generated (requests cycle through them).
  int distinct = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` names no workload.
const WorkloadSpec* find_workload(const std::string& name);

struct Model {
  cortex::models::ModelDef def;
  cortex::models::ModelParams params;
};
/// The workload's model with the shared fixed-seed weights.
std::unique_ptr<Model> make_model(const WorkloadSpec& w);

struct Inputs {
  std::vector<std::unique_ptr<cortex::ds::Tree>> trees;
  std::vector<std::unique_ptr<cortex::ds::Dag>> dags;
  /// kOpen: send times, ns after the start of the measured window.
  std::vector<std::int64_t> arrivals_ns;
  /// kOffline: the structure indices of each EnginePool::run call.
  std::vector<std::vector<std::int32_t>> batches;
  /// FNV-1a over every structure, the schedule and the batches: equal
  /// digests mean identical workloads.
  std::uint64_t digest = 0;

  std::int64_t num_structures() const {
    return static_cast<std::int64_t>(trees.empty() ? dags.size()
                                                   : trees.size());
  }
};
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, double seconds);

/// Root states of every distinct structure, computed once, outside any
/// timed window, by baselines::EagerEngine — a per-node eager interpreter
/// independent of the batched executor and of the compiler.
class Oracle {
 public:
  Oracle(const Model& model, const Inputs& inputs);
  /// Checks the merged `roots` of a batch against `structures`, in
  /// order, bit for bit. Returns the first mismatching structure index, or
  /// -1 when all match.
  std::int64_t first_mismatch(const std::vector<std::int32_t>& structures,
                              const std::vector<std::vector<float>>& roots)
      const;
  /// Host seconds the oracle took to compute.
  double seconds() const { return seconds_; }

 private:
  std::vector<std::vector<std::vector<float>>> expected_;
  double seconds_ = 0.0;
};

/// One cold-started serving stack. Members are destroyed bottom-up, so
/// the server stops before the pool and the pool before its model.
struct Stack {
  std::unique_ptr<Model> model;
  std::unique_ptr<cortex::exec::EnginePool> pool;
  std::unique_ptr<cortex::exec::BatchServer> server;  ///< null for kOffline
};

struct ColdStart {
  Stack stack;
  /// From building the model and weights to the first answer kOk.
  double seconds = 0.0;
  std::int64_t plan_cache_misses = 0;
};
/// Empties the plan cache, the in-process JIT registry and `jit_dir`,
/// then builds the model, the pool (and server) and serves one request.
/// Throws when the first request does not come back kOk.
ColdStart cold_start(const WorkloadSpec& w, const Inputs& inputs,
                     const std::string& jit_dir, Tracer& tracer);

/// One request of the measured window. For kOffline a request is one
/// EnginePool::run call over `structs` structures.
struct Request {
  std::int64_t id = 0;
  std::int64_t structs = 1;
  bool ok = false;       ///< answered kOk
  bool matched = false;  ///< and equal to the oracle
  double latency_ns = 0.0;
  double queue_ns = 0.0;  ///< ServedResult::queue_ns
  double e2e_ns = 0.0;    ///< ServedResult::e2e_ns
  double lag_ns = 0.0;    ///< kOpen: how late the generator sent it
  std::int64_t batch_size = 0;
  std::int64_t done_ns = 0;  ///< when the answer was available
};

struct LoadResult {
  std::vector<Request> requests;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// First structure whose answer differed from the oracle, or -1.
  std::int64_t first_mismatch = -1;
  cortex::exec::ServerHealth health;  ///< zeros for kOffline
  cortex::exec::PoolStats pool;

  double window_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Drives the workload for `seconds` from a single generator thread (the
/// caller's) and checks every answer against the oracle. With an enabled
/// tracer, records a span per request and per call into the stack.
LoadResult run_load(const WorkloadSpec& w, const Inputs& inputs,
                    const Oracle& oracle, Stack& stack, double seconds,
                    Tracer& tracer);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
