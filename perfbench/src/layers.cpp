#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "exec/engine.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/jit.hpp"
#include "exec/plan_cache.hpp"
#include "linearizer/linearizer.hpp"
#include "runtime/device.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

namespace ex = cortex::exec;
using cortex::support::monotonic_ns;

namespace {

constexpr int kReplays = 24;
constexpr int kCompileReps = 3;
constexpr std::size_t kJitReplays = 5;

double ms(double ns) { return ns * 1e-6; }

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

template <typename F>
std::vector<double> collect(const std::vector<ReplayBatch>& rs, F&& f) {
  std::vector<double> out;
  for (const ReplayBatch& r : rs) out.push_back(static_cast<double>(f(r)));
  return out;
}

/// Sets CORTEX_JIT for one scope, so run_ilir dispatches to the kernel
/// only inside the benchmark's own jit.* calls. Only used while no
/// request is in flight: no other thread reads the environment then.
class JitEnabled {
 public:
  JitEnabled() { setenv("CORTEX_JIT", "1", 1); }
  ~JitEnabled() { unsetenv("CORTEX_JIT"); }
  JitEnabled(const JitEnabled&) = delete;
  JitEnabled& operator=(const JitEnabled&) = delete;
};

/// Batch sizes to replay: kReplays batches split across the sizes the
/// served run formed, in proportion to how many batches had each size.
std::vector<std::int64_t> replay_sizes(const LoadResult& served) {
  std::map<std::int64_t, double> batches;  // size -> batches of that size
  for (const Request& r : served.requests)
    if (r.batch_size > 0)
      batches[r.batch_size] += 1.0 / static_cast<double>(r.batch_size);
  double total = 0.0;
  for (const auto& [size, n] : batches) total += n;
  std::vector<std::int64_t> sizes;
  for (const auto& [size, n] : batches)
    for (long i = 0; i < std::lround(kReplays * n / total); ++i)
      sizes.push_back(size);
  if (sizes.empty() && !batches.empty()) {
    // Every size rounded to zero: replay the most common one.
    sizes.push_back(std::max_element(batches.begin(), batches.end(),
                                      [](const auto& a, const auto& b) {
                                        return a.second < b.second;
                                      })
                        ->first);
  }
  return sizes;
}

/// GFLOP/s of kernels::gemm at C[rows,H] = A[rows,H] * B[H,H], the panel
/// GEMM shape of one wavefront of `rows` nodes.
double gemm_gflops(std::int64_t rows, Tracer& tracer) {
  const std::int64_t h = kHidden;
  cortex::Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(rows * h));
  std::vector<float> b(static_cast<std::size_t>(h * h));
  std::vector<float> c(static_cast<std::size_t>(rows * h));
  for (float& x : a) x = rng.next_float() - 0.5f;
  for (float& x : b) x = rng.next_float() - 0.5f;
  const double flops = static_cast<double>(cortex::kernels::gemm_flops(rows, h, h));
  std::vector<double> rates;
  for (int trial = 0; trial < 5; ++trial) {
    Tracer::Scope s(tracer, "kernels.gemm");
    std::int64_t iters = 0;
    const std::int64_t t0 = monotonic_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 20'000'000) {
      cortex::kernels::gemm(a.data(), b.data(), c.data(), rows, h, h);
      ++iters;
      t1 = monotonic_ns();
    }
    rates.push_back(flops * static_cast<double>(iters) /
                    static_cast<double>(t1 - t0));
  }
  return median(rates);
}

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> m = {
      {"server.queue_wait_p50_ms", "ms"}, {"server.queue_wait_p99_ms", "ms"},
      {"server.batch_size_mean", "count"}, {"server.self_ms", "ms"},
      {"server.retries", "count"},         {"pool.run_ms", "ms"},
      {"pool.overhead_ms", "ms"},          {"pool.shards_per_batch", "count"},
      {"pool.transient_retries", "count"}, {"engine.run_linearized_ms", "ms"},
      {"engine.numerics_ms", "ms"},        {"engine.gemm_calls", "count"},
      {"engine.max_panel_rows", "count"},  {"linearizer.linearize_ms", "ms"},
      {"linearizer.nodes", "count"},       {"linearizer.wavefronts", "count"},
      {"linearizer.max_wavefront", "count"},
      {"kernels.gemm_gflops", "GFLOP/s"},  {"kernels.flops_per_struct", "flop"},
      {"kernels.bytes_per_struct", "B"},   {"compile.artifacts_ms", "ms"},
      {"compile.plan_cache_misses", "count"},
      {"jit.build_ms", "ms"},              {"jit.run_ilir_ms", "ms"},
      {"jit.vs_engine", "ratio"},          {"runtime.modeled_latency_ms", "ms"},
      {"loadgen.lag_p99_ms", "ms"},        {"loadgen.sent", "count"},
      {"trace.overhead_p50_ms", "ms"},
  };
  return m;
}

Replayer::Replayer(const WorkloadSpec& w, const Inputs& inputs, Stack& stack,
                   Tracer& tracer)
    : w_(w),
      in_(inputs),
      stack_(stack),
      tracer_(tracer),
      engine_(stack.model->def, stack.model->params, cortex::ra::Schedule{},
              cortex::runtime::DeviceSpec::v100_gpu()) {
  engine_.set_num_threads(1);
  mp_opts_.live_out = {engine_.lowered()->output};
}

std::vector<const cortex::ds::Tree*> Replayer::trees(const ReplayBatch& rb,
                                                     std::int64_t first,
                                                     std::int64_t count) const {
  std::vector<const cortex::ds::Tree*> out;
  for (std::int64_t i = first; i < first + count; ++i)
    out.push_back(
        in_.trees[static_cast<std::size_t>(
                      rb.structures[static_cast<std::size_t>(i)])]
            .get());
  return out;
}

std::vector<const cortex::ds::Dag*> Replayer::dags(const ReplayBatch& rb,
                                                   std::int64_t first,
                                                   std::int64_t count) const {
  std::vector<const cortex::ds::Dag*> out;
  for (std::int64_t i = first; i < first + count; ++i)
    out.push_back(in_.dags[static_cast<std::size_t>(
                               rb.structures[static_cast<std::size_t>(i)])]
                      .get());
  return out;
}

double Replayer::build_jit(const std::string& jit_dir) {
  ex::JitCache::instance().clear_memory();
  std::filesystem::remove_all(jit_dir);
  std::filesystem::create_directories(jit_dir);
  Tracer::Scope span(tracer_, "jit.build");
  const std::int64_t t0 = monotonic_ns();
  kernel_ = ex::JitCache::instance().get_or_build(
      *engine_.optimized_program(), engine_.plan().ilir_memory.get(),
      mp_opts_);
  return static_cast<double>(monotonic_ns() - t0);
}

ReplayBatch Replayer::run_pool(std::int64_t size, std::int64_t index) {
  ReplayBatch rb;
  rb.batch_size = size;
  if (w_.loop == Loop::kOffline && size == w_.batch) {
    rb.structures =
        in_.batches[static_cast<std::size_t>(index) % in_.batches.size()];
  } else {
    for (std::int64_t i = 0; i < size; ++i)
      rb.structures.push_back(static_cast<std::int32_t>(
          (index * size + i) % in_.num_structures()));
  }
  cortex::runtime::RunResult pooled;
  {
    Tracer::Scope span(tracer_, "pool.run");
    const std::int64_t t0 = monotonic_ns();
    pooled = in_.trees.empty() ? stack_.pool->run(dags(rb, 0, size))
                                : stack_.pool->run(trees(rb, 0, size));
    rb.pool_run_ns = static_cast<double>(monotonic_ns() - t0);
  }
  const auto slowest = std::max_element(
      pooled.shards.begin(), pooled.shards.end(),
      [](const auto& a, const auto& b) { return a.run_ns < b.run_ns; });
  rb.shards = static_cast<std::int64_t>(pooled.shards.size());
  rb.shard_begin = slowest->batch_begin;
  rb.shard_size = slowest->batch_size;
  rb.slowest_shard_ns = slowest->run_ns;
  rb.gemm_calls = pooled.profiler.batched_gemm_calls;
  rb.max_panel_rows = pooled.profiler.max_panel_rows;
  rb.modeled_ms = pooled.pooled_latency_ms();
  rb.flops = static_cast<double>(pooled.profiler.device_flops);
  rb.bytes = static_cast<double>(pooled.profiler.device_bytes_read +
                                 pooled.profiler.device_bytes_written);
  return rb;
}

void Replayer::run_layers(ReplayBatch& rb, bool with_jit) {
  Tracer::Scope batch_span(tracer_, "replay.shard");
  cortex::linearizer::Linearized lin;
  {
    Tracer::Scope span(tracer_, "linearizer.linearize", batch_span.id());
    const std::int64_t t0 = monotonic_ns();
    lin = in_.trees.empty()
              ? cortex::linearizer::linearize_dags(
                    dags(rb, rb.shard_begin, rb.shard_size), engine_.lowered()->lin_spec)
              : cortex::linearizer::linearize_trees(
                    trees(rb, rb.shard_begin, rb.shard_size), engine_.lowered()->lin_spec);
    rb.linearize_ns = static_cast<double>(monotonic_ns() - t0);
  }
  rb.nodes = lin.num_nodes;
  rb.wavefronts = lin.num_batches();
  rb.max_wavefront = lin.max_batch_length();
  rb.wavefront_widths = lin.batch_length;
  {
    Tracer::Scope span(tracer_, "engine.run_linearized", batch_span.id());
    const std::int64_t t0 = monotonic_ns();
    const cortex::runtime::RunResult r = engine_.run_linearized(lin, 0.0);
    rb.run_linearized_ns = static_cast<double>(monotonic_ns() - t0);
    rb.numerics_ns = r.profiler.numerics_host_ns;
  }
  if (with_jit && kernel_) {
    ex::IlirRunOptions opts;
    opts.plan = engine_.plan().ilir_memory.get();
    opts.jit = kernel_.get();
    cortex::runtime::Profiler prof;
    opts.profiler = &prof;
    JitEnabled on;
    Tracer::Scope span(tracer_, "jit.run_ilir", batch_span.id());
    const std::int64_t t0 = monotonic_ns();
    (void)ex::run_ilir(*engine_.optimized_program(), lin,
                       stack_.model->params, opts);
    rb.jit_run_ns = static_cast<double>(monotonic_ns() - t0);
    if (prof.jit_runs != 1)
      throw std::runtime_error("run_ilir did not dispatch to the JIT kernel");
  }
}

std::map<std::string, double> measure_layers(
    const WorkloadSpec& w, const Inputs& inputs, Stack& stack,
    const LoadResult& untraced, const LoadResult& traced,
    const std::string& jit_dir, Tracer& tracer) {
  std::map<std::string, double> m;

  // -- exec/batch_server, from the traced served requests ----------------
  std::vector<double> queue, sizes_inv, latency_traced, latency_untraced;
  for (const Request& r : traced.requests) {
    latency_traced.push_back(r.latency_ns);
    if (!r.ok) continue;
    queue.push_back(r.queue_ns);
    sizes_inv.push_back(1.0 / static_cast<double>(r.batch_size));
  }
  for (const Request& r : untraced.requests)
    latency_untraced.push_back(r.latency_ns);
  const bool served = w.loop != Loop::kOffline;
  double batches = 0.0;
  for (const double x : sizes_inv) batches += x;
  m["server.queue_wait_p50_ms"] = served ? ms(percentile(queue, 50)) : 0.0;
  m["server.queue_wait_p99_ms"] = served ? ms(percentile(queue, 99)) : 0.0;
  m["server.batch_size_mean"] =
      served && batches > 0 ? static_cast<double>(sizes_inv.size()) / batches
                            : 0.0;
  m["server.retries"] = static_cast<double>(traced.health.dispatch_retries +
                                            traced.health.bisect_reruns);
  m["pool.transient_retries"] =
      static_cast<double>(traced.pool.transient_retries);

  // -- replay: pool, engine, linearizer, runtime, JIT ----------------------
  Replayer replayer(w, inputs, stack, tracer);
  const std::vector<std::int64_t> sizes = replay_sizes(untraced);
  if (sizes.empty()) throw std::runtime_error("no served batch to replay");
  m["jit.build_ms"] = ms(replayer.build_jit(jit_dir));
  // Pool runs back to back, as served; then each batch's slowest shard
  // layer by layer, the first kJitReplays also through the JIT kernel.
  ReplayBatch warm = replayer.run_pool(sizes.front(), 0);
  replayer.run_layers(warm, true);  // warm-up, not counted
  std::vector<ReplayBatch> rs;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    rs.push_back(replayer.run_pool(sizes[i], static_cast<std::int64_t>(i) + 1));
  std::vector<double> jit_ns, engine_ns;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const bool jit = i < kJitReplays;
    replayer.run_layers(rs[i], jit);
    if (!jit) continue;
    jit_ns.push_back(rs[i].jit_run_ns);
    engine_ns.push_back(rs[i].run_linearized_ns);
  }
  m["pool.run_ms"] = ms(median(collect(rs, [](auto& r) { return r.pool_run_ns; })));
  m["pool.overhead_ms"] =
      ms(median(collect(rs, [](auto& r) { return r.overhead_ns(); })));
  m["pool.shards_per_batch"] =
      median(collect(rs, [](auto& r) { return r.shards; }));
  m["engine.run_linearized_ms"] =
      ms(median(collect(rs, [](auto& r) { return r.run_linearized_ns; })));
  m["engine.numerics_ms"] =
      ms(median(collect(rs, [](auto& r) { return r.numerics_ns; })));
  m["engine.gemm_calls"] =
      median(collect(rs, [](auto& r) { return r.gemm_calls; }));
  m["engine.max_panel_rows"] =
      median(collect(rs, [](auto& r) { return r.max_panel_rows; }));
  m["linearizer.linearize_ms"] =
      ms(median(collect(rs, [](auto& r) { return r.linearize_ns; })));
  m["linearizer.nodes"] = median(collect(rs, [](auto& r) { return r.nodes; }));
  m["linearizer.wavefronts"] =
      median(collect(rs, [](auto& r) { return r.wavefronts; }));
  m["linearizer.max_wavefront"] =
      median(collect(rs, [](auto& r) { return r.max_wavefront; }));
  m["runtime.modeled_latency_ms"] =
      median(collect(rs, [](auto& r) { return r.modeled_ms; }));
  m["kernels.flops_per_struct"] = median(collect(
      rs, [](auto& r) { return r.flops / static_cast<double>(r.batch_size); }));
  m["kernels.bytes_per_struct"] = median(collect(
      rs, [](auto& r) { return r.bytes / static_cast<double>(r.batch_size); }));
  // Both on the same shards: the kJitReplays that also ran the kernel.
  m["jit.run_ilir_ms"] = ms(median(jit_ns));
  m["jit.vs_engine"] = median(jit_ns) / median(engine_ns);

  // server.self_ms: e2e minus queue wait minus the pool time of a batch of
  // the same size (requests whose batch size was replayed).
  std::map<std::int64_t, std::vector<double>> pool_by_size;
  for (const ReplayBatch& r : rs) pool_by_size[r.batch_size].push_back(r.pool_run_ns);
  std::vector<double> self;
  for (const Request& r : traced.requests) {
    const auto it = pool_by_size.find(r.batch_size);
    if (r.ok && it != pool_by_size.end())
      self.push_back(r.e2e_ns - r.queue_ns - median(it->second));
  }
  m["server.self_ms"] = served ? ms(median(self)) : 0.0;

  // -- tensor/kernels at the median wavefront width ------------------------
  std::vector<double> widths;
  for (const ReplayBatch& r : rs)
    for (const std::int32_t x : r.wavefront_widths)
      widths.push_back(static_cast<double>(x));
  m["kernels.gemm_gflops"] =
      gemm_gflops(static_cast<std::int64_t>(median(widths)), tracer);

  // -- compile: cold compile_artifacts, outside the plan cache -------------
  std::vector<double> compile_ns;
  for (int i = 0; i < kCompileReps; ++i) {
    Tracer::Scope span(tracer, "compile.artifacts");
    const std::int64_t t0 = monotonic_ns();
    (void)ex::compile_artifacts(stack.model->def, cortex::ra::Schedule{},
                                cortex::runtime::DeviceSpec::v100_gpu());
    compile_ns.push_back(static_cast<double>(monotonic_ns() - t0));
  }
  m["compile.artifacts_ms"] = ms(median(compile_ns));

  // -- load generator ------------------------------------------------------
  std::vector<double> lag;
  for (const Request& r : untraced.requests) lag.push_back(r.lag_ns);
  m["loadgen.lag_p99_ms"] = ms(percentile(lag, 99));
  m["loadgen.sent"] = static_cast<double>(untraced.requests.size());
  m["trace.overhead_p50_ms"] =
      ms(percentile(latency_traced, 50) - percentile(latency_untraced, 50));
  return m;
}

}  // namespace perfbench
