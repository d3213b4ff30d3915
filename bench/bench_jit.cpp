// JIT'd kernel vs ILIR interpreter on the Fig. 9 sequential LSTM
// configuration (hidden 256, sequence length 100): per-iteration wall
// time for both execution paths over identical storage, the one-time
// toolchain cost, and the warm-process / warm-disk cache behaviour
// (a second process pays zero compiles — see exec/jit.hpp).

#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/jit.hpp"
#include "exec/memory_plan.hpp"
#include "lowering/lower.hpp"
#include "runtime/profiler.hpp"

namespace cortex {
namespace {

template <typename F>
double time_runs_ms(F&& fn, int iters) {
  (void)fn();  // warmup
  const std::int64_t t0 = runtime::now_ns();
  for (int i = 0; i < iters; ++i) (void)fn();
  return static_cast<double>(runtime::now_ns() - t0) * 1e-6 / iters;
}

int run() {
  const std::int64_t hidden = bench::smoke_mode() ? 32 : 256;
  const std::int64_t seq_len = bench::smoke_mode() ? 8 : 100;
  const int iters = bench::smoke_mode() ? 1 : 20;

  Rng rng(4242);
  const models::ModelDef def = models::make_seq_lstm(hidden);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  auto chain = ds::make_chain_tree(seq_len, rng);
  std::vector<const ds::Tree*> trees{chain.get()};
  const linearizer::Linearized lin =
      linearizer::linearize_trees(trees, lm.lin_spec);

  std::printf("JIT vs interpreter: SeqLSTM hidden=%lld seq=%lld (Fig. 9 "
              "config)\n",
              static_cast<long long>(hidden), static_cast<long long>(seq_len));
  bench::print_rule();

  const exec::MemoryPlanOptions mp_opts{{lm.output}, {}};
  const exec::MemoryPlan plan = exec::plan_memory(lm.program, mp_opts);

  // Cold build (or a disk hit if a previous measurement run left the
  // artifact behind — the printed stats say which happened).
  exec::JitCache& cache = exec::JitCache::instance();
  const std::int64_t t0 = runtime::now_ns();
  const exec::JitKernelPtr kernel =
      cache.get_or_build(lm.program, &plan, mp_opts);
  const double build_ms =
      static_cast<double>(runtime::now_ns() - t0) * 1e-6;
  const exec::JitStats stats = cache.stats();
  std::printf("kernel build_ms=%.1f from_disk=%d (compiles=%lld "
              "disk_hits=%lld) cache_dir=%s\n",
              build_ms, kernel->from_disk() ? 1 : 0,
              static_cast<long long>(stats.compiles),
              static_cast<long long>(stats.disk_hits),
              exec::JitCache::cache_dir().c_str());

  exec::IlirRunOptions jit_opts;
  jit_opts.plan = &plan;
  jit_opts.jit = kernel.get();
  exec::IlirRunOptions interp_opts;
  interp_opts.plan = &plan;

  const exec::IlirRun jit_run = exec::run_ilir(lm.program, lin, params, jit_opts);
  const exec::IlirRun interp_run =
      exec::run_ilir(lm.program, lin, params, interp_opts);
  // The envelope only carries honest numbers: both paths must agree
  // exactly before anything is timed.
  if (jit_run.barriers != interp_run.barriers ||
      !allclose(jit_run.at(lm.output), interp_run.at(lm.output), 0.0f, 0.0f)) {
    std::fprintf(stderr, "JIT/interpreter divergence on bench config\n");
    return 1;
  }

  const double jit_ms = time_runs_ms(
      [&] { return exec::run_ilir(lm.program, lin, params, jit_opts); },
      iters);
  const double interp_ms = time_runs_ms(
      [&] { return exec::run_ilir(lm.program, lin, params, interp_opts); },
      iters);

  std::printf("warm_run_ms jit=%.3f interpreter=%.3f speedup=%.1fx\n",
              jit_ms, interp_ms, interp_ms / jit_ms);
  std::printf("breakeven_runs=%.1f (build cost / per-run saving)\n",
              build_ms / std::max(interp_ms - jit_ms, 1e-9));
  bench::print_rule();
  return 0;
}

}  // namespace
}  // namespace cortex

int main() { return cortex::run(); }
