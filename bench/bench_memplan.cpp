// Static memory planner on the Fig. 9 sequential LSTM configuration
// (hidden 256, sequence length 100): peak arena bytes vs the sum of
// individual buffer bytes (what per-buffer allocation pays), slot/reuse
// counts, and the warm-run time delta between the arena path and the
// per-buffer allocator (run_ilir given an empty plan, so every buffer gets
// its own allocation).

#include <cstdio>

#include "common.hpp"
#include "exec/ilir_runner.hpp"
#include "exec/memory_plan.hpp"
#include "lowering/lower.hpp"
#include "runtime/profiler.hpp"

namespace cortex {
namespace {

double time_runs_ms(const ilir::Program& program,
                    const linearizer::Linearized& lin,
                    const models::ModelParams& params,
                    const exec::IlirRunOptions& opts, int iters) {
  (void)exec::run_ilir(program, lin, params, opts);  // warmup
  const std::int64_t t0 = runtime::now_ns();
  for (int i = 0; i < iters; ++i)
    (void)exec::run_ilir(program, lin, params, opts);
  return static_cast<double>(runtime::now_ns() - t0) * 1e-6 / iters;
}

int run() {
  const std::int64_t hidden = bench::smoke_mode() ? 32 : 256;
  const std::int64_t seq_len = bench::smoke_mode() ? 10 : 100;
  const int iters = bench::smoke_mode() ? 1 : 10;

  Rng rng(4242);
  const models::ModelDef def = models::make_seq_lstm(hidden);
  const models::ModelParams params = models::init_params(def, rng);
  const lowering::LoweredModel lm =
      lowering::lower(*def.model, ra::Schedule{});
  auto chain = ds::make_chain_tree(seq_len, rng);
  std::vector<const ds::Tree*> trees{chain.get()};
  const linearizer::Linearized lin =
      linearizer::linearize_trees(trees, lm.lin_spec);

  std::printf("Memory planner: SeqLSTM hidden=%lld seq=%lld (Fig. 9 config)\n",
              static_cast<long long>(hidden), static_cast<long long>(seq_len));
  bench::print_rule();

  const exec::MemoryPlan plan = exec::plan_memory(lm.program, {{lm.output}, {}});
  const exec::IlirRunOptions arena_opts;
  const exec::IlirRun arena_run =
      exec::run_ilir(lm.program, lin, params, arena_opts);
  const double arena_ms = time_runs_ms(lm.program, lin, params, arena_opts,
                                       iters);

  const exec::MemoryPlan no_plan;
  exec::IlirRunOptions plain_opts;
  plain_opts.plan = &no_plan;
  const exec::IlirRun plain_run =
      exec::run_ilir(lm.program, lin, params, plain_opts);
  const double plain_ms = time_runs_ms(lm.program, lin, params, plain_opts,
                                       iters);

  const double reduction =
      100.0 * (1.0 - static_cast<double>(arena_run.arena_bytes) /
                         static_cast<double>(arena_run.sum_buffer_bytes));
  std::printf("planned_buffers=%lld slots=%lld buffers_reused=%lld\n",
              static_cast<long long>(plan.entries.size()),
              static_cast<long long>(plan.slots.size()),
              static_cast<long long>(plan.buffers_reused));
  std::printf("sum_buffer_bytes=%lld arena_bytes=%lld reduction=%.1f%%\n",
              static_cast<long long>(arena_run.sum_buffer_bytes),
              static_cast<long long>(arena_run.arena_bytes), reduction);
  std::printf("warm_run_ms arena=%.3f per_buffer=%.3f delta=%.3f\n",
              arena_ms, plain_ms, plain_ms - arena_ms);
  bench::print_rule();

  // Keep the JSON envelope honest: the differential guarantee holds on
  // the bench config too.
  if (arena_run.barriers != plain_run.barriers) {
    std::fprintf(stderr, "barrier mismatch between arena and per-buffer\n");
    return 1;
  }
  if (!allclose(arena_run.at(lm.output), plain_run.at(lm.output), 0.0f, 0.0f)) {
    std::fprintf(stderr, "output mismatch between arena and per-buffer\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cortex

int main() { return cortex::run(); }
