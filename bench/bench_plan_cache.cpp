// Plan-cache bench: cold vs warm CortexEngine construction cost.
//
// Cold = the cache bypassed, so every construction verifies, lowers, runs
// the ILIR optimization passes and builds the launch plan. Warm = the
// cache pre-populated, so construction is a fingerprint + one LRU lookup.
// The headline row is the Fig. 9 GRNN configuration (sequential LSTM,
// hidden 256, Cortex's lock-based barrier schedule): the acceptance bar
// is warm >= 10x faster than cold there. Table-2 models ride along to
// show the gap grows with model complexity (TreeLSTM/MV-RNN lower more).

#include "common.hpp"
#include "exec/plan_cache.hpp"
#include "runtime/profiler.hpp"

using namespace cortex;

namespace {

struct Config {
  std::string label;
  models::ModelDef def;
  ra::Schedule schedule;
};

/// Average ns per CortexEngine construction over `iters` rounds.
double construction_ns(const Config& cfg, const models::ModelParams& params,
                       const runtime::DeviceSpec& spec, int iters) {
  const std::int64_t t0 = runtime::now_ns();
  for (int i = 0; i < iters; ++i)
    exec::CortexEngine engine(cfg.def, params, cfg.schedule, spec);
  return static_cast<double>(runtime::now_ns() - t0) / iters;
}

}  // namespace

int main() {
  std::printf("Plan cache: cold vs warm engine construction\n");
  std::printf("(cold = cache disabled, every construction compiles; "
              "warm = cache hit)\n");

  const bool smoke = bench::smoke_mode();
  const int iters = smoke ? 2 : 30;
  const std::int64_t fig9_hidden = smoke ? 64 : 256;
  const std::int64_t hidden = smoke ? 32 : 128;
  const runtime::DeviceSpec spec = runtime::DeviceSpec::v100_gpu();

  // The Fig. 9 GRNN configuration (bench_fig9_grnn's Cortex arm).
  ra::Schedule fig9_lstm;
  fig9_lstm.lock_free_barrier = false;
  ra::Schedule fig9_gru = fig9_lstm;
  fig9_gru.refactor = true;

  std::vector<Config> configs;
  configs.push_back({"SeqLSTM-fig9", models::make_seq_lstm(fig9_hidden),
                     fig9_lstm});
  configs.push_back({"SeqGRU-fig9", models::make_seq_gru(fig9_hidden),
                     fig9_gru});
  configs.push_back({"TreeFC", models::make_treefc(hidden), ra::Schedule{}});
  configs.push_back({"TreeGRU", models::make_treegru(hidden), ra::Schedule{}});
  configs.push_back({"TreeLSTM", models::make_treelstm(hidden),
                     ra::Schedule{}});
  configs.push_back({"MV-RNN", models::make_mvrnn(smoke ? 16 : 64),
                     ra::Schedule{}});
  configs.push_back({"DAG-RNN", models::make_dagrnn(hidden), ra::Schedule{}});

  exec::PlanCache& cache = exec::PlanCache::instance();
  std::printf("%-14s %16s %16s %10s\n", "model", "cold (us)", "warm (us)",
              "speedup");
  bench::print_rule(60);

  double fig9_speedup = 0.0;
  for (const Config& cfg : configs) {
    Rng rng(29);
    const models::ModelParams params = models::init_params(cfg.def, rng);

    cache.set_enabled(false);
    const double cold_ns = construction_ns(cfg, params, spec, iters);

    cache.set_enabled(true);
    cache.set_capacity(0);
    cache.clear();
    { exec::CortexEngine prime(cfg.def, params, cfg.schedule, spec); }
    const double warm_ns = construction_ns(cfg, params, spec, iters);

    const double speedup = warm_ns > 0 ? cold_ns / warm_ns : 0.0;
    if (cfg.label == "SeqLSTM-fig9") fig9_speedup = speedup;
    std::printf("%-14s %16.2f %16.2f %9.1fx\n", cfg.label.c_str(),
                cold_ns / 1e3, warm_ns / 1e3, speedup);
  }

  const exec::PlanCacheStats s = cache.stats();
  bench::print_rule(60);
  std::printf("cache stats (last config): hits=%lld misses=%lld "
              "evictions=%lld compile_ns_saved=%.0f\n",
              static_cast<long long>(s.hits),
              static_cast<long long>(s.misses),
              static_cast<long long>(s.evictions), s.compile_ns_saved);
  std::printf("fig9 GRNN (SeqLSTM) warm-vs-cold speedup: %.1fx "
              "(acceptance bar: >= 10x)\n",
              fig9_speedup);
  return 0;
}
