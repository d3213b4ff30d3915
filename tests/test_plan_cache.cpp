// Plan-cache differential battery: for every model-zoo entry × schedule,
// a warm-cache engine's run() outputs are bit-identical to a
// cold-compiled engine's (cache disabled), warm engines share artifacts
// by pointer, and the hit/miss/eviction counters behave under capacity 1,
// N and unbounded. The cache is process-wide, so every test resets it in
// SetUp.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine.hpp"
#include "exec/plan_cache.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

/// Every model-zoo entry at a test-sized hidden width.
std::vector<models::ModelDef> zoo() {
  std::vector<models::ModelDef> out;
  out.push_back(models::make_treefc(16));
  out.push_back(models::make_dagrnn(16));
  out.push_back(models::make_treegru(16));
  out.push_back(models::make_simple_treegru(16));
  out.push_back(models::make_treelstm(16));
  out.push_back(models::make_mvrnn(8));
  out.push_back(models::make_treernn(16));
  out.push_back(models::make_treernn_fig1(16));
  out.push_back(models::make_treernn_zeroleaf(16));
  out.push_back(models::make_treefc_embed(16));
  out.push_back(models::make_treegru_embed(16));
  out.push_back(models::make_treelstm_embed(16));
  out.push_back(models::make_seq_lstm(16));
  out.push_back(models::make_seq_gru(16));
  return out;
}

bool is_dag(const models::ModelDef& def) {
  return def.model && def.model->kind == linearizer::StructureKind::kDag;
}

bool is_seq(const models::ModelDef& def) {
  return def.name.rfind("Seq", 0) == 0;
}

/// Schedules exercised per model: the paper's default, the no-opt
/// baseline, the Cavs-comparable config, and (trees/sequences only) an
/// unrolled one — unrolling is illegal on DAGs (§3.1).
std::vector<ra::Schedule> schedules_for(const models::ModelDef& def) {
  std::vector<ra::Schedule> out;
  out.push_back(ra::Schedule{});
  out.push_back(ra::Schedule::unoptimized());
  out.push_back(ra::Schedule::cavs_comparable());
  if (!is_dag(def)) {
    ra::Schedule unrolled;
    unrolled.unroll_depth = 2;
    unrolled.persistence = false;  // Appendix D
    out.push_back(unrolled);
  }
  return out;
}

/// A small structure batch matched to the model family: grid DAGs for
/// DAG models, chains for the sequential cells, SST-like trees otherwise.
runtime::RunResult run_workload(CortexEngine& engine,
                                const models::ModelDef& def,
                                std::uint64_t seed = 7) {
  Rng rng(seed);
  if (is_dag(def)) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (int i = 0; i < 3; ++i) dags.push_back(ds::make_grid_dag(5, 5, rng));
    return engine.run(baselines::raw(dags));
  }
  if (is_seq(def)) {
    std::vector<std::unique_ptr<ds::Tree>> chains;
    for (int i = 0; i < 3; ++i) chains.push_back(ds::make_chain_tree(9, rng));
    return engine.run(baselines::raw(chains));
  }
  const auto trees = ds::make_sst_like_batch(4, rng);
  return engine.run(baselines::raw(trees));
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlanCache& cache = PlanCache::instance();
    cache.set_enabled(true);
    cache.set_capacity(0);
    cache.clear();
  }
  void TearDown() override { SetUp(); }  // leave no state for later suites
};

// -- differential battery ----------------------------------------------------

TEST_F(PlanCacheTest, WarmEnginesBitIdenticalToColdAcrossZooAndSchedules) {
  PlanCache& cache = PlanCache::instance();
  for (const models::ModelDef& def : zoo()) {
    Rng prng(11);
    const models::ModelParams params = models::init_params(def, prng);
    for (const ra::Schedule& sched : schedules_for(def)) {
      SCOPED_TRACE(def.name + " " + ra::to_string(sched));

      // Cold: compile with the cache bypassed entirely.
      cache.set_enabled(false);
      CortexEngine cold(def, params, sched, gpu());
      const runtime::RunResult cold_out = run_workload(cold, def);

      // Warm: first construction populates, second hits.
      cache.set_enabled(true);
      cache.clear();
      CortexEngine first(def, params, sched, gpu());
      CortexEngine warm(def, params, sched, gpu());
      ASSERT_EQ(cache.stats().misses, 1);
      ASSERT_EQ(cache.stats().hits, 1);
      // Artifacts are shared by pointer, and the cold engine's are not.
      EXPECT_EQ(first.artifacts().get(), warm.artifacts().get());
      EXPECT_NE(cold.artifacts().get(), warm.artifacts().get());

      // Bit-identical outputs and identical modeled accounting.
      const runtime::RunResult warm_out = run_workload(warm, def);
      EXPECT_EQ(cold_out.root_states, warm_out.root_states);
      EXPECT_EQ(cold_out.profiler.kernel_launches,
                warm_out.profiler.kernel_launches);
      EXPECT_EQ(cold_out.peak_memory_bytes, warm_out.peak_memory_bytes);
    }
  }
}

TEST_F(PlanCacheTest, WarmHitSkipsCompilationButKeepsPlanIdentity) {
  const models::ModelDef def = models::make_treelstm(16);
  Rng prng(3);
  const models::ModelParams params = models::init_params(def, prng);
  CortexEngine a(def, params, ra::Schedule{}, gpu());
  CortexEngine b(def, params, ra::Schedule{}, gpu());
  // Same Plan/LoweredModel/Program objects, not copies.
  EXPECT_EQ(&a.plan(), &b.plan());
  EXPECT_EQ(a.lowered(), b.lowered());
  EXPECT_EQ(a.optimized_program(), b.optimized_program());
}

// -- counter behavior --------------------------------------------------------

TEST_F(PlanCacheTest, UnboundedCountsMissesHitsAndNeverEvicts) {
  PlanCache& cache = PlanCache::instance();
  const auto defs = zoo();
  Rng prng(5);
  std::vector<models::ModelParams> params;
  params.reserve(defs.size());
  for (const auto& def : defs) params.push_back(models::init_params(def, prng));

  for (std::size_t i = 0; i < defs.size(); ++i)
    CortexEngine(defs[i], params[i], ra::Schedule{}, gpu());
  for (std::size_t i = 0; i < defs.size(); ++i)
    CortexEngine(defs[i], params[i], ra::Schedule{}, gpu());

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::int64_t>(defs.size()));
  EXPECT_EQ(s.hits, static_cast<std::int64_t>(defs.size()));
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(cache.size(), static_cast<std::int64_t>(defs.size()));
  EXPECT_GT(s.compile_ns_saved, 0.0);
}

TEST_F(PlanCacheTest, CapacityOneThrashesBetweenTwoKeys) {
  PlanCache& cache = PlanCache::instance();
  cache.set_capacity(1);
  const models::ModelDef a = models::make_treefc(16);
  const models::ModelDef b = models::make_treernn(16);
  Rng prng(5);
  const models::ModelParams pa = models::init_params(a, prng);
  const models::ModelParams pb = models::init_params(b, prng);

  CortexEngine(a, pa, ra::Schedule{}, gpu());  // A: miss
  CortexEngine(a, pa, ra::Schedule{}, gpu());  // A: hit
  CortexEngine(b, pb, ra::Schedule{}, gpu());  // B: miss, evicts A
  CortexEngine(a, pa, ra::Schedule{}, gpu());  // A: miss again, evicts B

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(cache.size(), 1);
}

TEST_F(PlanCacheTest, CapacityNEvictsLeastRecentlyUsed) {
  PlanCache& cache = PlanCache::instance();
  cache.set_capacity(2);
  const models::ModelDef a = models::make_treefc(16);
  const models::ModelDef b = models::make_treernn(16);
  const models::ModelDef c = models::make_treegru(16);
  Rng prng(5);
  const models::ModelParams pa = models::init_params(a, prng);
  const models::ModelParams pb = models::init_params(b, prng);
  const models::ModelParams pc = models::init_params(c, prng);

  CortexEngine(a, pa, ra::Schedule{}, gpu());  // miss; {A}
  CortexEngine(b, pb, ra::Schedule{}, gpu());  // miss; {B,A}
  CortexEngine(a, pa, ra::Schedule{}, gpu());  // hit; {A,B} — A now MRU
  CortexEngine(c, pc, ra::Schedule{}, gpu());  // miss; evicts LRU B: {C,A}
  CortexEngine(a, pa, ra::Schedule{}, gpu());  // hit — A survived as MRU
  CortexEngine(b, pb, ra::Schedule{}, gpu());  // miss — B was evicted

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 4);
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(cache.size(), 2);
}

TEST_F(PlanCacheTest, ShrinkingCapacityEvictsImmediately) {
  PlanCache& cache = PlanCache::instance();
  const auto defs = zoo();
  Rng prng(5);
  for (const auto& def : defs) {
    const models::ModelParams p = models::init_params(def, prng);
    CortexEngine(def, p, ra::Schedule{}, gpu());
  }
  ASSERT_EQ(cache.size(), static_cast<std::int64_t>(defs.size()));
  cache.set_capacity(3);
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.stats().evictions,
            static_cast<std::int64_t>(defs.size()) - 3);
}

TEST_F(PlanCacheTest, EvictedArtifactsOutliveTheEntry) {
  PlanCache& cache = PlanCache::instance();
  cache.set_capacity(1);
  const models::ModelDef a = models::make_treelstm(16);
  const models::ModelDef b = models::make_treegru(16);
  Rng prng(5);
  const models::ModelParams pa = models::init_params(a, prng);
  const models::ModelParams pb = models::init_params(b, prng);

  CortexEngine ea(a, pa, ra::Schedule{}, gpu());
  CortexEngine eb(b, pb, ra::Schedule{}, gpu());  // evicts A's entry
  ASSERT_EQ(cache.stats().evictions, 1);
  // The evicted engine still runs off its (now cache-orphaned) artifacts.
  const runtime::RunResult out = run_workload(ea, a);
  EXPECT_FALSE(out.root_states.empty());
}

// -- escape hatch & config ---------------------------------------------------

TEST_F(PlanCacheTest, DisabledCacheCompilesEveryTimeAndCountsNothing) {
  PlanCache& cache = PlanCache::instance();
  cache.set_enabled(false);
  const models::ModelDef def = models::make_treefc(16);
  Rng prng(5);
  const models::ModelParams p = models::init_params(def, prng);
  CortexEngine a(def, p, ra::Schedule{}, gpu());
  CortexEngine b(def, p, ra::Schedule{}, gpu());
  EXPECT_NE(a.artifacts().get(), b.artifacts().get());
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(cache.size(), 0);
  // Identical outputs regardless.
  EXPECT_EQ(run_workload(a, def).root_states,
            run_workload(b, def).root_states);
}

TEST_F(PlanCacheTest, IllegalSchedulesThrowEveryTimeAndCacheNothing) {
  PlanCache& cache = PlanCache::instance();
  const models::ModelDef def = models::make_dagrnn(16);
  Rng prng(5);
  const models::ModelParams p = models::init_params(def, prng);
  ra::Schedule bad;
  bad.unroll_depth = 2;  // illegal on DAGs (§3.1)
  bad.persistence = false;
  EXPECT_THROW(CortexEngine(def, p, bad, gpu()), Error);
  EXPECT_THROW(CortexEngine(def, p, bad, gpu()), Error);  // not cached
  EXPECT_EQ(cache.size(), 0);
}

}  // namespace
}  // namespace cortex::exec
