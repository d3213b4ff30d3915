// Parallel wavefront executor: the serial path is the regression oracle —
// root (and all node) states must be bit-identical at every thread count
// across the model zoo, trees and DAGs alike. Plus the engine-layer
// bugfix coverage that rode along: empty mini-batches, single-node
// batches, and the structure-kind guards on both run() overloads.

#include <gtest/gtest.h>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

linearizer::Linearized lin_for(const models::ModelDef& def,
                               std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  linearizer::LinearizerSpec spec;
  if (def.model) spec.kind = def.model->kind;
  if (spec.kind == linearizer::StructureKind::kDag) {
    std::vector<std::unique_ptr<ds::Dag>> dags;
    for (std::int64_t b = 0; b < batch; ++b)
      dags.push_back(ds::make_grid_dag(6, 6, rng));
    return linearizer::linearize_dags(baselines::raw(dags), spec);
  }
  auto trees = ds::make_sst_like_batch(batch, rng);
  return linearizer::linearize_trees(baselines::raw(trees), spec);
}

// -- serial vs parallel bit-identity across the zoo -------------------------------

class ParallelZoo : public ::testing::TestWithParam<int> {
 protected:
  models::ModelDef def() const {
    switch (GetParam()) {
      case 0: return models::make_treernn_fig1(16);
      case 1: return models::make_treefc_embed(16);
      case 2: return models::make_treegru_embed(16);
      case 3: return models::make_treelstm_embed(16);
      case 4: return models::make_mvrnn(8);
      case 5: return models::make_dagrnn(16);
      default: return models::make_treernn(16);
    }
  }
};

TEST_P(ParallelZoo, ParallelMatchesSerialBitwise) {
  const models::ModelDef def = this->def();
  Rng rng(71);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 6, 71);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  const runtime::RunResult serial = engine.run_linearized(lin, 0.0);
  const std::vector<float> serial_states(
      engine.last_states().data(),
      engine.last_states().data() + lin.num_nodes * def.cell.state_width);

  for (const int threads : {2, 4, 7}) {
    engine.set_num_threads(threads);
    const runtime::RunResult parallel = engine.run_linearized(lin, 0.0);
    EXPECT_EQ(parallel.root_states, serial.root_states)
        << def.name << " @ " << threads << " threads";
    // Stronger than the root check: every node state is bit-identical.
    const std::vector<float> parallel_states(
        engine.last_states().data(),
        engine.last_states().data() + lin.num_nodes * def.cell.state_width);
    EXPECT_EQ(parallel_states, serial_states)
        << def.name << " @ " << threads << " threads";
    // Device accounting is independent of host thread count.
    EXPECT_EQ(parallel.profiler.kernel_launches,
              serial.profiler.kernel_launches);
    EXPECT_EQ(parallel.profiler.device_flops, serial.profiler.device_flops);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, ParallelZoo, ::testing::Range(0, 7));

// -- empty and degenerate mini-batches --------------------------------------------

TEST(EngineEmptyBatch, EmptyTreeRunReturnsWellFormedEmptyResult) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(1);
  const models::ModelParams params = models::init_params(def, rng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());

  const runtime::RunResult r = engine.run(std::vector<const ds::Tree*>{});
  EXPECT_TRUE(r.root_states.empty());
  EXPECT_EQ(r.profiler.kernel_launches, 0);
  EXPECT_EQ(r.peak_memory_bytes, 0);
  EXPECT_DOUBLE_EQ(r.profiler.total_latency_ns(), 0.0);
}

TEST(EngineEmptyBatch, EmptyDagRunReturnsWellFormedEmptyResult) {
  const models::ModelDef def = models::make_dagrnn(16);
  Rng rng(2);
  const models::ModelParams params = models::init_params(def, rng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());

  const runtime::RunResult r = engine.run(std::vector<const ds::Dag*>{});
  EXPECT_TRUE(r.root_states.empty());
  EXPECT_EQ(r.profiler.kernel_launches, 0);
}

TEST(EngineEmptyBatch, EmptyLinearizationIsNotUB) {
  // The account_batched UB: a default Linearized has no batches, so
  // batch_length.front() dereferenced an empty vector. Must now return a
  // well-formed empty result (and still report the linearization time).
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(3);
  const models::ModelParams params = models::init_params(def, rng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());

  const runtime::RunResult r =
      engine.run_linearized(linearizer::Linearized{}, 123.0);
  EXPECT_TRUE(r.root_states.empty());
  EXPECT_DOUBLE_EQ(r.profiler.linearization_ns, 123.0);
  EXPECT_EQ(r.profiler.kernel_launches, 0);

  // Nodes the batches do not cover are an error, not silent zero states:
  // the wavefront loop is the engine's only walk over the nodes.
  auto trees = ds::make_sst_like_batch(2, rng);
  linearizer::LinearizerSpec spec;
  linearizer::Linearized lin =
      linearizer::linearize_trees(baselines::raw(trees), spec);
  lin.batch_begin.clear();
  lin.batch_length.clear();
  EXPECT_THROW(engine.run_linearized(lin, 0.0), Error);
  lin = linearizer::linearize_trees(baselines::raw(trees), spec);
  lin.batch_length.back() -= 1;
  EXPECT_THROW(engine.run_linearized(lin, 0.0), Error);
}

TEST(EngineEmptyBatch, SingleNodeBatchRunsAtAnyThreadCount) {
  // One tree that is a single leaf: one wavefront batch of one node.
  const models::ModelDef def = models::make_treernn_fig1(8);
  Rng rng(4);
  const models::ModelParams params = models::init_params(def, rng);
  auto tree = ds::make_random_parse_tree(1, rng);
  const std::vector<const ds::Tree*> raw = {tree.get()};

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(1);
  const runtime::RunResult serial = engine.run(raw);
  ASSERT_EQ(serial.root_states.size(), 1u);
  engine.set_num_threads(4);
  const runtime::RunResult parallel = engine.run(raw);
  EXPECT_EQ(parallel.root_states, serial.root_states);
}

// -- structure-kind guards ---------------------------------------------------------

TEST(EngineKindGuards, TreeModelRejectsDagInputs) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(5);
  const models::ModelParams params = models::init_params(def, rng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());

  std::vector<std::unique_ptr<ds::Dag>> dags;
  dags.push_back(ds::make_grid_dag(3, 3, rng));
  EXPECT_THROW(engine.run(baselines::raw(dags)), Error);
}

TEST(EngineKindGuards, DagModelRejectsTreeInputs) {
  const models::ModelDef def = models::make_dagrnn(16);
  Rng rng(6);
  const models::ModelParams params = models::init_params(def, rng);
  CortexEngine engine(def, params, ra::Schedule{}, gpu());

  auto trees = ds::make_sst_like_batch(2, rng);
  EXPECT_THROW(engine.run(baselines::raw(trees)), Error);
}

// -- profiler host-parallelism counters --------------------------------------------

TEST(EngineParallelProfile, RecordsThreadsAndParallelBatches) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng rng(7);
  const models::ModelParams params = models::init_params(def, rng);
  const linearizer::Linearized lin = lin_for(def, 6, 77);

  CortexEngine engine(def, params, ra::Schedule{}, gpu());
  engine.set_num_threads(4);
  EXPECT_EQ(engine.num_threads(), 4);
  const runtime::RunResult r = engine.run_linearized(lin, 0.0);
  EXPECT_EQ(r.profiler.host_threads, 4);
  // An SST batch of 6 trees has many multi-node wavefronts.
  EXPECT_GE(r.profiler.parallel_batches, 1);
  EXPECT_GT(r.profiler.numerics_host_ns, 0.0);
  // The diagnostic numerics timer must not perturb modeled latency.
  runtime::Profiler zeroed = r.profiler;
  zeroed.numerics_host_ns = 0.0;
  EXPECT_DOUBLE_EQ(zeroed.total_latency_ns(),
                   r.profiler.total_latency_ns());

  engine.set_num_threads(1);
  const runtime::RunResult serial = engine.run_linearized(lin, 0.0);
  EXPECT_EQ(serial.profiler.host_threads, 1);
  EXPECT_EQ(serial.profiler.parallel_batches, 0);
}

}  // namespace
}  // namespace cortex::exec
