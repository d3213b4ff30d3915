// EnginePool under fire: many client threads submitting mini-batches to
// one pool concurrently (each with its own structure instances — the
// linearizer writes per-node scratch into them), interleaved with
// misbehaving batches: a malformed-structure shard and structure-kind
// mismatches. A bad shard must fail its whole batch with a clear error
// while every concurrent good batch still returns bit-identical results,
// and the pool keeps serving afterwards. Runs in CI's ASan/UBSan job via
// the `pool` ctest label. Assertions run on the main thread after join:
// gtest failure recording is not thread-safe.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

constexpr int kClientThreads = 6;
constexpr int kIterations = 4;
constexpr std::int64_t kBatch = 9;  // > workers, not divisible by them

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

std::vector<std::unique_ptr<ds::Tree>> workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<ds::Tree>> trees;
  for (std::int64_t i = 0; i < kBatch; ++i)
    trees.push_back(ds::make_random_parse_tree(1 + rng.next_below(7), rng));
  return trees;
}

/// A structurally invalid tree: one node reachable twice makes it a DAG,
/// which Tree::validate() — and therefore linearize_trees — rejects.
std::unique_ptr<ds::Tree> malformed_tree() {
  auto t = std::make_unique<ds::Tree>();
  ds::TreeNode* leaf = t->make_leaf(7);
  t->set_root(t->make_internal(leaf, leaf));
  return t;
}

TEST(EnginePoolStress, ConcurrentClientsGetBitIdenticalResults) {
  const models::ModelDef def = models::make_treelstm_embed(16);
  Rng prng(31);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{3});

  // Per-thread expected outputs, computed on the main thread against a
  // single serial reference engine over identically-seeded structures.
  std::vector<std::vector<std::vector<float>>> expected(kClientThreads);
  {
    CortexEngine reference(def, params, ra::Schedule{}, gpu());
    reference.set_num_threads(1);
    for (int t = 0; t < kClientThreads; ++t) {
      const auto trees = workload(100 + static_cast<std::uint64_t>(t));
      expected[static_cast<std::size_t>(t)] =
          reference.run(baselines::raw(trees)).root_states;
    }
  }

  // char, not bool: vector<bool> packs bits into shared bytes, so writes
  // to distinct elements from different threads would race (UB).
  std::vector<char> ok(kClientThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      // Thread-local structures: one instance must never be linearized by
      // two engines at once.
      const auto trees = workload(100 + static_cast<std::uint64_t>(t));
      const auto raw = baselines::raw(trees);
      bool all_ok = true;
      for (int iter = 0; iter < kIterations; ++iter)
        all_ok = all_ok &&
                 pool.run(raw).root_states ==
                     expected[static_cast<std::size_t>(t)];
      ok[static_cast<std::size_t>(t)] = all_ok;
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kClientThreads; ++t)
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << "client " << t;
}

TEST(EnginePoolStress, MisbehavingShardFailsItsBatchOnlyAndPoolRecovers) {
  const models::ModelDef def = models::make_treegru_embed(16);
  Rng prng(37);
  const models::ModelParams params = models::init_params(def, prng);
  EnginePool pool(def, params, ra::Schedule{}, gpu(),
                  EnginePoolOptions{3});

  CortexEngine reference(def, params, ra::Schedule{}, gpu());
  reference.set_num_threads(1);
  const auto good_ref = workload(500);
  const std::vector<std::vector<float>> expected =
      reference.run(baselines::raw(good_ref)).root_states;

  // Poison batch: only the *last* shard contains the malformed tree, so
  // the other shards run fine — the whole batch must still fail.
  auto poison = workload(501);
  poison.push_back(malformed_tree());

  // char, not bool: see ConcurrentClientsGetBitIdenticalResults.
  std::vector<char> good_ok(kClientThreads, 0);
  std::vector<char> poison_ok(kClientThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const auto trees = workload(500);
      const auto raw = baselines::raw(trees);
      // Poison structures are thread-local too (validate() uses the same
      // scratch slot the linearizer does).
      auto my_poison = workload(600 + static_cast<std::uint64_t>(t));
      my_poison.push_back(malformed_tree());
      const auto poison_raw = baselines::raw(my_poison);
      bool g_ok = true;
      bool p_ok = true;
      for (int iter = 0; iter < kIterations; ++iter) {
        bool threw = false;
        try {
          pool.run(poison_raw);
        } catch (const Error&) {
          threw = true;
        }
        p_ok = p_ok && threw;
        // Immediately after a failed batch, a good one must be served
        // with bit-identical results.
        g_ok = g_ok && pool.run(raw).root_states == expected;
      }
      good_ok[static_cast<std::size_t>(t)] = g_ok;
      poison_ok[static_cast<std::size_t>(t)] = p_ok;
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kClientThreads; ++t) {
    EXPECT_TRUE(poison_ok[static_cast<std::size_t>(t)])
        << "poison batch did not throw for client " << t;
    EXPECT_TRUE(good_ok[static_cast<std::size_t>(t)])
        << "good batch corrupted for client " << t;
  }

  // And the pool still serves on the main thread afterwards.
  EXPECT_EQ(pool.run(baselines::raw(good_ref)).root_states, expected);
}

TEST(EnginePoolStress, StructureKindMismatchFailsWholeBatchAndRecovers) {
  // A tree-model pool handed DAGs (and vice versa) is the whole-batch
  // error case of the structure-kind class: the guard throws before any
  // shard runs, matching CortexEngine::run.
  const models::ModelDef tree_def = models::make_treelstm_embed(16);
  Rng prng(43);
  const models::ModelParams tree_params = models::init_params(tree_def, prng);
  EnginePool tree_pool(tree_def, tree_params, ra::Schedule{}, gpu(),
                       EnginePoolOptions{2});

  std::vector<std::unique_ptr<ds::Dag>> dags;
  dags.push_back(ds::make_grid_dag(3, 3, prng));
  EXPECT_THROW(tree_pool.run(baselines::raw(dags)), Error);

  const models::ModelDef dag_def = models::make_dagrnn(16);
  const models::ModelParams dag_params = models::init_params(dag_def, prng);
  EnginePool dag_pool(dag_def, dag_params, ra::Schedule{}, gpu(),
                      EnginePoolOptions{2});
  const auto trees = workload(700);
  EXPECT_THROW(dag_pool.run(baselines::raw(trees)), Error);

  // Both pools keep serving their own kind.
  CortexEngine tree_ref(tree_def, tree_params, ra::Schedule{}, gpu());
  tree_ref.set_num_threads(1);
  const auto tree_batch = workload(701);
  EXPECT_EQ(tree_pool.run(baselines::raw(tree_batch)).root_states,
            tree_ref.run(baselines::raw(tree_batch)).root_states);

  CortexEngine dag_ref(dag_def, dag_params, ra::Schedule{}, gpu());
  dag_ref.set_num_threads(1);
  Rng drng(702);
  std::vector<std::unique_ptr<ds::Dag>> dag_batch;
  for (int i = 0; i < 5; ++i)
    dag_batch.push_back(ds::make_grid_dag(4, 4, drng));
  EXPECT_EQ(dag_pool.run(baselines::raw(dag_batch)).root_states,
            dag_ref.run(baselines::raw(dag_batch)).root_states);
}

}  // namespace
}  // namespace cortex::exec
