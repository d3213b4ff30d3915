// Shard-boundary fuzzing (test_schedule_fuzz style, aimed at the pool):
// randomized — seeded and logged, so any failure replays — batch sizes
// and worker counts, asserting (a) the sharding plan never
// drops, duplicates or reorders an index, and (b) end-to-end pooled
// outputs equal the single-engine reference element-for-element. Leaf
// words are distinct across the batch, so a dropped/duplicated/reordered
// node's outputs cannot alias another's.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/common.hpp"
#include "ds/generators.hpp"
#include "exec/engine_pool.hpp"
#include "models/model_zoo.hpp"

namespace cortex::exec {
namespace {

runtime::DeviceSpec gpu() { return runtime::DeviceSpec::v100_gpu(); }

// -- pure sharding-plan properties: cheap, so hundreds of draws ------------

TEST(EnginePoolFuzz, ShardPlanNeverDropsDuplicatesOrReorders) {
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 600; ++iter) {
    const std::int64_t batch = static_cast<std::int64_t>(rng.next_below(2001));
    const int workers = static_cast<int>(1 + rng.next_below(16));
    SCOPED_TRACE("iter " + std::to_string(iter) + " batch " +
                 std::to_string(batch) + " workers " +
                 std::to_string(workers));

    const auto shards = EnginePool::shard_plan(batch, workers);
    if (batch == 0) {
      EXPECT_TRUE(shards.empty());
      continue;
    }
    ASSERT_FALSE(shards.empty());
    // One shard per worker while there are items enough for all.
    EXPECT_EQ(static_cast<std::int64_t>(shards.size()),
              std::min<std::int64_t>(batch, workers));

    // Exact, in-order cover of [0, batch): shard i starts where i-1
    // ended, every shard is non-empty, the last ends at batch. That is
    // precisely "no index dropped, none duplicated, none reordered".
    std::int64_t covered = 0;
    std::int64_t smallest = batch;
    std::int64_t largest = 0;
    for (const auto& s : shards) {
      EXPECT_EQ(s.begin, covered);
      EXPECT_GT(s.end, s.begin);
      smallest = std::min(smallest, s.end - s.begin);
      largest = std::max(largest, s.end - s.begin);
      covered = s.end;
    }
    EXPECT_EQ(covered, batch);
    // Near-even: sizes within 1 of each other.
    EXPECT_LE(largest - smallest, 1);

    // Determinism: the plan is a pure function of its arguments.
    const auto replay = EnginePool::shard_plan(batch, workers);
    ASSERT_EQ(replay.size(), shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      EXPECT_EQ(replay[i].begin, shards[i].begin);
      EXPECT_EQ(replay[i].end, shards[i].end);
    }
  }
}

// -- end-to-end: random (batch, workers) vs single engine ------------------

TEST(EnginePoolFuzz, RandomizedPoolRunsMatchSingleEngineBitwise) {
  const models::ModelDef def = models::make_treefc_embed(8);
  Rng prng(0xF00D);
  const models::ModelParams params = models::init_params(def, prng);
  CortexEngine single(def, params, ra::Schedule{}, gpu());
  single.set_num_threads(1);

  Rng rng(0xBEEF);
  for (int iter = 0; iter < 40; ++iter) {
    const std::int64_t batch = static_cast<std::int64_t>(rng.next_below(25));
    const int workers = static_cast<int>(1 + rng.next_below(6));
    const std::uint64_t seed = rng.next_u64();
    SCOPED_TRACE("iter " + std::to_string(iter) + " batch " +
                 std::to_string(batch) + " workers " +
                 std::to_string(workers) + " seed " + std::to_string(seed));

    // Distinct leaf words across the whole batch: tree j's outputs can
    // never equal tree k's, so any merge mix-up changes root_states.
    Rng trng(seed);
    std::vector<std::unique_ptr<ds::Tree>> trees;
    std::int32_t next_word = 0;
    for (std::int64_t j = 0; j < batch; ++j) {
      auto t = std::make_unique<ds::Tree>();
      const std::int64_t leaves = 1 + static_cast<std::int64_t>(
                                          trng.next_below(6));
      std::vector<ds::TreeNode*> frontier;
      for (std::int64_t l = 0; l < leaves; ++l)
        frontier.push_back(t->make_leaf(next_word++));
      while (frontier.size() > 1) {
        const std::size_t i =
            static_cast<std::size_t>(trng.next_below(frontier.size() - 1));
        frontier[i] = t->make_internal(frontier[i], frontier[i + 1]);
        frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      }
      t->set_root(frontier.front());
      trees.push_back(std::move(t));
    }
    const auto raw = baselines::raw(trees);

    const std::vector<std::vector<float>> expected =
        single.run(raw).root_states;
    EXPECT_EQ(expected.size(), static_cast<std::size_t>(batch));

    EnginePool pool(def, params, ra::Schedule{}, gpu(),
                    EnginePoolOptions{workers});
    const runtime::RunResult out = pool.run(raw);
    EXPECT_EQ(out.root_states, expected);

    // The shard records must account for every submitted tree once.
    std::int64_t covered = 0;
    for (const runtime::ShardRecord& s : out.shards) {
      EXPECT_EQ(s.batch_begin, covered);
      covered += s.batch_size;
    }
    EXPECT_EQ(covered, batch);
  }
}

}  // namespace
}  // namespace cortex::exec
