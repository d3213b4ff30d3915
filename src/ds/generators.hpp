#pragma once
// Workload generators reproducing the paper's Table 2 datasets:
//   - perfect binary trees of height 7 (TreeFC, after Looks et al. 2017),
//   - synthetic 10x10 grid DAGs (DAG-RNN, after Shuai et al. 2015),
//   - a synthetic Stanford-Sentiment-Treebank stand-in: random binarized
//     parse trees whose sentence-length distribution matches SST statistics
//     (mean ~19 tokens). README, "Modeled device vs measured host",
//     gives the substitution rationale.
//   - sequences (chains) for the sequential LSTM/GRU comparison (Fig. 9).

#include <cstdint>
#include <memory>
#include <vector>

#include "ds/dag.hpp"
#include "ds/tree.hpp"
#include "support/rng.hpp"

namespace cortex::ds {

/// Perfect binary tree of the given height (height 7 => 128 leaves,
/// 255 nodes), leaf words drawn uniformly from [0, vocab).
std::unique_ptr<Tree> make_perfect_tree(std::int64_t height, Rng& rng,
                                        std::int32_t vocab = 1000);

/// Random binarized parse tree over `num_leaves` tokens: repeatedly merges
/// a random adjacent pair, as a treebank binarization would.
std::unique_ptr<Tree> make_random_parse_tree(std::int64_t num_leaves,
                                             Rng& rng,
                                             std::int32_t vocab = 1000);

/// Synthetic SST sentence: leaf count drawn from a clipped normal matching
/// SST statistics (mean 19.1, sd 9.3, clipped to [3, 52]).
std::unique_ptr<Tree> make_sst_like_tree(Rng& rng, std::int32_t vocab = 1000);

/// A batch of SST-like trees (the evaluation's batch sizes 1 and 10).
std::vector<std::unique_ptr<Tree>> make_sst_like_batch(std::int64_t batch,
                                                       Rng& rng,
                                                       std::int32_t vocab
                                                       = 1000);

/// Left-leaning chain tree of `length` leaves: degenerates a tree model to
/// a sequence (used by the sequential LSTM/GRU benches).
std::unique_ptr<Tree> make_chain_tree(std::int64_t length, Rng& rng,
                                      std::int32_t vocab = 1000);

/// Grid DAG of rows x cols nodes (the paper's "synthetic DAGs, size
/// 10x10"): node (r,c) has predecessors (r-1,c) and (r,c-1), modeling the
/// south-east scan of DAG-RNN scene labeling.
std::unique_ptr<Dag> make_grid_dag(std::int64_t rows, std::int64_t cols,
                                   Rng& rng, std::int32_t vocab = 1000);

/// Summary statistics used in tests and bench headers.
struct TreeStats {
  std::int64_t nodes = 0;
  std::int64_t leaves = 0;
  std::int64_t height = 0;
};
TreeStats tree_stats(const Tree& t);

}  // namespace cortex::ds
