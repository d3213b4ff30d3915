#pragma once
// Pointer-linked recursive data structures: the runtime inputs of the
// paper's pipeline (Fig. 2, stage 5). Trees are binary (the paper's models
// are binary child-sum variants; leaf word ids feed embedding lookups).

#include <cstdint>
#include <memory>
#include <vector>

#include "support/logging.hpp"

namespace cortex::ds {

/// A node of a pointer-linked binary tree. Leaves carry a word id; internal
/// nodes carry exactly two children (the paper's datasets are binarized).
struct TreeNode {
  TreeNode* left = nullptr;
  TreeNode* right = nullptr;
  std::int32_t word = -1;  ///< valid iff leaf

  /// Scratch slot owned by the data-structure linearizer (the inspector
  /// of the inspector-executor pattern): its traversal index during the
  /// current linearization. Keeping it inline avoids hash lookups on the
  /// µs-scale linearization path (§7.5). Not meaningful between runs.
  mutable std::int32_t lin_scratch = -1;

  bool is_leaf() const { return left == nullptr && right == nullptr; }
};

/// Owning container for a tree; nodes are stored in a stable arena so raw
/// TreeNode* pointers remain valid for the tree's lifetime.
class Tree {
 public:
  Tree() = default;

  /// Creates a leaf carrying `word`.
  TreeNode* make_leaf(std::int32_t word);
  /// Creates an internal node over two existing nodes of this tree.
  TreeNode* make_internal(TreeNode* left, TreeNode* right);

  void set_root(TreeNode* root) { root_ = root; }
  TreeNode* root() const { return root_; }

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }
  std::int64_t num_leaves() const;
  std::int64_t num_internal() const { return num_nodes() - num_leaves(); }
  /// Height of the tree: leaves have height 0.
  std::int64_t height() const;

  /// Validates the structure: a single root, every internal node has
  /// exactly two children, no node reachable twice (i.e. it is a tree, not
  /// a DAG). Throws cortex::Error otherwise.
  void validate() const;

 private:
  TreeNode* root_ = nullptr;
  std::vector<std::unique_ptr<TreeNode>> nodes_;
};

/// Calls visit(node) for every node under `root` in post-order, left
/// subtree before right, so children are visited before their parent.
/// Iterative: a structure's depth is bounded by memory, not by the call
/// stack. `root` must head a valid tree (Tree::validate()).
template <typename Visit>
void for_each_post_order(const TreeNode* root, Visit&& visit) {
  // The stack holds the path from the root to the current node; a node
  // is visited once its right subtree is done (or absent).
  std::vector<const TreeNode*> path;
  path.reserve(64);  // one allocation for trees up to 64 levels deep
  const TreeNode* cur = root;
  const TreeNode* last = nullptr;
  while (cur != nullptr || !path.empty()) {
    if (cur != nullptr) {
      path.push_back(cur);
      cur = cur->left;
      continue;
    }
    const TreeNode* top = path.back();
    if (top->right != nullptr && top->right != last) {
      cur = top->right;
    } else {
      visit(top);
      last = top;
      path.pop_back();
    }
  }
}

/// A batch of independently-processed trees (the paper's "batch size").
using TreeBatch = std::vector<const Tree*>;

}  // namespace cortex::ds
