#include "ml/flat_forest.h"

#include <algorithm>
#include <utility>

namespace strudel::ml {

void FlatForest::Clear() {
  num_classes_ = 0;
  num_trees_ = 0;
  num_features_ = 0;
  roots_.clear();
  nodes_.clear();
  leaf_proba_.clear();
}

int32_t FlatForest::AddLeaf(std::span<const double> distribution) {
  const size_t k = static_cast<size_t>(num_classes_);
  const int32_t id = static_cast<int32_t>(leaf_proba_.size() / k);
  leaf_proba_.insert(leaf_proba_.end(), distribution.begin(),
                     distribution.end());
  // A leaf distribution shorter than num_classes (unfitted tree) pads with
  // zeros so every leaf row has exactly num_classes entries.
  leaf_proba_.resize(static_cast<size_t>(id + 1) * k, 0.0);
  return id;
}

void FlatForest::Build(const std::vector<DecisionTree>& trees,
                       int num_classes) {
  Clear();
  num_classes_ = num_classes;
  num_trees_ = static_cast<int>(trees.size());
  num_features_ = trees.empty() ? 0 : trees.front().num_features();
  if (num_classes_ <= 0) return;

  // (source node, flat internal index) pairs still awaiting child wiring.
  std::vector<std::pair<int, int32_t>> queue;
  for (const DecisionTree& tree : trees) {
    const std::vector<DecisionTree::Node>& nodes = tree.nodes();

    // Appends node `src` to the flat arrays, enqueueing internal nodes for
    // child wiring, and returns its reference (>= 0 internal, ~leaf).
    // Internal indices are assigned at enqueue time, so BFS order makes
    // every child index strictly greater than its parent's.
    auto add_node = [&](int src) -> int32_t {
      const DecisionTree::Node& node = nodes[static_cast<size_t>(src)];
      if (node.left < 0) return ~AddLeaf(node.distribution);
      const int32_t id = static_cast<int32_t>(nodes_.size());
      nodes_.push_back(Node{node.threshold, node.feature, 0, 0});
      queue.emplace_back(src, id);
      return id;
    };

    if (nodes.empty()) {
      // Defensive: an unfitted tree predicts all-zeros; give it a zero
      // leaf so the walk adds nothing for it, as DecisionTree does.
      roots_.push_back(~AddLeaf({}));
      continue;
    }
    queue.clear();
    roots_.push_back(add_node(0));
    for (size_t head = 0; head < queue.size(); ++head) {
      const auto [src, id] = queue[head];
      // add_node may reallocate nodes_, so wire children via the index.
      nodes_[static_cast<size_t>(id)].left =
          add_node(nodes[static_cast<size_t>(src)].left);
      nodes_[static_cast<size_t>(id)].right =
          add_node(nodes[static_cast<size_t>(src)].right);
    }
  }
}

void FlatForest::PredictBlock(const Matrix& features, size_t row_begin,
                              size_t row_end, double* out) const {
  const size_t k = static_cast<size_t>(num_classes_);
  const size_t n = row_end - row_begin;
  std::fill(out, out + n * k, 0.0);
  if (num_trees_ == 0) return;
  const Node* nodes = nodes_.data();
  const double* leaf_proba = leaf_proba_.data();
  const int32_t* roots = roots_.data();
  const size_t num_roots = roots_.size();

  // Rows walk the trees in pairs, each pair descending one tree in
  // lockstep. A realistically sized forest outgrows L2, so a descent is a
  // chain of dependent cache misses; two independent chains per loop body
  // (on top of what out-of-order execution already overlaps across a
  // row's trees) roughly doubles the misses in flight. A lane that
  // reaches its leaf early idles branchlessly on node 0 — a hot line, so
  // the wasted loads are free — until its partner finishes. Per row the
  // accumulation is still one leaf add per tree in tree order, the same
  // operation sequence as PredictProba and as summing the trees'
  // DecisionTree::PredictProba, so results stay bit-identical. The layout
  // does the rest of the work: one 24-byte node per step against the
  // trees' 64-byte nodes, and a dense leaf-probability matrix against a
  // heap-scattered vector per leaf.
  size_t r = 0;
  for (; r + 1 < n; r += 2) {
    const double* row0 = features.row(row_begin + r).data();
    const double* row1 = features.row(row_begin + r + 1).data();
    double* out0 = out + r * k;
    double* out1 = out + (r + 1) * k;
    for (size_t t = 0; t < num_roots; ++t) {
      const int32_t root = roots[t];
      int32_t ref0 = root;
      int32_t ref1 = root;
      if (root >= 0) {
        // (ref0 & ref1) < 0 exactly when both sign bits are set, i.e.
        // both lanes have reached leaves.
        while ((ref0 & ref1) >= 0) {
          const Node& n0 = nodes[static_cast<size_t>(std::max(ref0, 0))];
          const Node& n1 = nodes[static_cast<size_t>(std::max(ref1, 0))];
          // NaN compares false, so NaN features take the right child —
          // exactly DecisionTree's branch.
          const int32_t step0 =
              row0[static_cast<size_t>(n0.feature)] <= n0.threshold
                  ? n0.left
                  : n0.right;
          const int32_t step1 =
              row1[static_cast<size_t>(n1.feature)] <= n1.threshold
                  ? n1.left
                  : n1.right;
          ref0 = ref0 >= 0 ? step0 : ref0;
          ref1 = ref1 >= 0 ? step1 : ref1;
        }
      }
      const double* leaf0 = leaf_proba + static_cast<size_t>(~ref0) * k;
      const double* leaf1 = leaf_proba + static_cast<size_t>(~ref1) * k;
      for (size_t c = 0; c < k; ++c) out0[c] += leaf0[c];
      for (size_t c = 0; c < k; ++c) out1[c] += leaf1[c];
    }
  }
  for (; r < n; ++r) {
    const double* row = features.row(row_begin + r).data();
    double* row_out = out + r * k;
    for (size_t t = 0; t < num_roots; ++t) {
      int32_t ref = roots[t];
      while (ref >= 0) {
        const Node& node = nodes[static_cast<size_t>(ref)];
        ref = row[static_cast<size_t>(node.feature)] <= node.threshold
                  ? node.left
                  : node.right;
      }
      const double* leaf = leaf_proba + static_cast<size_t>(~ref) * k;
      for (size_t c = 0; c < k; ++c) row_out[c] += leaf[c];
    }
  }
  const double scale = 1.0 / static_cast<double>(num_trees_);
  for (size_t i = 0; i < n * k; ++i) out[i] *= scale;
}

std::vector<double> FlatForest::PredictProba(
    std::span<const double> features) const {
  std::vector<double> proba(static_cast<size_t>(num_classes_), 0.0);
  if (num_trees_ == 0) return proba;
  const size_t k = proba.size();
  for (const int32_t root : roots_) {
    int32_t ref = root;
    while (ref >= 0) {
      const Node& node = nodes_[static_cast<size_t>(ref)];
      ref = features[static_cast<size_t>(node.feature)] <= node.threshold
                ? node.left
                : node.right;
    }
    const double* leaf = leaf_proba_.data() + static_cast<size_t>(~ref) * k;
    for (size_t c = 0; c < k; ++c) proba[c] += leaf[c];
  }
  const double scale = 1.0 / static_cast<double>(num_trees_);
  for (double& p : proba) p *= scale;
  return proba;
}

}  // namespace strudel::ml
