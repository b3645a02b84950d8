#include "ml/flat_forest.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace strudel::ml {

namespace {

using Node = FlatForest::Node;

// Descends one tree for one row; returns the leaf row. NaN compares
// false, so NaN features take the right child — exactly DecisionTree's
// branch.
inline size_t Descend(const Node* nodes, int32_t ref, const double* row) {
  while (ref >= 0) {
    const Node& node = nodes[static_cast<size_t>(ref)];
    ref = row[static_cast<size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return static_cast<size_t>(~ref);
}

// Descends one tree for two rows in lockstep. A realistically sized forest
// outgrows L2, so a descent is a chain of dependent cache misses; two
// independent chains per loop body (on top of what out-of-order execution
// already overlaps across a row's trees) roughly doubles the misses in
// flight. A lane that reaches its leaf early idles branchlessly on node 0
// — a hot line, so the wasted loads are free — until its partner
// finishes.
inline void DescendPair(const Node* nodes, int32_t root, const double* row0,
                        const double* row1, size_t* leaf0, size_t* leaf1) {
  int32_t ref0 = root;
  int32_t ref1 = root;
  if (root >= 0) {
    // (ref0 & ref1) < 0 exactly when both sign bits are set, i.e. both
    // lanes have reached leaves.
    while ((ref0 & ref1) >= 0) {
      const Node& n0 = nodes[static_cast<size_t>(std::max(ref0, 0))];
      const Node& n1 = nodes[static_cast<size_t>(std::max(ref1, 0))];
      const int32_t step0 =
          row0[static_cast<size_t>(n0.feature)] <= n0.threshold ? n0.left
                                                                : n0.right;
      const int32_t step1 =
          row1[static_cast<size_t>(n1.feature)] <= n1.threshold ? n1.left
                                                                : n1.right;
      ref0 = ref0 >= 0 ? step0 : ref0;
      ref1 = ref1 >= 0 ? step1 : ref1;
    }
  }
  *leaf0 = static_cast<size_t>(~ref0);
  *leaf1 = static_cast<size_t>(~ref1);
}

inline void AddRow(const double* leaf, size_t k, double* acc) {
  for (size_t c = 0; c < k; ++c) acc[c] += leaf[c];
}

// Scales the sums in place, as PredictBlock does, and returns their
// argmax, lowest index on ties (std::max_element, like common/math_util.h
// ArgMax).
int ScaledArgMax(double* acc, size_t k, double scale) {
  for (size_t c = 0; c < k; ++c) acc[c] *= scale;
  return static_cast<int>(std::max_element(acc, acc + k) - acc);
}

}  // namespace

void FlatForest::Clear() {
  num_classes_ = 0;
  num_trees_ = 0;
  num_features_ = 0;
  num_leaves_ = 0;
  vote_can_exit_ = true;
  roots_.clear();
  nodes_.clear();
  leaf_proba_.clear();
}

int32_t FlatForest::AddLeaf(std::span<const double> distribution,
                            std::vector<int32_t>& class_rows) {
  const size_t k = static_cast<size_t>(num_classes_);
  ++num_leaves_;
  // A leaf distribution shorter than num_classes (unfitted tree) pads
  // with zeros, so every leaf row has exactly num_classes entries.
  size_t ones = 0, zeros = 0, one_at = 0;
  for (size_t c = 0; c < k; ++c) {
    const double p = c < distribution.size() ? distribution[c] : 0.0;
    if (p == 1.0) {
      ++ones;
      one_at = c;
    } else if (p == 0.0 && !std::signbit(p)) {
      ++zeros;
    }
    if (!(p >= 0.0 && p <= 1.0)) vote_can_exit_ = false;
  }
  const bool pure = ones == 1 && zeros == k - 1;
  if (pure && class_rows[one_at] >= 0) return class_rows[one_at];
  const int32_t id = static_cast<int32_t>(leaf_proba_.size() / k);
  leaf_proba_.insert(leaf_proba_.end(), distribution.begin(),
                     distribution.end());
  leaf_proba_.resize(static_cast<size_t>(id + 1) * k, 0.0);
  if (pure) class_rows[one_at] = id;
  return id;
}

void FlatForest::Build(const std::vector<DecisionTree>& trees,
                       int num_classes) {
  Clear();
  num_classes_ = num_classes;
  num_trees_ = static_cast<int>(trees.size());
  num_features_ = trees.empty() ? 0 : trees.front().num_features();
  if (num_classes_ <= 0) return;
  // Each class's one-hot row, made when its first pure leaf appears (a
  // loadable model may declare a million classes, so k rows up front
  // could cost k^2 doubles).
  std::vector<int32_t> class_rows(static_cast<size_t>(num_classes_), -1);

  // (source node, flat internal index) pairs still awaiting child wiring.
  std::vector<std::pair<int, int32_t>> queue;
  for (const DecisionTree& tree : trees) {
    const std::vector<DecisionTree::Node>& nodes = tree.nodes();

    // Appends node `src` to the flat arrays, enqueueing internal nodes for
    // child wiring, and returns its reference (>= 0 internal, ~leaf row).
    // Internal indices are assigned at enqueue time, so BFS order makes
    // every child index strictly greater than its parent's.
    auto add_node = [&](int src) -> int32_t {
      const DecisionTree::Node& node = nodes[static_cast<size_t>(src)];
      if (node.left < 0) return ~AddLeaf(node.distribution, class_rows);
      const int32_t id = static_cast<int32_t>(nodes_.size());
      nodes_.push_back(Node{node.threshold, node.feature, 0, 0});
      queue.emplace_back(src, id);
      return id;
    };

    if (nodes.empty()) {
      // Defensive: an unfitted tree predicts all-zeros; give it a zero
      // leaf so the walk adds nothing for it, as DecisionTree does.
      roots_.push_back(~AddLeaf({}, class_rows));
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

  // Rows walk the trees in pairs (DescendPair). Per row the accumulation
  // is still one leaf add per tree in tree order, the same operation
  // sequence as PredictProba and as summing the trees'
  // DecisionTree::PredictProba, so results stay bit-identical. The layout
  // does the rest of the work: one 24-byte node per step against the
  // trees' 64-byte nodes, and a small shared leaf matrix against a
  // heap-scattered vector per leaf.
  size_t r = 0;
  for (; r + 1 < n; r += 2) {
    const double* row0 = features.row(row_begin + r).data();
    const double* row1 = features.row(row_begin + r + 1).data();
    for (const int32_t root : roots_) {
      size_t leaf0, leaf1;
      DescendPair(nodes, root, row0, row1, &leaf0, &leaf1);
      AddRow(leaf_proba + leaf0 * k, k, out + r * k);
      AddRow(leaf_proba + leaf1 * k, k, out + (r + 1) * k);
    }
  }
  for (; r < n; ++r) {
    const double* row = features.row(row_begin + r).data();
    for (const int32_t root : roots_) {
      AddRow(leaf_proba + Descend(nodes, root, row) * k, k, out + r * k);
    }
  }
  const double scale = 1.0 / static_cast<double>(num_trees_);
  for (size_t i = 0; i < n * k; ++i) out[i] *= scale;
}

bool FlatForest::Settled(const double* acc, size_t walked) const {
  const size_t trees = static_cast<size_t>(num_trees_);
  if (!vote_can_exit_ || 2 * walked <= trees) return false;
  const size_t k = static_cast<size_t>(num_classes_);
  // Accumulators are >= +0.0, so 0.0 is a safe runner-up for k == 1.
  double lead = acc[0];
  double runner_up = 0.0;
  for (size_t c = 1; c < k; ++c) {
    if (acc[c] > lead) {
      runner_up = lead;
      lead = acc[c];
    } else if (acc[c] > runner_up) {
      runner_up = acc[c];
    }
  }
  const double trees_left = static_cast<double>(trees - walked);
  return (lead - runner_up) - trees_left > ExitSlack(num_trees_);
}

size_t FlatForest::FinishVote(const double* row, size_t tree,
                              double* acc) const {
  const size_t k = static_cast<size_t>(num_classes_);
  while (tree < roots_.size()) {
    const size_t leaf = Descend(nodes_.data(), roots_[tree], row);
    AddRow(leaf_proba_.data() + leaf * k, k, acc);
    ++tree;
    if (Settled(acc, tree)) break;
  }
  return tree;
}

uint64_t FlatForest::VoteBlock(const Matrix& features, size_t row_begin,
                               size_t row_end, int* out) const {
  const size_t n = row_end - row_begin;
  std::fill(out, out + n, 0);
  if (num_trees_ == 0) return 0;
  const size_t k = static_cast<size_t>(num_classes_);
  const size_t trees = roots_.size();
  const Node* nodes = nodes_.data();
  const double* leaf_proba = leaf_proba_.data();
  const double scale = 1.0 / static_cast<double>(num_trees_);
  std::vector<double> acc(2 * k);
  double* acc0 = acc.data();
  double* acc1 = acc.data() + k;
  uint64_t walked_total = 0;

  // A row's class is the argmax of its scaled sums whether or not its
  // walk stopped early: a settled leader leads by more than the slack, so
  // scaling keeps it strictly ahead.
  size_t r = 0;
  for (; r + 1 < n; r += 2) {
    const double* row0 = features.row(row_begin + r).data();
    const double* row1 = features.row(row_begin + r + 1).data();
    std::fill(acc.begin(), acc.end(), 0.0);
    // Both lanes walk in lockstep until either settles; the other then
    // finishes alone, so neither lane's count depends on its partner.
    size_t t = 0;
    bool settled0 = false, settled1 = false;
    while (t < trees && !settled0 && !settled1) {
      size_t leaf0, leaf1;
      DescendPair(nodes, roots_[t], row0, row1, &leaf0, &leaf1);
      AddRow(leaf_proba + leaf0 * k, k, acc0);
      AddRow(leaf_proba + leaf1 * k, k, acc1);
      ++t;
      settled0 = Settled(acc0, t);
      settled1 = Settled(acc1, t);
    }
    const size_t walked0 = settled0 ? t : FinishVote(row0, t, acc0);
    const size_t walked1 = settled1 ? t : FinishVote(row1, t, acc1);
    out[r] = ScaledArgMax(acc0, k, scale);
    out[r + 1] = ScaledArgMax(acc1, k, scale);
    walked_total += walked0 + walked1;
  }
  for (; r < n; ++r) {
    std::fill(acc0, acc0 + k, 0.0);
    walked_total += FinishVote(features.row(row_begin + r).data(), 0, acc0);
    out[r] = ScaledArgMax(acc0, k, scale);
  }
  return walked_total;
}

std::vector<double> FlatForest::PredictProba(
    std::span<const double> features) const {
  std::vector<double> proba(static_cast<size_t>(num_classes_), 0.0);
  if (num_trees_ == 0) return proba;
  const size_t k = proba.size();
  for (const int32_t root : roots_) {
    const size_t leaf = Descend(nodes_.data(), root, features.data());
    AddRow(leaf_proba_.data() + leaf * k, k, proba.data());
  }
  const double scale = 1.0 / static_cast<double>(num_trees_);
  for (double& p : proba) p *= scale;
  return proba;
}

}  // namespace strudel::ml
