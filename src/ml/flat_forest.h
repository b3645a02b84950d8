// FlatForest: the one inference path of the random forest.
//
// A trained forest is a vector of CART trees whose nodes live wherever
// the per-tree `std::vector<Node>` allocations landed, each node a
// 64-byte record carrying a heap-allocated class distribution — cache
// hostile when every line and every cell of a corpus walks every tree.
// FlatForest compacts the whole forest once (at Fit or model-load time)
// into one contiguous array of packed 24-byte internal nodes (threshold,
// feature index, left child, right child — everything one traversal step
// reads, in one cache line) laid out breadth-first per tree, plus one
// dense `num_leaves x num_classes` matrix of leaf distributions. The
// layout is never serialised: model files carry only the trees.
// A child reference >= 0 is an internal-node index; a negative reference
// encodes a leaf as `~leaf_index`. Traversal provably terminates because
// of two invariants. DecisionTree::Load rejects any tree whose children
// do not come strictly after their parent, so every source tree is
// acyclic. Build then assigns internal indices in BFS order, so every
// internal child index is strictly greater than its parent's.
//
// Bit-identity with the trees is by construction: the walk takes the
// same `value <= threshold` branches as DecisionTree::PredictProba (NaN
// features go right in both), lands on the same leaf distribution (copied
// verbatim at Build), and accumulates leaf probabilities in tree order
// before one final `*= 1/num_trees`. Summing the trees'
// DecisionTree::PredictProba the same way is the identical IEEE-754
// operation sequence per output element. The differential suite
// (ctest -L differential) holds the flat walk to that tree-summed oracle
// at 1/2/8 threads and across save/load round-trips.

#ifndef STRUDEL_ML_FLAT_FOREST_H_
#define STRUDEL_ML_FLAT_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/matrix.h"

namespace strudel::ml {

class FlatForest {
 public:
  /// One internal node, packed so a traversal step touches a single cache
  /// line: the comparison inputs and both child references together.
  struct Node {
    double threshold = 0.0;
    int32_t feature = 0;
    int32_t left = 0;
    int32_t right = 0;
    bool operator==(const Node& other) const = default;
  };

  FlatForest() = default;

  /// Compacts `trees` (trained, all agreeing on feature count) into the
  /// flat layout. Replaces any previous contents.
  void Build(const std::vector<DecisionTree>& trees, int num_classes);

  void Clear();

  bool empty() const { return num_trees_ == 0; }
  int num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }
  int num_trees() const { return num_trees_; }
  size_t num_internal_nodes() const { return nodes_.size(); }
  size_t num_leaves() const {
    return num_classes_ > 0 ? leaf_proba_.size() /
                                  static_cast<size_t>(num_classes_)
                            : 0;
  }

  /// Averaged class probabilities for rows [row_begin, row_end) of
  /// `features`, written row-major into `out` (which must hold
  /// (row_end - row_begin) * num_classes doubles). Each row walks the
  /// trees in tree order, so the result is bit-identical to PredictProba;
  /// the speed comes from the packed layout, which keeps the whole forest
  /// roughly 4x smaller than the trees' working set.
  void PredictBlock(const Matrix& features, size_t row_begin, size_t row_end,
                    double* out) const;

  /// Single-row probabilities (the forest's per-row PredictProba).
  std::vector<double> PredictProba(std::span<const double> features) const;

  /// Exact comparison of layout and parameters (all values are finite, so
  /// double == is well-defined here).
  bool operator==(const FlatForest& other) const = default;

 private:
  int32_t AddLeaf(std::span<const double> distribution);

  int num_classes_ = 0;
  int num_trees_ = 0;
  size_t num_features_ = 0;
  /// Per-tree root reference: internal-node index or ~leaf_index.
  std::vector<int32_t> roots_;
  /// Packed internal nodes, breadth-first per tree, tree ranges
  /// contiguous and in tree order.
  std::vector<Node> nodes_;
  /// num_leaves x num_classes row-major leaf class distributions, in
  /// BFS-discovery order.
  std::vector<double> leaf_proba_;
};

}  // namespace strudel::ml

#endif  // STRUDEL_ML_FLAT_FOREST_H_
