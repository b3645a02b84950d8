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
// dense `leaf rows x num_classes` matrix of leaf distributions. The
// layout is never serialised: model files carry only the trees.
// A child reference >= 0 is an internal-node index; a negative reference
// encodes a leaf as `~leaf_row`. Traversal provably terminates because
// of two invariants. DecisionTree::Load rejects any tree whose children
// do not come strictly after their parent, so every source tree is
// acyclic. Build then assigns internal indices in BFS order, so every
// internal child index is strictly greater than its parent's.
//
// Shared one-hot rows. Each class has at most one one-hot leaf row, made
// when the class's first pure leaf (one entry exactly 1.0, the rest +0.0)
// appears, and every pure leaf of that class references it; only mixed
// leaves get a row of their own. Fully grown trees are almost all pure
// leaves, so the leaf matrix holds k rows plus the few mixed ones instead
// of one row per leaf. The shared row holds exactly a pure leaf's
// distribution, so every walk still adds each leaf's own values.
//
// Bit-identity with the trees is by construction: the walk takes the
// same `value <= threshold` branches as DecisionTree::PredictProba (NaN
// features go right in both), lands on a row holding the leaf's
// distribution verbatim, and accumulates leaf probabilities in tree order
// before one final `*= 1/num_trees`. Summing the trees'
// DecisionTree::PredictProba the same way is the identical IEEE-754
// operation sequence per output element. The differential suite
// (ctest -L differential) holds the flat walk to that tree-summed oracle
// at 1/2/8 threads and across save/load round-trips.
//
// The early-exit vote (VoteBlock). A caller that needs only each row's
// class — the argmax, lowest index on ties, of the probabilities above —
// stops a row's walk once the class can no longer change. After w of the
// T trees, let L be the largest accumulator (the leader, lowest index on
// ties), R the largest of the others and r = T - w the trees left. The
// row stops when (L - R) - r > delta, with delta = T^2 * 2^-50, computed
// in that order in doubles; no row can stop before w > T/2, so the check
// starts there. The exit is exact, not approximate. Write u = 2^-53.
//  1. Every leaf entry is in [0, 1] (Build checks this and turns the exit
//     off for a forest that breaks it), so an accumulator after w adds is
//     at most w <= T: each rounded add is monotone and w is exact. Each
//     add therefore rounds by at most T*u.
//  2. The check's two subtractions round by at most T*u each, so a
//     passing check means L - R - r > delta - 2*T*u exactly.
//  3. Over the r remaining adds the leader's final sum is at least
//     L - r*T*u and any other class's is at most R + r + r*T*u, so the
//     leader stays ahead by more than delta - 2*(r + 1)*T*u.
//  4. The final scale by q = fl(1/T) >= (1 - u)/T rounds each value
//     (<= 1 + u) by at most u*(1 + u), so the scaled leader stays
//     strictly above every other class when the unscaled gap exceeds
//     2*T*u*(1 + u)/(1 - u), which is at most 2*T*u + 6*T*u^2.
// So delta >= 2*(r + 2)*T*u + 6*T*u^2 suffices, and r < T/2 at every
// check, so delta = T^2 * 2^-50 = 8*T^2*u does for every T >= 1
// (8*T^2 >= T^2 + 4*T + 6*T*u). The leader then is the argmax
// PredictBlock's probabilities would give, and also the argmax of the
// scaled partial sums (it leads them by more than delta - 2*T*u, past
// step 4's threshold), so every row's class is the argmax of its scaled
// sums, whether its walk stopped early or ran all T trees.
//
// The paired walk exits per lane: when one lane settles, the other
// finishes alone, so a row's tree count depends only on the row — never
// on its partner, the chunking or the thread count.

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
  /// Leaves of the source trees, i.e. leaf references in the layout.
  size_t num_leaves() const { return num_leaves_; }
  /// Rows of the leaf matrix: one one-hot row per class that has a pure
  /// leaf, plus one row per mixed leaf.
  size_t num_leaf_rows() const {
    return num_classes_ > 0 ? leaf_proba_.size() /
                                  static_cast<size_t>(num_classes_)
                            : 0;
  }

  /// Per-tree root references, the packed nodes and one leaf row: the
  /// layout, read-only, for tests that check its invariants.
  const std::vector<int32_t>& roots() const { return roots_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::span<const double> leaf_row(size_t row) const {
    const size_t k = static_cast<size_t>(num_classes_);
    return std::span<const double>(leaf_proba_).subspan(row * k, k);
  }

  /// The early-exit slack delta = T^2 * 2^-50 for a T-tree forest (see
  /// the header comment).
  static double ExitSlack(int num_trees) {
    const double t = static_cast<double>(num_trees);
    return t * t * 0x1p-50;
  }

  /// Averaged class probabilities for rows [row_begin, row_end) of
  /// `features`, written row-major into `out` (which must hold
  /// (row_end - row_begin) * num_classes doubles). Each row walks the
  /// trees in tree order, so the result is bit-identical to PredictProba;
  /// the speed comes from the packed layout, which keeps the whole forest
  /// roughly 4x smaller than the trees' working set.
  void PredictBlock(const Matrix& features, size_t row_begin, size_t row_end,
                    double* out) const;

  /// Classes for rows [row_begin, row_end) into `out`: per row the argmax
  /// (lowest index on ties) of PredictBlock's probabilities, found with
  /// the exact early exit of the header comment. Returns the number of
  /// trees walked, summed over the rows.
  uint64_t VoteBlock(const Matrix& features, size_t row_begin,
                     size_t row_end, int* out) const;

  /// Single-row probabilities (the forest's per-row PredictProba).
  std::vector<double> PredictProba(std::span<const double> features) const;

  /// Exact comparison of layout and parameters (all values are finite, so
  /// double == is well-defined here).
  bool operator==(const FlatForest& other) const = default;

 private:
  /// Returns the leaf row for `distribution`: its class's shared one-hot
  /// row (`class_rows`, made on first use) when pure, else a new row.
  int32_t AddLeaf(std::span<const double> distribution,
                  std::vector<int32_t>& class_rows);

  /// Walks trees [tree, T) for one row, adding each leaf row into `acc`
  /// (k wide) and stopping once the vote is settled. Returns the index
  /// one past the last tree walked.
  size_t FinishVote(const double* row, size_t tree, double* acc) const;
  /// Whether a row's accumulators after `walked` trees fix its class.
  bool Settled(const double* acc, size_t walked) const;

  int num_classes_ = 0;
  int num_trees_ = 0;
  size_t num_features_ = 0;
  size_t num_leaves_ = 0;
  /// True when every leaf entry lies in [0, 1], the premise of the early
  /// exit; VoteBlock walks every tree otherwise.
  bool vote_can_exit_ = true;
  /// Per-tree root reference: internal-node index or ~leaf_row.
  std::vector<int32_t> roots_;
  /// Packed internal nodes, breadth-first per tree, tree ranges
  /// contiguous and in tree order.
  std::vector<Node> nodes_;
  /// num_leaf_rows x num_classes row-major leaf class distributions, in
  /// BFS-discovery order of each row's first leaf.
  std::vector<double> leaf_proba_;
};

}  // namespace strudel::ml

#endif  // STRUDEL_ML_FLAT_FOREST_H_
