// CART decision tree for multi-class classification (Gini impurity).
//
// This is the base learner of the random forest. Defaults mirror
// scikit-learn's DecisionTreeClassifier: nodes split until pure or until
// min_samples_split, no depth limit, best split over a (possibly
// subsampled) feature set. Leaves store the class distribution of their
// training samples so that PredictProba returns calibrated-by-counts
// probabilities — the random forest averages these across trees, exactly
// like sklearn's predict_proba.

#ifndef STRUDEL_ML_DECISION_TREE_H_
#define STRUDEL_ML_DECISION_TREE_H_

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/execution_budget.h"
#include "common/rng.h"
#include "ml/classifier.h"

namespace strudel::ml {

struct DecisionTreeOptions {
  /// 0 = unlimited depth.
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Number of features considered per split; 0 = all, -1 = sqrt(d)
  /// (the random-forest setting).
  int max_features = 0;
  uint64_t seed = 42;
  /// Optional execution budget; node construction charges the samples it
  /// scans and Fit fails with the budget's Status once exhausted.
  std::shared_ptr<ExecutionBudget> budget;
};

class DecisionTree final : public Classifier {
 public:
  struct Node {
    // Internal nodes: feature/threshold/children. Leaves: left == -1.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    // Class distribution at the node (normalised), used at leaves.
    std::vector<double> distribution;
    // Bookkeeping for importances.
    double impurity = 0.0;
    int samples = 0;
    int node_depth = 0;
  };

  explicit DecisionTree(DecisionTreeOptions options = {});

  Status Fit(const Dataset& data) override;

  /// Fits on the subset of `data` given by `indices` (with multiplicity —
  /// bootstrap samples repeat indices). Avoids copying the feature matrix.
  Status FitIndices(const Dataset& data, const std::vector<size_t>& indices);

  std::vector<double> PredictProba(
      std::span<const double> features) const override;

  int num_classes() const override { return num_classes_; }
  std::unique_ptr<Classifier> CloneUntrained() const override;

  /// Total Gini impurity decrease contributed by each feature, normalised
  /// to sum to 1 (the "mean decrease in impurity" importance).
  std::vector<double> FeatureImportances() const;

  /// Serialises the trained tree to a line-oriented text stream; Load
  /// restores it. The format is versioned ("tree v1").
  Status Save(std::ostream& out) const;
  Status Load(std::istream& in);

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int depth() const;
  size_t num_features() const { return num_features_; }

  /// Pre-order node storage (children strictly after their parent; node 0
  /// is the root). Read-only view for the flat-forest compaction.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  int BuildNode(const Dataset& data, std::vector<size_t>& indices,
                size_t begin, size_t end, int depth, Rng& rng);

  DecisionTreeOptions options_;
  std::vector<Node> nodes_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
  // First budget violation observed during BuildNode; construction stops
  // splitting once set and FitIndices returns it.
  Status build_status_;
};

}  // namespace strudel::ml

#endif  // STRUDEL_ML_DECISION_TREE_H_
