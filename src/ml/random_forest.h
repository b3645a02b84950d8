// Random forest classifier — the backbone of both Strudel^L and Strudel^C.
//
// Defaults match scikit-learn's RandomForestClassifier defaults (the
// setting the paper uses): 100 trees, bootstrap sampling, sqrt(d) features
// per split, unlimited depth. PredictProba averages the per-tree leaf
// class distributions.
//
// Training runs one tree per ThreadPool task and bulk prediction votes in
// row chunks. Each tree draws its build seed and its bootstrap sample
// from its own slot of a SplitMix64 stream over `options.seed`, so the
// fitted forest — and therefore every prediction — is bit-identical for
// any `num_threads`, including the exact serial path at 1.

#ifndef STRUDEL_ML_RANDOM_FOREST_H_
#define STRUDEL_ML_RANDOM_FOREST_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/execution_budget.h"
#include "ml/decision_tree.h"
#include "ml/flat_forest.h"

namespace strudel::ml {

struct RandomForestOptions {
  int num_trees = 100;
  /// Per-tree options; max_features = -1 means sqrt(d).
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  int max_features = -1;
  bool bootstrap = true;
  uint64_t seed = 42;
  /// Workers for Fit and the bulk Predict*All paths; 0 = hardware
  /// concurrency, 1 = exact serial path. Results are identical at any
  /// value.
  int num_threads = 0;
  /// Estimate generalisation accuracy from out-of-bag samples during
  /// Fit (requires bootstrap). Costs one prediction pass per tree.
  bool compute_oob_score = false;
  /// Optional execution budget, shared by all training workers; Fit
  /// returns the budget's Status (kDeadlineExceeded etc.) once exhausted.
  std::shared_ptr<ExecutionBudget> budget;
};

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  Status Fit(const Dataset& data) override;
  std::vector<double> PredictProba(
      std::span<const double> features) const override;
  /// Row-chunked parallel voting (options.num_threads workers); output is
  /// identical to the serial base-class loop.
  std::vector<int> PredictAll(const Matrix& features) const override;
  std::vector<std::vector<double>> PredictProbaAll(
      const Matrix& features) const override;

  /// Budget-aware batched prediction: validates the feature count once,
  /// charges `budget_stage` one unit per row (chunk-batched), and walks
  /// row chunks through the flat forest. TryPredictAll stops each row's
  /// walk once its class is fixed (FlatForest::VoteBlock), so its classes
  /// are the argmax of TryPredictProbaAll's probabilities. Output is
  /// bit-identical at every thread count. `out` is resized/overwritten; on
  /// error it is reset to all-zero probabilities (resp. class 0), even
  /// where chunks had finished before the error.
  Status TryPredictProbaAll(const Matrix& features, ExecutionBudget* budget,
                            const char* budget_stage,
                            std::vector<std::vector<double>>* out) const;
  Status TryPredictAll(const Matrix& features, ExecutionBudget* budget,
                       const char* budget_stage, std::vector<int>* out) const;

  /// The flat compaction of the trained trees, rebuilt after every
  /// successful Fit/Load and used by every predict path; empty() when
  /// unfitted.
  const FlatForest& flat_forest() const { return flat_; }

  /// The trained trees, in tree order; empty when unfitted.
  const std::vector<DecisionTree>& trees() const { return trees_; }

  /// Re-pins the worker count for the bulk predict paths (results are
  /// identical at any value). The strudel layer propagates its own
  /// --threads setting here after fitting or loading a forest.
  void set_num_threads(int num_threads) { options_.num_threads = num_threads; }
  int num_threads() const { return options_.num_threads; }

  int num_classes() const override { return num_classes_; }
  std::unique_ptr<Classifier> CloneUntrained() const override;

  /// Mean decrease in impurity, averaged over trees, normalised to sum 1.
  std::vector<double> FeatureImportances() const;

  int num_trees() const { return static_cast<int>(trees_.size()); }

  /// Feature count shared by every tree (Load enforces consistency);
  /// 0 when unfitted.
  size_t num_features() const {
    return trees_.empty() ? 0 : trees_.front().num_features();
  }

  /// Out-of-bag accuracy estimate; -1 when not computed (option off,
  /// bootstrap off, or no sample was ever out of bag).
  double oob_score() const { return oob_score_; }

  /// Serialises the trained forest / restores it ("forest v1" format).
  Status Save(std::ostream& out) const;
  Status Load(std::istream& in);

 private:
  /// Rows per prediction chunk: large enough to amortise dispatch, small
  /// enough to balance load across workers on mid-sized tables.
  static constexpr size_t kPredictChunkRows = 64;

  /// Shared body of the Try*All paths: validates the batch, charges the
  /// budget per chunk, and runs `predict(begin, end)` on each row chunk,
  /// which writes output rows [begin, end) and returns the trees it
  /// walked (added to ml.forest_trees_walked once per chunk). Chunks
  /// write disjoint output rows.
  Status PredictChunks(
      const Matrix& features, ExecutionBudget* budget,
      const char* budget_stage,
      const std::function<uint64_t(size_t, size_t)>& predict) const;

  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
  FlatForest flat_;
  int num_classes_ = 0;
  double oob_score_ = -1.0;
};

}  // namespace strudel::ml

#endif  // STRUDEL_ML_RANDOM_FOREST_H_
