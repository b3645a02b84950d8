#include "ml/random_forest.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace strudel::ml {

namespace {

// Bootstrap sample (with replacement) for tree `t`, drawn from the tree's
// own SplitMix64-derived stream. Independent of every other tree's draws,
// so trees can be built in any order on any number of threads and the
// forest is still bit-identical to a serial build.
std::vector<size_t> BootstrapIndices(uint64_t root_seed, int tree_index,
                                     size_t n, bool bootstrap) {
  std::vector<size_t> indices;
  indices.reserve(n);
  if (bootstrap) {
    Rng rng(SplitMix64Stream(root_seed,
                             2 * static_cast<uint64_t>(tree_index) + 1));
    for (size_t i = 0; i < n; ++i) {
      indices.push_back(static_cast<size_t>(rng.UniformInt(n)));
    }
  } else {
    for (size_t i = 0; i < n; ++i) indices.push_back(i);
  }
  return indices;
}

}  // namespace

RandomForest::RandomForest(RandomForestOptions options)
    : options_(std::move(options)) {}

Status RandomForest::Fit(const Dataset& data) {
  STRUDEL_TRACE_SPAN("forest.fit");
  if (!data.Valid()) {
    return Status::InvalidArgument("random forest: invalid dataset");
  }
  if (data.size() == 0) {
    return Status::InvalidArgument("random forest: no training samples");
  }
  STRUDEL_RETURN_IF_ERROR(CheckFeaturesFinite(data, "random forest"));
  if (options_.budget != nullptr) {
    STRUDEL_RETURN_IF_ERROR(options_.budget->Check("forest_fit"));
  }
  num_classes_ = data.num_classes;

  DecisionTreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_split = options_.min_samples_split;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = options_.max_features;
  tree_options.budget = options_.budget;

  const int num_trees = std::max(1, options_.num_trees);
  const size_t n = data.size();
  trees_.clear();
  trees_.reserve(static_cast<size_t>(num_trees));
  // Every tree draws its seed and its bootstrap sample from its own slot
  // of a SplitMix64 stream over the root seed (2t for the tree, 2t+1 for
  // the bootstrap), so per-tree work is fully independent: no serial
  // master-RNG pass, and the result cannot depend on thread scheduling.
  for (int t = 0; t < num_trees; ++t) {
    tree_options.seed =
        SplitMix64Stream(options_.seed, 2 * static_cast<uint64_t>(t));
    trees_.emplace_back(tree_options);
  }

  Status status = ParallelFor(
      options_.num_threads, 0, static_cast<size_t>(num_trees), 1,
      [&](size_t begin, size_t end) -> Status {
        STRUDEL_TRACE_SPAN("forest.fit.chunk");
        static metrics::Counter& trees_trained =
            metrics::GetCounter("ml.trees_trained");
        for (size_t t = begin; t < end; ++t) {
          std::vector<size_t> indices = BootstrapIndices(
              options_.seed, static_cast<int>(t), n, options_.bootstrap);
          STRUDEL_RETURN_IF_ERROR(trees_[t].FitIndices(data, indices));
          trees_trained.Increment();
        }
        return Status::OK();
      },
      options_.budget.get());
  if (!status.ok()) {
    trees_.clear();  // no partially-trained forest
    flat_.Clear();
    return status;
  }
  flat_.Build(trees_, num_classes_);

  // Out-of-bag estimate: every sample is scored only by the trees whose
  // bootstrap missed it; the aggregated vote approximates held-out
  // accuracy (Breiman 2001). The bootstrap indices are regenerated from
  // the per-tree streams rather than kept alive through training.
  oob_score_ = -1.0;
  if (options_.compute_oob_score && options_.bootstrap) {
    std::vector<std::vector<double>> votes(
        n, std::vector<double>(static_cast<size_t>(num_classes_), 0.0));
    std::vector<char> in_bag(n);
    for (int t = 0; t < num_trees; ++t) {
      const std::vector<size_t> samples =
          BootstrapIndices(options_.seed, t, n, /*bootstrap=*/true);
      std::fill(in_bag.begin(), in_bag.end(), 0);
      for (size_t idx : samples) in_bag[idx] = 1;
      for (size_t i = 0; i < n; ++i) {
        if (in_bag[i]) continue;
        std::vector<double> proba =
            trees_[static_cast<size_t>(t)].PredictProba(data.features.row(i));
        for (size_t k = 0; k < proba.size(); ++k) votes[i][k] += proba[k];
      }
    }
    long long scored = 0, correct = 0;
    for (size_t i = 0; i < n; ++i) {
      double total = 0.0;
      for (double v : votes[i]) total += v;
      if (total <= 0.0) continue;  // sample was in every bag
      ++scored;
      if (static_cast<int>(ArgMax(votes[i])) == data.labels[i]) ++correct;
    }
    if (scored > 0) {
      oob_score_ = static_cast<double>(correct) /
                   static_cast<double>(scored);
    }
  }
  return Status::OK();
}

std::vector<double> RandomForest::PredictProba(
    std::span<const double> features) const {
  if (flat_.empty()) {
    return std::vector<double>(static_cast<size_t>(num_classes_), 0.0);
  }
  return flat_.PredictProba(features);
}

Status RandomForest::PredictChunks(
    const Matrix& features, ExecutionBudget* budget, const char* budget_stage,
    const std::function<uint64_t(size_t, size_t)>& predict) const {
  if (trees_.empty() || features.rows() == 0) return Status::OK();
  // Validation hoisted out of the row loop: every row of a Matrix has the
  // same width, so one check covers the whole batch.
  if (features.cols() != num_features()) {
    return Status::InvalidArgument(
        "random forest: feature count mismatch: matrix has " +
        std::to_string(features.cols()) + " columns, forest expects " +
        std::to_string(num_features()));
  }
  static metrics::Counter& rows_predicted =
      metrics::GetCounter("ml.forest_rows_predicted");
  static metrics::Counter& trees_walked =
      metrics::GetCounter("ml.forest_trees_walked");
  rows_predicted.Add(features.rows());
  // Row-chunked voting: each chunk owns a disjoint slice of the output,
  // so the result is identical to the serial loop at any thread count.
  return ParallelFor(
      options_.num_threads, 0, features.rows(), kPredictChunkRows,
      [&](size_t begin, size_t end) -> Status {
        if (budget != nullptr) {
          STRUDEL_RETURN_IF_ERROR(budget->Charge(budget_stage, end - begin));
        }
        trees_walked.Add(predict(begin, end));
        return Status::OK();
      },
      budget);
}

Status RandomForest::TryPredictProbaAll(
    const Matrix& features, ExecutionBudget* budget, const char* budget_stage,
    std::vector<std::vector<double>>* out) const {
  STRUDEL_TRACE_SPAN("forest.predict_all");
  const size_t k = static_cast<size_t>(num_classes_);
  out->assign(features.rows(), std::vector<double>(k, 0.0));
  const Status status = PredictChunks(
      features, budget, budget_stage, [&](size_t begin, size_t end) {
        std::vector<double> block((end - begin) * k);
        flat_.PredictBlock(features, begin, end, block.data());
        for (size_t i = begin; i < end; ++i) {
          std::copy_n(block.data() + (i - begin) * k, k, (*out)[i].data());
        }
        return static_cast<uint64_t>(end - begin) * trees_.size();
      });
  if (!status.ok()) out->assign(features.rows(), std::vector<double>(k, 0.0));
  return status;
}

Status RandomForest::TryPredictAll(const Matrix& features,
                                   ExecutionBudget* budget,
                                   const char* budget_stage,
                                   std::vector<int>* out) const {
  STRUDEL_TRACE_SPAN("forest.predict_all");
  out->assign(features.rows(), 0);
  const Status status = PredictChunks(
      features, budget, budget_stage, [&](size_t begin, size_t end) {
        return flat_.VoteBlock(features, begin, end, out->data() + begin);
      });
  if (!status.ok()) out->assign(features.rows(), 0);
  return status;
}

std::vector<std::vector<double>> RandomForest::PredictProbaAll(
    const Matrix& features) const {
  std::vector<std::vector<double>> out;
  (void)TryPredictProbaAll(features, nullptr, "forest_predict", &out);
  return out;
}

std::vector<int> RandomForest::PredictAll(const Matrix& features) const {
  std::vector<int> out;
  (void)TryPredictAll(features, nullptr, "forest_predict", &out);
  return out;
}

std::unique_ptr<Classifier> RandomForest::CloneUntrained() const {
  return std::make_unique<RandomForest>(options_);
}

Status RandomForest::Save(std::ostream& out) const {
  out << "forest v1 " << num_classes_ << ' ' << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) {
    STRUDEL_RETURN_IF_ERROR(tree.Save(out));
  }
  if (!out) return Status::IOError("random forest: write failed");
  return Status::OK();
}

Status RandomForest::Load(std::istream& in) {
  std::string magic, version;
  int num_classes = 0;
  size_t tree_count = 0;
  in >> magic >> version >> num_classes >> tree_count;
  if (!in || magic != "forest" || version != "v1") {
    return Status::CorruptModel("random forest: bad header");
  }
  if (num_classes < 1 || num_classes > 1'000'000) {
    return Status::CorruptModel("random forest: implausible class count " +
                                std::to_string(num_classes));
  }
  if (tree_count < 1 || tree_count > 100'000) {
    return Status::CorruptModel("random forest: implausible tree count " +
                                std::to_string(tree_count));
  }
  std::vector<DecisionTree> trees;
  trees.reserve(std::min<size_t>(tree_count, 1024));
  for (size_t t = 0; t < tree_count; ++t) {
    DecisionTree tree;
    STRUDEL_RETURN_IF_ERROR(tree.Load(in));
    // Every tree must agree with the forest header; a count mismatch means
    // spliced or corrupted sections.
    if (tree.num_classes() != num_classes) {
      return Status::CorruptModel(
          "random forest: tree/forest class count mismatch");
    }
    if (!trees.empty() && tree.num_features() != trees[0].num_features()) {
      return Status::CorruptModel(
          "random forest: inconsistent feature counts across trees");
    }
    trees.push_back(std::move(tree));
  }
  trees_ = std::move(trees);
  num_classes_ = num_classes;
  flat_.Build(trees_, num_classes_);
  return Status::OK();
}

std::vector<double> RandomForest::FeatureImportances() const {
  if (trees_.empty()) return {};
  std::vector<double> total = trees_[0].FeatureImportances();
  for (size_t t = 1; t < trees_.size(); ++t) {
    std::vector<double> imp = trees_[t].FeatureImportances();
    for (size_t i = 0; i < total.size(); ++i) total[i] += imp[i];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

}  // namespace strudel::ml
