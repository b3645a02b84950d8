// Reference probabilities for the random forest, summed from its trees.
//
// The forest predicts only through its flat layout, so a test that
// compared RandomForest::PredictProba against the batched paths would
// compare the flat walk with itself. This oracle walks each tree with
// DecisionTree::PredictProba, adds the leaf distributions in tree order
// and scales once by 1/num_trees: the operation sequence the flat walk
// promises to reproduce bit for bit.

#ifndef STRUDEL_TESTS_TESTING_FOREST_ORACLE_H_
#define STRUDEL_TESTS_TESTING_FOREST_ORACLE_H_

#include <span>
#include <vector>

#include "ml/matrix.h"
#include "ml/random_forest.h"

namespace strudel::testing {

inline std::vector<double> TreeOracleProba(const ml::RandomForest& forest,
                                           std::span<const double> row) {
  std::vector<double> acc(static_cast<size_t>(forest.num_classes()), 0.0);
  if (forest.trees().empty()) return acc;
  for (const ml::DecisionTree& tree : forest.trees()) {
    const std::vector<double> leaf = tree.PredictProba(row);
    for (size_t k = 0; k < leaf.size(); ++k) acc[k] += leaf[k];
  }
  const double scale = 1.0 / static_cast<double>(forest.trees().size());
  for (double& p : acc) p *= scale;
  return acc;
}

inline std::vector<std::vector<double>> TreeOracleProbaAll(
    const ml::RandomForest& forest, const ml::Matrix& features) {
  std::vector<std::vector<double>> probas;
  probas.reserve(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    probas.push_back(TreeOracleProba(forest, features.row(i)));
  }
  return probas;
}

}  // namespace strudel::testing

#endif  // STRUDEL_TESTS_TESTING_FOREST_ORACLE_H_
